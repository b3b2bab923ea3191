import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopsix import InputError, UnsupportedCase, homotopy
from loopsix.homotopy import (
    Circle,
    Node,
    Loop,
    LoopFactorMultiset,
    Product,
    Smash,
    Sphere,
    SphereModN,
    TRIVIAL,
    UnsupportedNode,
    Wedge,
    analyze_circle_bundle,
    ast_to_json,
    decompose,
    extension_notes,
    hilton_milnor,
    loop_factors,
    loop_homology_series,
    normalize,
    render,
    y_space_report,
)
from loopsix.manifold import bundle_from_classes, new_four_manifold
from loopsix.series import TruncatedSeries, _expand, series_reciprocal

from conftest import bouquet_spheres, lyndon_count_for_weight, random_pair


def t_power(degree, cutoff):
    """``t^degree`` through ``cutoff``: the zero series when ``degree >
    cutoff``."""
    return TruncatedSeries.from_coefficients([0] * degree + [1], cutoff=cutoff)


def pair(form, w2, p1):
    N = new_four_manifold(form)
    return N, bundle_from_classes(N, w2, p1)


D1 = pair([[1]], [1], 5)
D2_SPIN = pair([[0, 1], [1, 0]], [0, 0], 8)
D3 = pair([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9)


def d0(p1):
    return pair([], [], p1)


class TestNormalization:
    def test_products_flatten_and_sort(self):
        raw = Product((Loop(Sphere(5)), Product((Loop(Sphere(2)), Circle()))))
        assert normalize(raw) == Product(
            (Circle(), Loop(Sphere(2)), Loop(Sphere(5)))
        )

    def test_point_dropped_from_products_and_wedges(self):
        assert normalize(Product((Sphere(2), TRIVIAL))) == Sphere(2)
        assert normalize(Wedge((TRIVIAL, Sphere(3), TRIVIAL))) == Sphere(3)

    def test_smash_with_point_collapses(self):
        assert normalize(Smash((Sphere(2), TRIVIAL))) == TRIVIAL
        assert normalize(Loop(Smash((Wedge(()), Sphere(2))))) == TRIVIAL

    def test_mod_spheres_sort_by_order(self):
        raw = Product((SphereModN(5), Circle(), SphereModN(3)))
        assert normalize(raw) == Product((Circle(), SphereModN(3), SphereModN(5)))

    def test_render_grammar(self):
        expr = normalize(
            Product((Circle(), Loop(Sphere(2)), Loop(Product((Sphere(2), Sphere(3))))))
        )
        assert render(expr) == "S^1 x Loop(S^2) x Loop(S^2 x S^3)"

    def test_one_key_per_node(self, monkeypatch):
        # the unnormalized d = 10 tree, with its two copies of J and of
        # Loop(S^2 x S^3), each walked as a subtree of its own
        trees = []
        monkeypatch.setattr(homotopy, "normalize", lambda node: trees.append(node))
        homotopy._decompose_rank.__wrapped__(10)
        monkeypatch.undo()
        (raw,) = trees

        def nodes(node):
            if isinstance(node, Loop):
                return 1 + nodes(node.space)
            if isinstance(node, (Product, Wedge, Smash)):
                return 1 + sum(map(nodes, homotopy._children(node)))
            return 1

        normal = decompose(*random_pair(random.Random(10), 10))
        keys = []
        key = homotopy._key
        monkeypatch.setattr(homotopy, "_key", lambda *args: keys.append(0) or key(*args))
        assert normalize(raw) == normal
        assert len(keys) == nodes(raw) == 49


class TestDecompose:
    def test_d1(self):
        expr = decompose(*D1)
        assert expr == Product((Circle(), Loop(Sphere(2)), Loop(Sphere(5))))
        assert render(expr) == "S^1 x Loop(S^2) x Loop(S^5)"

    def test_d2_wedge_summand_vanishes(self):
        expr = decompose(*D2_SPIN)
        assert expr == Product(
            (Circle(), Loop(Sphere(2)), Loop(Product((Sphere(2), Sphere(3)))))
        )

    def test_d3_four_factor_form(self):
        expr = decompose(*D3)
        assert isinstance(expr, Product) and len(expr.factors) == 4
        wedge_factors = [
            f for f in expr.factors if isinstance(f, Loop) and isinstance(f.space, Wedge)
        ]
        assert len(wedge_factors) == 1
        wedge = wedge_factors[0].space
        spheres = [s for s in wedge.summands if isinstance(s, Sphere)]
        smashes = [s for s in wedge.summands if isinstance(s, Smash)]
        assert sorted(s.dim for s in spheres) == [2, 3]
        assert len(smashes) == 1

    def test_depends_only_on_rank(self):
        rng = random.Random(5)
        for d in (1, 2, 3, 4):
            expressions = {decompose(*random_pair(rng, d)) for _ in range(4)}
            assert len(expressions) == 1

    def test_d0_odd(self):
        assert render(decompose(*d0(60))) == "S^1 x S^3{3} x S^3{5} x Loop(S^7)"
        assert render(decompose(*d0(36))) == "S^1 x S^3{9} x Loop(S^7)"

    def test_d0_power_of_two(self):
        assert render(decompose(*d0(32))) == "S^1 x S^3{8} x Loop(S^7)"

    def test_d0_extensions(self):
        assert render(decompose(*d0(0))) == "S^1 x Loop(S^3) x Loop(S^4)"
        assert render(decompose(*d0(4))) == "S^1 x Loop(S^7)"
        assert extension_notes(*d0(0)) and extension_notes(*d0(4))
        assert extension_notes(*D1) == ()

    @pytest.mark.parametrize(
        "p1,needle",
        [
            (24, "much more difficult"),
            (8, "not an H-space"),
            (16, "much more difficult"),
            (48, "much more difficult"),  # k = 12 = 2^2 * 3
        ],
    )
    def test_d0_unsupported(self, p1, needle):
        with pytest.raises(UnsupportedCase, match=needle):
            decompose(*d0(p1))

    def test_d0_circle_bundle_report(self):
        assert analyze_circle_bundle(d0(60)[1])["cells"] == "P^4(15) u e^7"
        assert analyze_circle_bundle(d0(0)[1])["cells"] == "S^3 x S^4"


class TestYSpace:
    def test_d1_is_case_one_with_five_sphere(self):
        report = y_space_report(*D1)
        assert (report.case, report.parity, report.y_cells) == ("I", "odd", "S^5")

    def test_d2_spin_hyperbolic_is_case_two(self):
        report = y_space_report(*D2_SPIN)
        assert report.beta == (1, 0)
        assert report.case == "II"

    def test_d3_non_spin_case_one(self):
        report = y_space_report(*D3)
        assert report.case == "I"
        assert report.y_cells == "(S^2 v S^2 v S^3 v S^3) u e^5"


def letter_spheres(d, cutoff):
    """The sphere multiset read off ``t`` times the bouquet's letter series
    ``homotopy._bouquet_letters`` by ``series._expand``."""
    num, den = homotopy._bouquet_letters(d)
    return {n: c for n, c in enumerate(_expand((0, *num), den, cutoff)) if c}


class TestBouquet:
    """The bouquet's letter series, expanded, lists its spheres."""

    def test_d2_empty(self):
        assert letter_spheres(2, 10) == {}

    def test_d3(self):
        assert letter_spheres(3, 6) == {2: 1, 3: 2, 4: 3, 5: 4, 6: 5}

    def test_d4_doubles_d3(self):
        assert letter_spheres(4, 4) == {2: 2, 3: 4, 4: 6}

    def test_closed_form_matches_series(self):
        for d in range(2, 13):
            for cutoff in range(61):
                spheres = series_bouquet_spheres(d, cutoff)
                assert letter_spheres(d, cutoff) == spheres
                assert bouquet_spheres(d, cutoff) == spheres


def series_bouquet_spheres(d, cutoff):
    """The bouquet's spheres as the series ``(d-2)(t^2+t^3)/((1-t)(1-t^2))``,
    the form they had before the closed form; kept as a reference."""
    if d == 2:
        return {}
    h_z = series_reciprocal(
        TruncatedSeries.from_coefficients([1, -1], cutoff)
        * TruncatedSeries.from_coefficients([1, 0, -1], cutoff)
    )
    j = TruncatedSeries.from_coefficients([0, 0, d - 2, d - 2], cutoff)
    counts = (j * h_z).integer_coefficients()
    return {n: counts[n] for n in range(2, cutoff + 1) if counts[n]}


class TestHiltonMilnor:
    def test_two_sphere_wedge(self):
        # dimension 6 gets multiplicity 2: Lyndon words "aaab" and "abb" of
        # weighted length 5 (the oracle below); lower dimensions are all 1
        result = hilton_milnor({2: 1, 3: 1}, 5)
        assert result.loops_by_dim() == {2: 1, 3: 1, 4: 1, 5: 1, 6: 2}
        assert result.truncated
        for w in range(1, 6):
            assert result.loops_by_dim().get(w + 1, 0) == lyndon_count_for_weight(
                [1, 2], w
            )

    def test_two_equal_spheres(self):
        result = hilton_milnor([2, 2], 4)
        assert result.loops_by_dim() == {2: 2, 3: 1, 4: 2, 5: 3}

    def test_single_odd_sphere_is_complete(self):
        result = hilton_milnor([5], 8)
        assert result.loops_by_dim() == {5: 1}
        assert not result.truncated

    def test_rejects_circles(self):
        with pytest.raises(Exception):
            hilton_milnor([1, 2], 4)

    @pytest.mark.parametrize(
        "spheres, message",
        [({3: -1}, "sphere counts must be nonnegative"),
         ({3: 1.5}, "sphere count must be an int, got 1.5"),
         ({2.0: 1, 3: 1}, "sphere dimension must be an int, got 2.0"),
         ({3: True, 2: 1}, "sphere count must be an int, got True"),
         ([2, 3.0], "sphere dimension must be an int, got 3.0"),
         ([3, 3.0], "sphere dimension must be an int, got 3.0"),
         ([2, 3, 2.0], "sphere dimension must be an int, got 2.0"),
         ({1: 0, 3: 1}, "sphere dimensions must be >= 2")],
        ids=["negative", "float-count", "float-dim", "bool-count", "float-list",
             "float-after-equal-int", "float-after-equal-ints", "zero-count-circle"],
    )
    def test_rejects_inexact_sphere_data(self, spheres, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            hilton_milnor(spheres, 5)

    @given(
        st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3)
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_match_weighted_lyndon_enumeration(self, dims):
        cutoff = 6
        result = hilton_milnor(dims, cutoff)
        weights = [dim - 1 for dim in dims]
        for w in range(1, cutoff + 1):
            assert result.loops_by_dim().get(w + 1, 0) == lyndon_count_for_weight(
                weights, w
            )


class TestLoopFactors:
    def test_d1(self):
        factors = loop_factors(*D1, cutoff=8)
        assert factors.circles == 1
        assert factors.loops_by_dim() == {2: 1, 5: 1}
        assert not factors.truncated

    def test_d2(self):
        factors = loop_factors(*D2_SPIN, cutoff=8)
        assert factors.loops_by_dim() == {2: 2, 3: 1}
        assert not factors.truncated

    def test_d3_low_cutoff(self):
        factors = loop_factors(*D3, cutoff=4)
        assert factors.truncated
        assert factors.loops_by_dim() == {2: 3, 3: 3, 4: 5, 5: 10}

    def test_d0(self):
        factors = loop_factors(*d0(60), cutoff=8)
        assert factors.circles == 1
        assert factors.mod_factors == (3, 5)
        assert factors.loops_by_dim() == {7: 1}
        assert not factors.truncated

    def test_d0_low_cutoff_flags_truncation(self):
        factors = loop_factors(*d0(60), cutoff=3)
        assert factors.loops_by_dim() == {}
        assert factors.truncated


def hand_loop_factors(N, b, cutoff):
    """The hand-written expansion that ``loop_factors`` used before it read
    every rank from ``decompose``; kept as a reference."""
    if cutoff < 1:
        raise InputError("cutoff must be >= 1")
    d = N.d
    if d == 0:
        expr = decompose(N, b)
        mods = tuple([f.order for f in expr.factors if isinstance(f, SphereModN)])
        loops = {}
        dropped = False
        for f in expr.factors:
            if isinstance(f, Loop) and isinstance(f.space, Sphere):
                m = f.space.dim
                if m <= cutoff + 1:
                    loops[m] = loops.get(m, 0) + 1
                else:
                    dropped = True
        return LoopFactorMultiset(
            circles=1,
            sphere_loops=tuple(sorted(loops.items())),
            mod_factors=mods,
            truncated=dropped,
            cutoff=cutoff,
        )
    base = {2: 1, 5: 1} if d == 1 else {2: 2, 3: 1}
    loops = {m: c for m, c in base.items() if m <= cutoff + 1}
    truncated = any(m > cutoff + 1 for m in base)
    if d >= 3:
        expansion = hilton_milnor(bouquet_spheres(d, cutoff + 1), cutoff)
        for m, c in expansion.sphere_loops:
            loops[m] = loops.get(m, 0) + c
        truncated = truncated or expansion.truncated
    return LoopFactorMultiset(
        circles=1,
        sphere_loops=tuple(sorted(loops.items())),
        mod_factors=(),
        truncated=truncated,
        cutoff=cutoff,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, UnsupportedCase) as exc:
        return type(exc), str(exc)


class TestLoopFactorsWalk:
    """``loop_factors`` walks ``decompose`` and matches the hand expansion."""

    CUTOFFS = range(0, 25)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_hand_expansion_d_positive(self, d):
        rng = random.Random(100 + d)
        for _ in range(3):
            N, b = random_pair(rng, d)
            for cutoff in self.CUTOFFS:
                assert outcome(loop_factors, N, b, cutoff) == outcome(
                    hand_loop_factors, N, b, cutoff
                )

    def test_matches_hand_expansion_d0(self):
        supported = 0
        for k in range(65):
            N, b = d0(4 * k)
            supported += not isinstance(outcome(decompose, N, b), tuple)
            for cutoff in self.CUTOFFS:
                assert outcome(loop_factors, N, b, cutoff) == outcome(
                    hand_loop_factors, N, b, cutoff
                )
        assert supported == 2 + 31 + 4  # k = 0, 1; odd 3..63; 8, 16, 32, 64

    def test_each_rank_built_once(self, monkeypatch):
        calls = []
        original = homotopy.normalize

        def counted(node):
            calls.append(node)
            return original(node)

        monkeypatch.setattr(homotopy, "normalize", counted)
        rng = random.Random(9)
        specs = [random_pair(rng, 4) for _ in range(5)]
        homotopy._decompose_rank.cache_clear()
        decompose(*specs[0])
        single = len(calls)
        assert single > 0
        homotopy._decompose_rank.cache_clear()
        calls.clear()
        for i in range(25):
            N, b = specs[i % len(specs)]
            loop_factors(N, b, 1 + i % 12)
            decompose(N, b)
        assert len(calls) <= single


class TestLoopHomology:
    def test_d1_series(self):
        series = loop_homology_series(decompose(*D1), 7)
        assert series.integer_coefficients() == (1, 2, 2, 2, 3, 4, 4, 4)

    def test_d3_series_matches_reciprocal(self):
        series = loop_homology_series(decompose(*D3), 4)
        assert series.integer_coefficients() == (1, 4, 12, 33, 88)

    def test_circle_alone(self):
        series = loop_homology_series(Circle(), 4)
        assert series.integer_coefficients() == (1, 1, 0, 0, 0)

    def test_mod_sphere_is_rationally_trivial(self):
        series = loop_homology_series(
            Product((Circle(), SphereModN(3), Loop(Sphere(7)))), 7
        )
        assert series.integer_coefficients() == (1, 1, 0, 0, 0, 0, 1, 1)

    def test_unsupported_node(self):
        with pytest.raises(UnsupportedNode):
            loop_homology_series(Sphere(3), 4)

    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4)
    )
    @settings(max_examples=40)
    def test_loops_of_wedge_is_tensor_algebra(self, dims):
        cutoff = 9
        expr = Loop(Wedge(tuple(Sphere(n) for n in dims)))
        lhs = loop_homology_series(expr, cutoff)
        poly = TruncatedSeries.from_coefficients([], cutoff=cutoff)
        for n in dims:
            poly = poly + t_power(n - 1, cutoff)
        assert lhs == series_reciprocal(TruncatedSeries.one(cutoff) - poly)


# ---------------------------------------------------------------------------
# The AST rules as they were written before each was stated once, one arm per
# node kind; kept as references for the table-driven rules and the single
# homology evaluator.
# ---------------------------------------------------------------------------


def ref_node_key(node):
    if isinstance(node, Circle):
        return (0,)
    if isinstance(node, SphereModN):
        return (1, node.order)
    if isinstance(node, Loop):
        if isinstance(node.space, Sphere):
            return (2, node.space.dim)
        return (3, ref_node_key(node.space))
    if isinstance(node, Sphere):
        return (4, node.dim)
    if isinstance(node, Product):
        return (5, tuple([ref_node_key(f) for f in node.factors]))
    if isinstance(node, Wedge):
        return (6, tuple([ref_node_key(s) for s in node.summands]))
    if isinstance(node, Smash):
        return (7, tuple([ref_node_key(f) for f in node.factors]))
    raise TypeError(f"not a homotopy expression: {node!r}")


def ref_normalize(node):
    if isinstance(node, (Circle, Sphere, SphereModN)):
        return node
    if isinstance(node, Loop):
        inner = ref_normalize(node.space)
        if inner == TRIVIAL:
            return TRIVIAL
        return Loop(inner)
    if isinstance(node, Product):
        factors = []
        for f in node.factors:
            nf = ref_normalize(f)
            if nf == TRIVIAL:
                continue
            if isinstance(nf, Product):
                factors.extend(nf.factors)
            else:
                factors.append(nf)
        if not factors:
            return TRIVIAL
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(sorted(factors, key=ref_node_key)))
    if isinstance(node, Wedge):
        summands = []
        for s in node.summands:
            ns = ref_normalize(s)
            if ns == TRIVIAL:
                continue
            if isinstance(ns, Wedge):
                summands.extend(ns.summands)
            else:
                summands.append(ns)
        if not summands:
            return TRIVIAL
        if len(summands) == 1:
            return summands[0]
        return Wedge(tuple(sorted(summands, key=ref_node_key)))
    if isinstance(node, Smash):
        factors = []
        for f in node.factors:
            nf = ref_normalize(f)
            if nf == TRIVIAL:
                return TRIVIAL
            if isinstance(nf, Smash):
                factors.extend(nf.factors)
            else:
                factors.append(nf)
        if not factors:
            return TRIVIAL
        if len(factors) == 1:
            return factors[0]
        return Smash(tuple(sorted(factors, key=ref_node_key)))
    raise TypeError(f"not a homotopy expression: {node!r}")


def ref_render(node):
    def atom(n):
        text = ref_render(n)
        if isinstance(n, (Product, Wedge, Smash)):
            return f"({text})"
        return text

    if isinstance(node, Circle):
        return "S^1"
    if isinstance(node, Sphere):
        return f"S^{node.dim}"
    if isinstance(node, SphereModN):
        return f"S^3{{{node.order}}}"
    if isinstance(node, Loop):
        return f"Loop({ref_render(node.space)})"
    if isinstance(node, Product):
        return " x ".join(atom(f) for f in node.factors) if node.factors else "pt"
    if isinstance(node, Wedge):
        return " v ".join(atom(s) for s in node.summands) if node.summands else "pt"
    if isinstance(node, Smash):
        return " ^ ".join(atom(f) for f in node.factors) if node.factors else "pt"
    raise TypeError(f"not a homotopy expression: {node!r}")


def ref_ast_to_json(node):
    if isinstance(node, Circle):
        return {"kind": "circle"}
    if isinstance(node, Sphere):
        return {"kind": "sphere", "dim": node.dim}
    if isinstance(node, SphereModN):
        return {"kind": "sphere_mod", "dim": 3, "order": node.order}
    if isinstance(node, Loop):
        return {"kind": "loop", "space": ref_ast_to_json(node.space)}
    if isinstance(node, Product):
        return {"kind": "product", "factors": [ref_ast_to_json(f) for f in node.factors]}
    if isinstance(node, Wedge):
        return {"kind": "wedge", "summands": [ref_ast_to_json(s) for s in node.summands]}
    if isinstance(node, Smash):
        return {"kind": "smash", "factors": [ref_ast_to_json(f) for f in node.factors]}
    raise TypeError(f"not a homotopy expression: {node!r}")


def ref_sphere_loop_series(dim, cutoff):
    if dim < 2:
        raise UnsupportedNode(f"Loop(S^{dim}) needs dim >= 2")
    one = TruncatedSeries.one(cutoff)
    if dim % 2 == 1:
        return series_reciprocal(one - t_power(dim - 1, cutoff))
    numerator = one + t_power(dim - 1, cutoff)
    denominator = one - t_power(2 * dim - 2, cutoff)
    return numerator * series_reciprocal(denominator)


def ref_reduced_homology_series(node, cutoff):
    if isinstance(node, Sphere):
        return t_power(node.dim, cutoff)
    if isinstance(node, Circle):
        return t_power(1, cutoff)
    if isinstance(node, SphereModN):
        return TruncatedSeries.from_coefficients([], cutoff=cutoff)
    if isinstance(node, Wedge):
        total = TruncatedSeries.from_coefficients([], cutoff=cutoff)
        for s in node.summands:
            total = total + ref_reduced_homology_series(s, cutoff)
        return total
    if isinstance(node, Smash):
        total = TruncatedSeries.one(cutoff)
        for f in node.factors:
            total = total * ref_reduced_homology_series(f, cutoff)
        return total
    if isinstance(node, Product):
        total = TruncatedSeries.one(cutoff)
        for f in node.factors:
            total = total * (
                TruncatedSeries.one(cutoff) + ref_reduced_homology_series(f, cutoff)
            )
        return total - TruncatedSeries.one(cutoff)
    if isinstance(node, Loop):
        return ref_loop_series(node.space, cutoff) - TruncatedSeries.one(cutoff)
    raise UnsupportedNode(f"no homology series for {node!r}")


def ref_loop_series(space, cutoff):
    if isinstance(space, Sphere):
        return ref_sphere_loop_series(space.dim, cutoff)
    if isinstance(space, Product):
        total = TruncatedSeries.one(cutoff)
        for f in space.factors:
            total = total * ref_loop_series(f, cutoff)
        return total
    if isinstance(space, Wedge):
        reduced = ref_reduced_homology_series(space, cutoff + 1)
        if reduced[0] != 0 or reduced[1] != 0:
            raise UnsupportedNode(
                "wedge summand is not simply connected; cannot expand its loops"
            )
        generators = TruncatedSeries(reduced.coeffs[1:])
        return series_reciprocal(TruncatedSeries.one(cutoff) - generators)
    raise UnsupportedNode(f"cannot take loop homology of {space!r}")


def ref_loop_homology_series(expr, cutoff):
    node = ref_normalize(expr)
    factors = node.factors if isinstance(node, Product) else (node,)
    total = TruncatedSeries.one(cutoff)
    for f in factors:
        if isinstance(f, Circle):
            total = total * TruncatedSeries.from_coefficients([1, 1], cutoff)
        elif isinstance(f, SphereModN):
            continue
        elif isinstance(f, Loop):
            total = total * ref_loop_series(f.space, cutoff)
        elif f == TRIVIAL:
            continue
        else:
            raise UnsupportedNode(f"not a loop-space factor: {ref_render(f)}")
    return total


LEAVES = st.one_of(
    st.just(Circle()),
    st.builds(Sphere, st.integers(1, 7)),
    st.builds(SphereModN, st.integers(2, 9)),
    st.just(TRIVIAL),
)


def expressions(depth: int) -> st.SearchStrategy[Node]:
    """Homotopy expressions of depth at most ``depth`` over ``LEAVES``."""
    if depth == 0:
        return LEAVES
    child = expressions(depth - 1)
    children = st.lists(child, max_size=3).map(tuple)
    return st.one_of(
        LEAVES,
        st.builds(Loop, child),
        st.builds(Product, children),
        st.builds(Wedge, children),
        st.builds(Smash, children),
    )


def series_or_refusal(fn, expr, cutoff):
    try:
        return fn(expr, cutoff)
    except InputError as exc:
        return type(exc)


class TestRulesMatchReference:
    """Each AST rule, stated once for the three n-ary nodes, and the single
    homology evaluator agree with the per-kind rules they replaced."""

    @given(expressions(5))
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_ast_rules(self, expr):
        for node in (expr, normalize(expr)):
            assert normalize(node) == ref_normalize(node)
            assert render(node) == ref_render(node)
            assert ast_to_json(node) == ref_ast_to_json(node)
            assert homotopy._normal(node)[1] == ref_node_key(normalize(node))

    @given(expressions(5), st.integers(0, 30))
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_loop_homology_series(self, expr, cutoff):
        assert series_or_refusal(loop_homology_series, expr, cutoff) == (
            series_or_refusal(ref_loop_homology_series, expr, cutoff)
        )

    @pytest.mark.parametrize(
        "expr",
        [
            Smash((Sphere(2), Smash((Sphere(3), Circle())))),  # nested smash
            Smash((Sphere(4),)),  # singleton
            Smash(()),  # empty
            Loop(Wedge((Circle(), Sphere(3)))),
            Loop(Wedge((SphereModN(3), Sphere(2), Product((Sphere(2), Sphere(3)))))),
            Loop(Wedge((Sphere(2), Smash((Sphere(3), SphereModN(5)))))),
            Loop(Sphere(1)),
            Loop(Circle()),
            Loop(Product((Sphere(4), Wedge((Sphere(2), Sphere(2)))))),
            Product((SphereModN(3), SphereModN(5))),
            # runs of equal wedge summands, each evaluated once
            Loop(Wedge((Sphere(2),) * 5)),
            Loop(Wedge((Smash((Sphere(2), Loop(Sphere(3)))),) * 2 + (Sphere(3),))),
            # a run of m = 2 whose denominator 1 - t^2 is not the sum's so far
            Loop(Wedge((Sphere(4), Loop(Sphere(3)), Sphere(2), Loop(Sphere(3))))),
        ],
    )
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 12])
    def test_arms_without_other_callers(self, expr, cutoff):
        assert normalize(expr) == ref_normalize(expr)
        assert series_or_refusal(loop_homology_series, expr, cutoff) == (
            series_or_refusal(ref_loop_homology_series, expr, cutoff)
        )


class TestDecompositionsAtHighCutoff:
    """The series of each decomposition shape matches the reference far past
    the cutoffs the property tests reach."""

    @pytest.mark.parametrize(
        "spec",
        [
            d0(0),  # k = 0
            d0(60),  # k = 15
            D1,
            D2_SPIN,
            D3,
            random_pair(random.Random(6), 6),
            random_pair(random.Random(10), 10),
        ],
        ids=["k0", "k15", "d1", "d2", "d3", "d6", "d10"],
    )
    def test_cutoff_200(self, spec):
        expr = decompose(*spec)
        assert loop_homology_series(expr, 200) == ref_loop_homology_series(expr, 200)


class TestSeriesOperationCount:
    """``loop_homology_series`` of a decomposition at cutoff 40 makes no
    series multiplication and no reciprocal, where the per-kind evaluator
    made the counts below: it expands one rational function instead."""

    # (spec, multiplications, reciprocals) of the reference evaluator
    CASES = [
        (d0(0), 4, 2),  # k = 0
        (d0(60), 2, 1),  # k = 15
        (D1, 4, 2),
        (D2_SPIN, 7, 3),
        (D3, 13, 6),
        (random_pair(random.Random(10), 10), 13, 6),
    ]

    @pytest.mark.parametrize(
        "spec, muls, reciprocals", CASES, ids=["k0", "k15", "d1", "d2", "d3", "d10"]
    )
    def test_at_most_the_reference(self, monkeypatch, spec, muls, reciprocals):
        counts = {"mul": 0, "reciprocal": 0}
        original_mul = TruncatedSeries.__mul__
        original_reciprocal = series_reciprocal

        def counted_mul(a, b):
            counts["mul"] += 1
            return original_mul(a, b)

        def counted_reciprocal(a):
            counts["reciprocal"] += 1
            return original_reciprocal(a)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        # homotopy no longer imports it; a name imported again is counted
        monkeypatch.setattr(
            homotopy, "series_reciprocal", counted_reciprocal, raising=False
        )
        monkeypatch.setitem(globals(), "series_reciprocal", counted_reciprocal)
        expr = decompose(*spec)
        ref = ref_loop_homology_series(expr, 40)
        assert (counts["mul"], counts["reciprocal"]) == (muls, reciprocals)
        counts.update(mul=0, reciprocal=0)
        assert loop_homology_series(expr, 40) == ref
        assert counts["mul"] <= 0 and counts["reciprocal"] <= 0
