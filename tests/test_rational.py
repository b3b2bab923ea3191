import inspect
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsix import homotopy, linalg, rational
from loopsix.cli import MAX_RANK
from loopsix.errors import InputError
from loopsix.homotopy import decompose, hilton_milnor, loop_factors, loop_homology_series
from loopsix.manifold import (
    FourManifold,
    NotUnimodular,
    SixManifoldRing,
    bundle_from_classes,
    cohomology_ring,
    new_four_manifold,
)
from loopsix.linalg import rank
from loopsix.rational import (
    CoformalityReport,
    DifferentialNotSquareZero,
    KoszulInconsistency,
    NotQuadratic,
    cdga_cohomology,
    coformality_check,
    d1_model,
    d1_model_parameter,
    free_graded_lie_dims,
    hilbert_series,
    is_rationally_elliptic,
    koszul_dual_series,
    lie_dims,
    make_sullivan_model,
    quadratic_dual_dims,
    quadratic_presentation,
    ranks_from_decomposition,
)
from loopsix.series import (
    GradedLieDims, NegativeLieDimension, TruncatedSeries, _expand, pbw_invert,
)

from conftest import (
    DESK_D2_0,
    DESK_D3_0,
    INPUTS,
    REPO_ROOT,
    SPECIAL_SPECS,
    d_monomial_by_words,
    graded_free_lie_dims_oracle,
    monomial_basis_by_recursion,
    pbw_invert_by_newton,
    quadratic_algebra_dims,
    quadratic_dual_dims_by_fractions,
    quadratic_relations_by_fractions,
    random_pair,
    s2_model,
    spec_and_random_presentations,
)


def presentation_for(form, w2, p1):
    N = new_four_manifold(form)
    b = bundle_from_classes(N, w2, p1)
    return N, b, quadratic_presentation(cohomology_ring(N, b))


def square_class(r):
    """The squarefree integer whose quotient by ``r`` is a rational square."""
    r = Fraction(r)
    n = r.numerator * r.denominator
    k = 2
    while k * k <= abs(n):
        while n % (k * k) == 0:
            n //= k * k
        k += 1
    return n


D2_TRIVIAL = ([[0, 1], [1, 0]], [0, 0], 0)
D1 = ([[1]], [1], 5)
D3 = ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9)
DIAG4_P1_0 = ([[int(i == j) for j in range(4)] for i in range(4)], [1, 1, 1, 1], 0)
NEGATIVE_D3 = ([[-int(i == j) for j in range(3)] for i in range(3)], [1, 1, 1], 1)


def rank1_ring(products):
    """A hand-built rank-1 ring on the basis ``1, x1, t, t*x1, y, top`` whose
    only nonzero products are these, each stored both ways round."""
    degrees = {"1": 0, "x1": 2, "t": 2, "t*x1": 4, "y": 4, "top": 6}
    table = {}
    for (a, b), value in products.items():
        table[a, b] = table[b, a] = value
    return SixManifoldRing(1, tuple(degrees), degrees, table)


class TestQuadraticPresentation:
    def test_d2_counts(self):
        _, _, p = presentation_for(*D2_TRIVIAL)
        assert p.generators == 3
        assert p.relation_count == 6 - 3
        assert hilbert_series(p, 6).integer_coefficients() == (1, 3, 3, 1, 0, 0, 0)

    def test_d1_counts(self):
        _, _, p = presentation_for(*D1)
        assert p.generators == 2
        assert p.relation_count == 1
        assert hilbert_series(p, 4).integer_coefficients() == (1, 2, 2, 1, 0)

    def test_d0_rejected(self):
        N = new_four_manifold([])
        for p1 in (0, 4):
            ring = cohomology_ring(N, bundle_from_classes(N, [], p1))
            with pytest.raises(NotQuadratic):
                quadratic_presentation(ring)

    @pytest.mark.parametrize(
        "products, message",
        [
            # x1 x1 = 0 and t t = t*x1: no product of degree-2 classes reaches y
            (
                {
                    ("x1", "t"): {"t*x1": 1},
                    ("t", "t"): {"t*x1": 1},
                    ("t", "y"): {"top": 1},
                },
                "does not surject onto H\\^4",
            ),
            # the products span H^4, but none of them times H^2 reaches top
            (
                {("x1", "x1"): {"y": 1}, ("x1", "t"): {"t*x1": 1}},
                "misses the top class",
            ),
        ],
        ids=["misses_y", "misses_top"],
    )
    def test_structural_failures_raise(self, products, message):
        with pytest.raises(NotQuadratic, match=message):
            quadratic_presentation(rank1_ring(products))

    def test_quadratic_algebra_dims_vs_betti_for_koszul_input(self):
        # in the Koszul range the abstract quadratic algebra IS the cohomology
        _, _, p = presentation_for(*D2_TRIVIAL)
        assert quadratic_algebra_dims(p, 6) == [1, 3, 3, 1, 0, 0, 0]

    def test_quadratic_algebra_dims_differ_for_d1(self):
        # the d=1 quadratic algebra does not truncate; the honest Betti
        # series is what hilbert_series reports for ring presentations
        _, _, p = presentation_for(*D1)
        assert quadratic_algebra_dims(p, 5) == [1, 2, 2, 2, 2, 2]


class TestKoszulDual:
    def test_d2_series(self):
        _, _, p = presentation_for(*D2_TRIVIAL)
        assert koszul_dual_series(p, 4).integer_coefficients() == (1, 3, 6, 10, 15)

    def test_d3_series(self):
        _, _, p = presentation_for(*D3)
        assert koszul_dual_series(p, 4).integer_coefficients() == (1, 4, 12, 33, 88)

    def test_d1_checked_raises(self):
        _, _, p = presentation_for(*D1)
        with pytest.raises(KoszulInconsistency):
            koszul_dual_series(p, 6)

    def test_d1_naive_series(self):
        _, _, p = presentation_for(*D1)
        naive = koszul_dual_series(p, 7, check=False)
        assert naive.integer_coefficients() == (1, 2, 2, 1, 0, 0, 1, 2)

    def test_direct_dual_dims_match_reciprocal_for_koszul_input(self):
        _, _, p = presentation_for(*D2_TRIVIAL)
        assert quadratic_dual_dims(p, 6) == [1, 3, 6, 10, 15, 21, 28]


class TestLieDims:
    def test_d2(self):
        _, _, p = presentation_for(*D2_TRIVIAL)
        assert lie_dims(p, 8).dims == (3, 3, 0, 0, 0, 0, 0, 0)

    def test_d3(self):
        _, _, p = presentation_for(*D3)
        assert lie_dims(p, 3).dims == (4, 6, 5)

    def test_d1_requires_force(self):
        _, _, p = presentation_for(*D1)
        with pytest.raises(KoszulInconsistency):
            lie_dims(p, 6)

    def test_d1_forced_fails_with_negative_dimension(self):
        _, _, p = presentation_for(*D1)
        with pytest.raises(NegativeLieDimension):
            pbw_invert(koszul_dual_series(p, 6, check=False))

    def test_every_rank_matches_newton(self):
        """At every rank, the ranks read off ``H(-t)`` are what Newton's
        identity reads off the expanded dual series: ``lie_dims`` at d >= 2,
        and the d = 1 refusal with its message.  The ranks depend only on d
        and each cutoff's are a prefix of the next, so cutoff 150 covers the
        lower ones; cutoffs 0-3 add the runs where the direct dual check
        stops short of weight 3."""
        for d in range(1, MAX_RANK + 1):
            N = FourManifold(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 1)
            p = quadratic_presentation(cohomology_ring(N, bundle_from_classes(N, [0] * d, 4)))
            naive = koszul_dual_series(p, 150, check=False)
            try:
                expected = pbw_invert_by_newton(naive)
            except NegativeLieDimension as exc:
                assert d == 1
                with pytest.raises(NegativeLieDimension) as info:
                    rational._koszul_ranks(p, 150)
                assert str(info.value) == str(exc)
                continue
            assert lie_dims(p, 150) == expected, d
            for cutoff in range(4):
                assert lie_dims(p, cutoff) == expected.truncate(cutoff), d

    @pytest.mark.parametrize(
        "degrees", [[1, 1], [2], [1, 2, 2, 5], {3: 4, 4: 1}], ids=str
    )
    def test_free_graded_lie_matches_newton(self, degrees):
        den = [1] + [0] * 40
        for deg, count in Counter(degrees).items():
            den[deg] -= count
        tensor = TruncatedSeries(tuple(_expand((1,), den, 40)))
        assert free_graded_lie_dims(degrees, 40) == pbw_invert_by_newton(tensor)


class TestRanks:
    def test_d1_ranks(self):
        N = new_four_manifold([[1]])
        b = bundle_from_classes(N, [1], 5)
        ranks = ranks_from_decomposition(loop_factors(N, b, 6), 6)
        assert ranks.dims == (2, 1, 0, 1, 0, 0)

    def test_d0_ranks(self):
        N = new_four_manifold([])
        b = bundle_from_classes(N, [], 60)
        ranks = ranks_from_decomposition(loop_factors(N, b, 8), 8)
        assert ranks.dims == (1, 0, 0, 0, 0, 1, 0, 0)

    def test_cutoff_one_keeps_the_circle(self):
        from loopsix.cli import load_manifold_spec

        N, b, _ = load_manifold_spec(INPUTS / "d1.json")
        assert ranks_from_decomposition(loop_factors(N, b, 1), 1).dims == (2,)

    def test_truncation_guard(self):
        N = new_four_manifold([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        b = bundle_from_classes(N, [1, 0, 0], 9)
        factors = loop_factors(N, b, 4)
        with pytest.raises(Exception):
            ranks_from_decomposition(factors, 6)

    def test_free_graded_lie_examples(self):
        assert free_graded_lie_dims([1, 1], 4).dims == (2, 3, 2, 3)
        assert free_graded_lie_dims([2], 4).dims == (0, 1, 0, 0)
        assert free_graded_lie_dims([1], 4).dims == (1, 1, 0, 0)

    @pytest.mark.parametrize(
        "degrees, cutoff", [({3: -1}, 2), ({2: -1}, 5)], ids=["past_cutoff", "pbw"]
    )
    def test_free_graded_lie_refuses_negative_counts(self, degrees, cutoff):
        # refused as input, before PBW inversion could meet a negative dimension
        with pytest.raises(InputError, match="^generator counts must be nonnegative$"):
            free_graded_lie_dims(degrees, cutoff)

    def test_free_graded_lie_matches_bracket_oracle(self):
        assert free_graded_lie_dims([1, 1], 6).dims == tuple(
            graded_free_lie_dims_oracle(2, 6)
        )
        assert free_graded_lie_dims([1, 1, 1], 5).dims == tuple(
            graded_free_lie_dims_oracle(3, 5)
        )

    def test_free_graded_lie_matches_hilton_milnor_reading(self):
        # rational reading of Loop(S^2 v S^2) degree by degree through 10
        from loopsix.homotopy import hilton_milnor

        factors = hilton_milnor({2: 2}, 10)
        assert ranks_from_decomposition(factors, 10) == free_graded_lie_dims(
            [1, 1], 10
        )

    @given(
        st.lists(st.integers(2, 6), min_size=1, max_size=4),
        st.sets(st.integers(2, 8), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_list_and_mapping_forms_agree(self, dims, zero_keys):
        """A multiset given as a list, or as a mapping that also holds keys
        of count zero, gives the same Hilton-Milnor expansion and the same
        free graded Lie algebra."""
        mapping = {dim: dims.count(dim) for dim in set(dims) | zero_keys}
        assert hilton_milnor(dims, 8) == hilton_milnor(mapping, 8)
        assert free_graded_lie_dims(dims, 8) == free_graded_lie_dims(mapping, 8)


class TestTwoPathAgreement:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_koszul_equals_decomposition(self, d):
        rng = random.Random(1000 + d)
        N, b = random_pair(rng, d)
        p = quadratic_presentation(cohomology_ring(N, b))
        assert lie_dims(p, 8) == ranks_from_decomposition(
            loop_factors(N, b, 8), 8
        )

    def test_d1_series_mismatch_regression(self):
        N, b, p = presentation_for(*D1)
        naive = koszul_dual_series(p, 6, check=False)
        actual = loop_homology_series(decompose(N, b), 6)
        assert [naive[n] for n in range(3)] == [actual[n] for n in range(3)]
        assert (naive[3], actual[3]) == (1, 2)


class TestCdga:
    def test_s2_model(self):
        assert cdga_cohomology(s2_model(), 6) == [1, 0, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize("k", [0, 1, -1, Fraction(-5, 4), 7])
    def test_d1_model_betti_independent_of_parameter(self, k):
        assert cdga_cohomology(d1_model(k), 6) == [1, 0, 2, 0, 2, 0, 1]

    def test_d1_model_parameter(self):
        N = new_four_manifold([[1]])
        b = bundle_from_classes(N, [1], 5)
        assert d1_model_parameter(b) == Fraction(-5, 4)

    @pytest.mark.parametrize(
        "q, p1",
        [(1, 5), (1, -3), (1, 13)]
        + [
            pytest.param(
                -1,
                p1,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="d1_model_parameter gives -p1/4, not -q*p1/4 (ROADMAP item 5)",
                ),
            )
            for p1 in (3, -1, 7)
        ],
    )
    def test_d1_model_has_the_rings_discriminant(self, q, p1):
        """The model's degree-4 relation ``d(b)`` and the ring's one quadratic
        relation have the same discriminant up to rational squares, as
        presentations of isomorphic rings over Q must."""
        N = new_four_manifold([[q]])
        b = bundle_from_classes(N, [1], p1)
        (relation,) = quadratic_relations_by_fractions(cohomology_ring(N, b))
        c_xx, c_xt, c_tt = relation
        db = d1_model(d1_model_parameter(b)).d_of("b")
        # generators c, a, b, x: the monomials c^2, c a and a^2
        monomials = ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
        c_cc, c_ca, c_aa = (db.get(m, 0) for m in monomials)
        assert square_class(c_xt**2 - 4 * c_xx * c_tt) == square_class(
            c_ca**2 - 4 * c_cc * c_aa
        )

    def test_polynomial_ring_truncated_output(self):
        model = make_sullivan_model([("a", 2)], {})
        assert cdga_cohomology(model, 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_square_zero_enforced(self):
        bad = make_sullivan_model(
            [("a", 2), ("b", 3), ("c", 4)],
            {"b": {(2, 0, 0): 1}, "c": {(1, 1, 0): 1}},
        )
        with pytest.raises(DifferentialNotSquareZero):
            cdga_cohomology(bad, 6)

    def test_degree_raising_enforced(self):
        with pytest.raises(Exception):
            make_sullivan_model([("a", 2), ("b", 3)], {"b": {(1, 0): 1}})

    def test_odd_square_terms_rejected(self):
        # u^2 = 0 for odd u, so d(x) = a*u^2 is zero and may not be written
        with pytest.raises(InputError, match="odd generator squared"):
            make_sullivan_model(
                [("a", 2), ("u", 3), ("x", 7)], {"x": {(1, 2, 0): 1}}
            )

    def test_exterior_generators_square_to_zero(self):
        model = make_sullivan_model([("u", 3)], {})
        assert cdga_cohomology(model, 7) == [1, 0, 0, 1, 0, 0, 0, 0]

    def test_odd_generators_carry_koszul_signs(self):
        # the Heisenberg 3-manifold times a 2-torus: Lambda(x, y, z, u, w) in
        # degree 1 with dw = xy + xz + xu; d of a product moves dw past odd
        # generators, with a sign, and meets odd squares such as x * xy
        model = make_sullivan_model(
            [(name, 1) for name in "xyzuw"],
            {"w": {(1, 1, 0, 0, 0): 1, (1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0): 1}},
        )
        assert cdga_cohomology(model, 5) == [1, 4, 7, 7, 4, 1]

    @pytest.mark.parametrize(
        "generators, differential, message",
        [
            ([("a", 2.7)], {}, "generators must be"),
            ([(5, 2)], {}, "generators must be"),
            ([("a", True)], {}, "generators must be"),
            ([("a", 2), ("b", 3)], {"b": {(2.0, False): 1}}, "exponents must be"),
            ([("a", 2), ("b", 3)], {"b": {(2, 0): 1.0}}, "coefficients must be"),
            ([("a", 2), ("b", 3)], {"b": {(2, 0): True}}, "coefficients must be"),
        ],
        ids=["float-degree", "int-name", "bool-degree", "inexact-exponents",
             "float-coefficient", "bool-coefficient"],
    )
    def test_model_input_is_not_coerced(self, generators, differential, message):
        with pytest.raises(InputError, match=message):
            make_sullivan_model(generators, differential)

    def test_square_zero_by_cancellation(self):
        """d(dw) = d(bp - aq) = a^2 b - a ab vanishes only because its two
        terms cancel, so the check must add their coefficients."""
        model = make_sullivan_model(
            [("a", 2), ("b", 2), ("p", 3), ("q", 3), ("w", 4)],
            {
                "p": {(2, 0, 0, 0, 0): 1},
                "q": {(1, 1, 0, 0, 0): 1},
                "w": {(0, 1, 1, 0, 0): 1, (1, 0, 0, 1, 0): -1},
            },
        )
        rational.check_square_zero(model)
        assert cdga_cohomology(model, 8) == [1, 0, 2, 0, 1, 0, 2, 0, 1]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_d_matches_word_reference(self, data):
        """On models whose differentials carry odd generators, d of every
        monomial through degree 7 equals the word-level Leibniz rule of
        ``d_monomial_by_words``, sign and coefficient."""
        degrees = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
        plain = make_sullivan_model([(f"g{i}", dg) for i, dg in enumerate(degrees)], {})
        coefficients = st.integers(-3, 3).filter(bool)
        differential = {}
        for i, dg in enumerate(degrees):
            terms = monomial_basis_by_recursion(plain, dg + 1)
            if terms:
                chosen = data.draw(st.lists(st.sampled_from(terms), max_size=3, unique=True))
                differential[f"g{i}"] = {m: data.draw(coefficients) for m in chosen}
        assume(any(
            degrees[j] % 2 and m[j] for poly in differential.values() for m in poly
            for j in range(len(degrees))
        ))
        model = make_sullivan_model(plain.generators, differential)
        for degree in range(8):
            for mono in monomial_basis_by_recursion(model, degree):
                assert rational._d_monomial(mono, model) == d_monomial_by_words(model, mono)


class TestMonomialWalk:
    """One iterative walk gives every degree's Sullivan monomials."""

    @given(st.lists(st.integers(1, 6), max_size=7), st.integers(0, 14))
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_walk(self, degrees, degree):
        model = make_sullivan_model(
            [(f"g{i}", deg) for i, deg in enumerate(degrees)], {}
        )
        expected = monomial_basis_by_recursion(model, degree)
        assert rational._monomial_bases(model, degree)[degree] == expected

    def test_many_generators_need_no_recursion(self):
        model = make_sullivan_model([(f"u{i}", 7) for i in range(1200)], {})
        start = time.perf_counter()
        assert cdga_cohomology(model, 6) == [1, 0, 0, 0, 0, 0, 0]
        assert time.perf_counter() - start < 1.0


class TestCoformality:
    def test_d1_not_coformal(self):
        N = new_four_manifold([[1]])
        b = bundle_from_classes(N, [1], 5)
        report = coformality_check(N, b)
        assert report.status == "not_coformal"
        assert report.witness == "dx=c^3"

    def test_d1_verdict_builds_no_evidence(self, monkeypatch):
        """At d = 1 the check builds the presentation and nothing else: the
        naive dual, the loop homology and the model are other commands'."""

        def unexpected(*args, **kwargs):
            raise AssertionError("called at d = 1")

        for owner, name in [
            (rational, "koszul_dual_series"),
            (rational, "d1_model"),
            (rational, "cdga_cohomology"),
            (homotopy, "decompose"),
            (homotopy, "loop_homology_series"),
        ]:
            monkeypatch.setattr(owner, name, unexpected)
        N = new_four_manifold([[-1]])
        report = coformality_check(N, bundle_from_classes(N, [1], 3))
        assert report == CoformalityReport("not_coformal", "dx=c^3")

    @pytest.mark.parametrize("d", [2, 5])
    def test_higher_rank_coformal(self, d):
        rng = random.Random(d)
        N, b = random_pair(rng, d)
        assert coformality_check(N, b).status == "coformal"


class TestEllipticity:
    def test_flag(self):
        for d, expected in ((0, True), (1, True), (2, True), (3, False), (5, False)):
            rng = random.Random(50 + d)
            N, b = random_pair(rng, d)
            assert is_rationally_elliptic(N, b) is expected

    def test_elliptic_ranks_vanish_eventually(self):
        rng = random.Random(3)
        for d in (1, 2):
            N, b = random_pair(rng, d)
            ranks = ranks_from_decomposition(loop_factors(N, b, 12), 12)
            assert sum(ranks.dims[4:]) == 0

    def test_hyperbolic_growth_witness(self):
        rng = random.Random(4)
        N, b = random_pair(rng, 3)
        ranks = ranks_from_decomposition(loop_factors(N, b, 12), 12)
        assert sum(ranks.dims) > 12


def _input_presentations():
    from loopsix.cli import load_manifold_spec

    out = []
    for path in sorted(INPUTS.glob("*.json")):
        N, b, _ = load_manifold_spec(path)
        if N.d >= 1:
            presentation = quadratic_presentation(cohomology_ring(N, b))
            out.append(pytest.param(presentation, id=path.stem))
    return out


def _generated_presentations():
    rng = random.Random(3)
    return [
        pytest.param(
            quadratic_presentation(cohomology_ring(*random_pair(rng, d))),
            id=f"gen_d{d}",
        )
        for d in range(1, 7)
    ]


def _alternated_betti(d):
    """The Koszul route's denominator H_M(-t) = 1 - (d+1)t + (d+1)t^2 - t^3."""
    return [1, -(d + 1), d + 1, -1]


def _identity_gap(d, cutoff):
    """``num * H_M(-t) - den`` for the decomposition's quotient ``num / den``
    at rank ``d``, trailing zeros stripped: empty when the two routes'
    series, ``num / den`` and ``1 / H_M(-t)``, are one rational function."""

    def stripped(poly):
        poly = list(poly)
        while poly and not poly[-1]:
            poly.pop()
        return poly

    num, den = map(stripped, homotopy._homology(homotopy._decompose_rank(d), cutoff))
    assert max(len(num), len(den)) <= 8  # degree at most 7
    gap = [0] * (len(num) + 3) + [0] * len(den)
    for i, x in enumerate(num):
        for j, y in enumerate(_alternated_betti(d)):
            gap[i + j] += x * y
    for k, y in enumerate(den):
        gap[k] -= y
    return stripped(gap)


class TestRoutesAgreeAsRationalFunctions:
    """The decomposition's loop-homology series equals 1 / H_M(-t) as a
    rational function, hence in every degree, at every rank d >= 2; at d = 1
    the cross-multiplied numerators differ by t^3 - t^5.  The quotient is
    exact from cutoff 12 on."""

    @pytest.mark.parametrize("cutoff", [12, 20, 40])
    def test_every_rank(self, cutoff):
        for d in range(2, MAX_RANK + 1):
            assert _identity_gap(d, cutoff) == [], d
        assert _identity_gap(1, cutoff) == [0, 0, 0, 1, 0, -1]

    @pytest.mark.parametrize("p", _input_presentations() + _generated_presentations())
    def test_koszul_route_reads_this_denominator(self, p):
        hs = hilbert_series(p, 3).coeffs
        assert [-c if n % 2 else c for n, c in enumerate(hs)] == _alternated_betti(
            p.ring.d
        )


def test_degrees_past_the_cutoff_cost_nothing():
    """A sphere or a generator far past the cutoff is skipped, not stored:
    both calls return under a 1 GiB address-space cap."""
    pytest.importorskip("resource")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "from loopsix.homotopy import Loop, Sphere, loop_homology_series\n"
        "from loopsix.rational import free_graded_lie_dims\n"
        "print(loop_homology_series(Loop(Sphere(10**9)), 5).coeffs)\n"
        "print(free_graded_lie_dims({10**9: 1}, 4).dims)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(1, 0, 0, 0, 0, 0)", "(0, 0, 0, 0)"]


class TestIntegerDualKernel:
    """How many weights the integer quadratic-dual check reaches."""

    def test_weights_checked_per_rank(self):
        _, _, p2 = presentation_for(*D2_TRIVIAL)
        _, _, p3 = presentation_for(*D3)
        assert len(quadratic_dual_dims(p2, 6)) - 1 == 6
        assert len(quadratic_dual_dims(p3, 6)) - 1 == 4


#: Rows that ``quadratic_dual_dims(p, 6)`` hands to ``linalg._forward`` on
#: the desk specs: the ``dim A_{w-2}`` diagonal rows of each weight, which
#: sum to 35 and 17.  The anticommutator rows are never built; all
#: ``dim A_{w-2} * g`` rows would sum to 105 and 68.
DUAL_CHECK_ROWS = [
    pytest.param(DESK_D2_0, [1, 3, 6, 10, 15], id="desk_d2_0"),
    pytest.param(DESK_D3_0, [1, 4, 12], id="desk_d3_0"),
]


class TestDualCheckWork:
    """The direct dual check stays cheap."""

    @pytest.mark.parametrize("spec, rows", DUAL_CHECK_ROWS)
    def test_rows_reaching_linalg(self, monkeypatch, spec, rows):
        _, _, p = presentation_for(*spec)
        counted = []
        original = linalg._forward

        def counting(matrix):
            counted.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(linalg, "_forward", counting)
        quadratic_dual_dims(p, 6)
        assert counted == rows


#: Quotient maps that ``_dual_quotients(p, 6)`` builds, by rank: one for
#: each weight whose columns number at most
#: :data:`~loopsix.rational.DUAL_MAP_COLUMNS`.
QUOTIENT_MAPS = {2: 4, 3: 2, 4: 1, 5: 1, 6: 1}


def _random_presentation(d):
    return quadratic_presentation(cohomology_ring(*random_pair(random.Random(d), d)))


class TestDualCheckReach:
    """One width rule decides how far the direct dual check runs."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_wrong_relations_stay_bounded(self, monkeypatch, d):
        """With no diagonal relation the dual grows past the series at weight
        2; the check still raises there, and no quotient map is wider than
        the rule allows, at any cutoff."""
        p = _random_presentation(d)
        widths = []
        original = rational.quotient_map

        def measured(rows, columns, unit):
            widths.append(len(columns))
            return original(rows, columns, unit)

        monkeypatch.setattr(rational, "_diagonal_dual_relation", lambda ring: [])
        monkeypatch.setattr(rational, "quotient_map", measured)
        with pytest.raises(KoszulInconsistency, match="mismatch at weight 2:"):
            koszul_dual_series(p, 150)
        assert widths and max(widths) <= rational.DUAL_MAP_COLUMNS

    @pytest.mark.parametrize(
        "d, maps, ranked_rows, dims",
        [(2, 4, 15, [1, 3, 6, 10, 15, 21, 28]), (3, 2, 12, [1, 4, 12, 33, 88])],
    )
    def test_large_cutoff_stops_at_the_first_wide_weight(
        self, monkeypatch, d, maps, ranked_rows, dims
    ):
        """At cutoff 150, d = 2 maps weights 2-5 and ranks weight 6 (its
        ``dim A_4`` rows), and d = 3 maps weights 2-3 and ranks weight 4."""
        p = _random_presentation(d)
        calls = {"quotient_map": 0, "rank": []}
        quotient_map, rank_rows = rational.quotient_map, rational.rank

        def counted_map(rows, columns, unit):
            calls["quotient_map"] += 1
            return quotient_map(rows, columns, unit)

        def counted_rank(rows):
            calls["rank"].append(len(rows))
            return rank_rows(rows)

        monkeypatch.setattr(rational, "quotient_map", counted_map)
        monkeypatch.setattr(rational, "rank", counted_rank)
        koszul_dual_series(p, 150)
        assert calls == {"quotient_map": maps, "rank": [ranked_rows]}
        assert quadratic_dual_dims(p, 150) == dims

    def test_max_weight_past_the_rule(self):
        assert quadratic_dual_dims(_random_presentation(2), 12) == [1, 3, 6, 10, 15, 21, 28]
        assert quadratic_dual_dims(_random_presentation(1), 12) == [1] + [2] * 12

    def test_tracer_binds_max_weight(self):
        """The benchmark's tracer reads the requested weight by this name."""
        assert "max_weight" in inspect.signature(quadratic_dual_dims).parameters


class TestOrthogonalDualCheck:
    """A presentation runs the dual check on an orthogonal basis of
    H^2(M; Q); the dimensions do not depend on the basis."""

    # The committed specs and generated ring presentations of rank 1 to 6,
    # then desk, special and random ones.  The dense Fraction reference is
    # slow beyond rank 8, and from rank 7 on the width rule checks only
    # weights that hold by construction.
    @pytest.mark.parametrize(
        "p",
        _input_presentations()
        + _generated_presentations()
        + spec_and_random_presentations(8)
        + [
            pytest.param(
                quadratic_presentation(
                    cohomology_ring(*random_pair(random.Random(100 + d), d))
                ),
                id=f"random_d{d}_seed{100 + d}",
            )
            for d in range(2, 7)
        ]
        + [
            # the diagonal's sigma-sigma coefficient p1 is 0
            pytest.param(presentation_for(*DIAG4_P1_0)[2], id="diag4_p1_0"),
            # the sigma-type scales of the quotient maps exceed 1
            pytest.param(
                quadratic_presentation(cohomology_ring(*random_pair(random.Random(2), 2))),
                id="random_d2_seed2",
            ),
            pytest.param(presentation_for(*NEGATIVE_D3)[2], id="negative_d3"),
        ],
    )
    def test_dims_match_fraction_reference(self, p):
        assert quadratic_dual_dims(p, 6) == quadratic_dual_dims_by_fractions(p, 6)

    @pytest.mark.parametrize(
        "spec",
        [DESK_D2_0, DESK_D3_0, *SPECIAL_SPECS.values()],
        ids=["desk_d2_0", "desk_d3_0", *SPECIAL_SPECS],
    )
    def test_basis_products(self, spec):
        N, b, _ = presentation_for(*spec)
        ring = cohomology_ring(N, b)
        es, squares, s = rational._orthogonal_basis(ring)
        assert len(es) == len(squares) == N.d
        for i, (e, q) in enumerate(zip(es, squares)):
            assert all(type(x) is int for x in e.values())
            assert all(ring.multiply(e, f) == {} for f in es[i + 1 :])
            assert q != 0 and ring.multiply(e, e) == {"y": q}
        assert ring.multiply(s, s) == ({"y": b.p1} if b.p1 else {})
        # the e_i s and y form a basis of H^4
        deg4 = {label: c for c, label in enumerate(ring.basis_of_degree(4))}
        products = [ring.multiply(e, s) for e in es] + [{"y": 1}]
        assert rank([{deg4[k]: x for k, x in v.items()} for v in products]) == N.d + 1

    @pytest.mark.parametrize(
        "p",
        _input_presentations()
        + _generated_presentations()
        + spec_and_random_presentations(16),
    )
    def test_dual_relation_space_matches_reference(self, p):
        """R_perp over the orthogonal basis b_k spans the forms ``(b_k, b_l)
        -> lambda(b_k b_l)``, ``lambda`` running over the coordinates of
        H^4, with the products read from the ring's multiplication."""
        ring = p.ring
        es, _, s = rational._orthogonal_basis(ring)
        basis = es + [s]
        g = p.generators
        labels = ring.basis_of_degree(2)
        assert rank([{c: b[x] for c, x in enumerate(labels) if x in b} for b in basis]) == g
        ours = []
        for relation in _dual_relations(ring):
            row = {}
            for k, l, c in relation:
                row[k * g + l] = row.get(k * g + l, 0) + c
            ours.append({col: x for col, x in row.items() if x})
        products = [ring.multiply(u, v) for u in basis for v in basis]
        ref = [
            {col: uv[h] for col, uv in enumerate(products) if uv.get(h)}
            for h in ring.basis_of_degree(4)
        ]
        assert len(ours) == len(ref) == g
        assert rank(ours) == rank(ref) == rank(ours + ref) == g

    def test_dual_relations_built_once(self, monkeypatch):
        _, _, p = presentation_for(*DESK_D2_0)
        calls = []
        original = rational._diagonal_dual_relation

        def counted(ring):
            calls.append(ring)
            return original(ring)

        monkeypatch.setattr(rational, "_diagonal_dual_relation", counted)
        assert quadratic_dual_dims(p, 6) == [1, 3, 6, 10, 15, 21, 28]
        assert calls == [p.ring]

    def test_over_budget_builds_no_orthogonal_basis(self, monkeypatch):
        """Weights <= 2 hold by construction, so the check starts only where
        weight 3 fits the budget: from rank 7 on, or below weight 3, it
        builds nothing."""

        def unreachable(ring):
            raise AssertionError("orthogonal basis built for a weight over budget")

        monkeypatch.setattr(rational, "_diagonal_dual_relation", unreachable)
        for d, max_weight in [(17, 6), (16, 6), (10, 6), (7, 6), (2, 2)]:
            pair = random_pair(random.Random(d), d)
            p = quadratic_presentation(cohomology_ring(*pair))
            assert quadratic_dual_dims(p, max_weight) == [1, d + 1]

    @pytest.mark.parametrize(
        "spec, calls",
        [(DESK_D2_0, 0), (DESK_D3_0, 1)],
        ids=["desk_d2_0", "desk_d3_0"],
    )
    def test_eliminations_exact(self, monkeypatch, spec, calls):
        _, _, p = presentation_for(*spec)
        counted = []
        original = linalg._eliminate

        def counting(row, pivot_row, col):
            counted.append(col)
            return original(row, pivot_row, col)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        quadratic_dual_dims(p, 6)
        assert len(counted) == calls

    @pytest.mark.parametrize("p", spec_and_random_presentations(6))
    def test_quotient_maps_have_the_rows_as_kernel(self, p):
        """Each weight's quotient map sends every row of ``A_{w-2} (x)
        R_perp`` to zero, the anticommutator rows included, and has rank
        ``ncols - rank(rows)``, so its kernel is exactly the row space."""
        checked = 0
        for rows, image, dim, _ in _dual_weights(p):
            if image is None:
                continue
            assert rank(rows) + rank(image) == len(image)
            assert rank(image) == dim
            for row in rows:
                mapped = {}
                for c, x in row.items():
                    for q, y in image[c].items():
                        mapped[q] = mapped.get(q, 0) + x * y
                assert not any(mapped.values())
            checked += 1
        assert checked == QUOTIENT_MAPS[p.ring.d]

    def test_map_entries_do_not_compound(self):
        """On this presentation the sigma-type scales exceed 1 (the diagonal
        relation is ``5 eps_1 eps_1 + 5 eps_2 eps_2 + sigma sigma``).  Every
        coordinate scale of a map is a multiple of their lcm, not that lcm
        times its own, so the largest entry stays at 25 through weight 5;
        multiplying each map by the lcm would grow it as 5, 125, 625,
        15,625."""
        p = quadratic_presentation(cohomology_ring(*random_pair(random.Random(2), 2)))
        largest = [
            max(abs(x) for column in image for x in column.values())
            for image, _ in rational._dual_quotients(p, 6)
            if image is not None
        ]
        assert len(largest) == QUOTIENT_MAPS[2] and max(largest) <= 25

    @pytest.mark.parametrize("p", spec_and_random_presentations(6))
    def test_no_sigma_column_is_a_pivot(self, p):
        """Right multiplication by sigma, the last letter, is injective: at
        every weight checked, the pivots of all of ``A_{w-2} (x) R_perp``
        lie left of the sigma block, and the dimension is what they leave."""
        sigma = p.ring.d
        weights = 0
        for rows, _, dim, cur_dim in _dual_weights(p):
            _, pivots = linalg.rref(rows)
            assert pivots[-1] < sigma * cur_dim
            assert cur_dim * p.generators - len(pivots) == dim
            weights += 1
        assert weights == len(quadratic_dual_dims(p, 6)) - 2


def _dual_relations(ring):
    """All of R_perp over the orthogonal basis, as ``(letter, letter,
    coefficient)`` triples: the anticommutators ``eps_i sigma + sigma
    eps_i``, which the library substitutes, and its diagonal relation."""
    d = ring.d
    anticommutators = [[(i, d, 1), (d, i, 1)] for i in range(d)]
    return anticommutators + [rational._diagonal_dual_relation(ring)]


def _dual_weights(p):
    """``_dual_quotients(p, 6)`` weight by weight, as ``(rows, image, dim,
    dim A_{w-1})``: ``rows`` are all of ``A_{w-2} (x) R_perp``, built from
    every relation of :func:`_dual_relations` and the previous map."""
    relations = _dual_relations(p.ring)
    prev_dim, cur_dim = 1, p.generators
    previous = [{i: 1} for i in range(cur_dim)]
    for image, dim in rational._dual_quotients(p, 6):
        rows = []
        for b in range(prev_dim):
            for relation in relations:
                row = {}
                for i, j, c in relation:
                    for u, x in previous[i * prev_dim + b].items():
                        col = j * cur_dim + u
                        row[col] = row.get(col, 0) + c * x
                rows.append({col: x for col, x in row.items() if x})
        yield rows, image, dim, cur_dim
        prev_dim, cur_dim, previous = cur_dim, dim, image


class TestIntegerPath:
    """The Koszul route stays on ``int`` from the ring to the dual check."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_structure_constants_and_relations_are_int(self, monkeypatch, d):
        """No Fraction is built from the ring to the dual check, and every
        row that reaches ``linalg``, the presentation's included, is int."""
        N, b = random_pair(random.Random(d), d)
        eliminated = []
        original = linalg._forward

        def recorded(rows):
            eliminated.append(rows)
            return original(rows)

        def no_fraction(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built on the Koszul route")

        monkeypatch.setattr(linalg, "_forward", recorded)
        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        ring = cohomology_ring(N, b)
        p = quadratic_presentation(ring)
        presentation_calls = len(eliminated)
        quadratic_dual_dims(p, 6)
        monkeypatch.undo()
        for x in ring.basis:
            for y in ring.basis:
                assert all(type(c) is int for c in ring.product(x, y).values())
        assert presentation_calls == 1
        assert all(
            type(c) is int for rows in eliminated for row in rows for c in row.values()
        )

    def test_presentation_eliminates_once(self, monkeypatch):
        """One forward elimination of the Sym^2 -> H^4 matrix, and no
        back-substitution."""
        ring = cohomology_ring(*random_pair(random.Random(3), 3))
        calls = {"_forward": 0, "rref": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counted(rows, name=name, original=original):
                calls[name] += 1
                return original(rows)

            monkeypatch.setattr(linalg, name, counted)
        quadratic_presentation(ring)
        assert calls == {"_forward": 1, "rref": 0}

    def test_presentation_memory_follows_the_nonzeros(self):
        # rank 64: 65 rows over 2,145 Sym^2 columns, 192 nonzeros; R is not stored
        d = 64
        N = new_four_manifold([[int(i == j) for j in range(d)] for i in range(d)])
        ring = cohomology_ring(N, bundle_from_classes(N, [1] * d, d))
        tracemalloc.start()
        try:
            p = quadratic_presentation(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.relation_count == (d + 1) * (d + 2) // 2 - (d + 1)
        assert peak <= 8 * 2**20


class TestEveryCheckFails:
    """Each run-time check on the Koszul route raises when its condition
    fails, reached through hand-built input or a patched route."""

    def test_late_disagreement_names_its_degree(self):
        """The routes are compared in every degree, not only through
        ``WITNESS_DEGREE``."""
        dims = (3, 3) + (0,) * 8
        wrong = GradedLieDims(dims[:9] + (1,))
        with pytest.raises(KoszulInconsistency, match="in degree 10: 0 vs 1$"):
            rational._coformal_report(GradedLieDims(dims), wrong)

    @pytest.mark.parametrize(
        "d, left",
        [pytest.param(d, "sigma", id=str(d)) for d in (2, 3, 4)]
        + [pytest.param(d, "eps_1", id=f"eps_1-{d}") for d in (2, 3, 4)],
    )
    def test_sigma_pivot_raises(self, monkeypatch, d, left):
        """With sigma sigma as the only diagonal relation, sigma sigma is
        zero in the dual, so right multiplication by sigma is not injective
        at weight 2.  The relation eps_1 sigma puts its pivot on the sigma
        block's first column, ``eps_1 (x) sigma``, which the check refuses
        too."""
        p = _random_presentation(d)
        monkeypatch.setattr(
            rational,
            "_diagonal_dual_relation",
            lambda ring: [({"sigma": ring.d, "eps_1": 0}[left], ring.d, 1)],
        )
        with pytest.raises(
            KoszulInconsistency,
            match="right multiplication by sigma is not injective at weight 2",
        ):
            quadratic_dual_dims(p, 3)

    def test_dual_series_has_no_negative_coefficient(self):
        """Why ``koszul_dual_series`` checks no sign: every ring's Betti
        numbers are (1, d + 1, d + 1, 1), and the reciprocal of their
        alternating series has no negative coefficient at any loaded rank."""
        for d in range(MAX_RANK + 1):
            assert min(_expand((1,), [1, -(d + 1), d + 1, -1], 150)) >= 0, d

    @pytest.mark.parametrize(
        "form",
        [((0,),), ((0, 0), (0, 0)), ((1, 0), (0, 0))],
        ids=["zero-rank-1", "zero-rank-2", "isotropic-after-a-pivot"],
    )
    def test_degenerate_form_is_invalid_input(self, form):
        """The record constructor does not validate; a degenerate form read
        from its ring has no orthogonal basis, which is invalid input."""
        N = FourManifold(form, 0)
        p = quadratic_presentation(cohomology_ring(N, bundle_from_classes(N, [0] * N.d, 4)))
        with pytest.raises(NotUnimodular, match="the form read from the ring is degenerate"):
            koszul_dual_series(p, 4)
