import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsix import linalg, rational
from loopsix.errors import InputError
from loopsix.homotopy import decompose, hilton_milnor, loop_factors, loop_homology_series
from loopsix.manifold import bundle_from_classes, cohomology_ring, new_four_manifold
from loopsix.linalg import rank
from loopsix.rational import (
    DifferentialNotSquareZero,
    _dual_relation_space,
    KoszulInconsistency,
    NotQuadratic,
    cdga_cohomology,
    coformality_check,
    d1_model,
    d1_model_parameter,
    free_graded_lie_dims,
    free_presentation,
    hilbert_series,
    is_rationally_elliptic,
    koszul_dual_series,
    lie_dims,
    make_sullivan_model,
    monomial_basis,
    presentation_from_relations,
    quadratic_algebra_dims,
    quadratic_dual_dims,
    quadratic_presentation,
    ranks_from_decomposition,
    s2_model,
)
from loopsix.series import NegativeLieDimension, pbw_invert

from conftest import (
    INPUTS,
    dual_relation_space_by_fractions,
    graded_free_lie_dims_oracle,
    monomial_basis_by_recursion,
    quadratic_dual_dims_by_fractions,
    random_pair,
    sparse,
)


def presentation_for(form, w2, p1):
    N = new_four_manifold(form)
    b = bundle_from_classes(N, w2, p1)
    return N, b, quadratic_presentation(cohomology_ring(N, b))


D2_TRIVIAL = ([[0, 1], [1, 0]], [0, 0], 0)
# Koszul hand-built algebras on two generators (relations over x^2, xy, y^2):
# two quadrics, a complete intersection; and (x + y)(x, y), monomial in x + y
TWO_QUADRICS = [[2, -1, 0], [2, -2, 2]]
X_PLUS_Y_TIMES_X_Y = [[1, 0, -1], [1, 1, 0]]
D1 = ([[1]], [1], 5)
D3 = ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9)


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

    @pytest.mark.parametrize("entry", [0.5, "1/2"])
    def test_hand_built_relations_take_exact_entries_only(self, entry):
        with pytest.raises(InputError):
            presentation_from_relations(1, [[entry]])

    def test_free_algebra_hilbert(self):
        p = free_presentation(2)
        assert hilbert_series(p, 5).integer_coefficients() == (1, 2, 3, 4, 5, 6)

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

    def test_sphere_algebra_dual_is_one_odd_generator(self):
        p = presentation_from_relations(1, [[1]])  # Q[x]/(x^2)
        assert koszul_dual_series(p, 6).integer_coefficients() == (1,) * 7

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

    @pytest.mark.parametrize(
        "relations, dims",
        [(TWO_QUADRICS, [1, 2, 3, 4, 5, 6]), (X_PLUS_Y_TIMES_X_Y, [1, 2, 3, 5, 8, 13])],
        ids=["two_quadrics", "x_plus_y"],
    )
    def test_koszul_hand_built_algebras_pass_the_check(self, relations, dims):
        """A monomial ``x_i x_j`` lifts to one tensor, not to twice the
        symmetric one: with off-diagonal coefficients doubled, the direct
        dual dimension at weight 3 was 5 and 4, and these Koszul algebras
        raised ``KoszulInconsistency``."""
        p = presentation_from_relations(2, relations)
        assert koszul_dual_series(p, 5).integer_coefficients() == tuple(dims)
        assert quadratic_dual_dims(p, 5) == dims


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


class TestMonomialWalk:
    """One iterative walk gives every degree's Sullivan monomials."""

    @given(st.lists(st.integers(1, 6), max_size=7), st.integers(-1, 14))
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_walk(self, degrees, degree):
        model = make_sullivan_model(
            [(f"g{i}", deg) for i, deg in enumerate(degrees)], {}
        )
        expected = monomial_basis_by_recursion(model, degree)
        assert monomial_basis(model, degree) == expected

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
        assert report.details["first_mismatch_degree"] == 3
        assert report.details["model_betti"] == [1, 0, 2, 0, 2, 0, 1]

    @pytest.mark.parametrize("d", [2, 5])
    def test_higher_rank_coformal(self, d):
        rng = random.Random(d)
        N, b = random_pair(rng, d)
        assert coformality_check(N, b, cutoff=6).status == "coformal"


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
        assert ranks.total() > 12


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


def _hand_built_presentations():
    half = Fraction(1, 2)
    return [
        pytest.param(free_presentation(1), id="free1"),
        pytest.param(free_presentation(3), id="free3"),
        pytest.param(presentation_from_relations(1, [[1]]), id="x2"),
        pytest.param(
            presentation_from_relations(2, [[1, 0, Fraction(-3, 4)], [0, 1, 0]]),
            id="fractional",
        ),
        pytest.param(
            presentation_from_relations(
                3, [[half, 1, 0, 0, 0, 2], [0, 0, 1, 0, half, 0]]
            ),
            id="two_relations",
        ),
        pytest.param(presentation_from_relations(2, TWO_QUADRICS), id="two_quadrics"),
        pytest.param(presentation_from_relations(2, X_PLUS_Y_TIMES_X_Y), id="x_plus_y"),
    ]


ALL_PRESENTATIONS = (
    _input_presentations() + _generated_presentations() + _hand_built_presentations()
)


class TestIntegerDualKernel:
    """The integer quadratic-dual check against the Fraction computation."""

    @pytest.mark.parametrize("p", ALL_PRESENTATIONS)
    def test_dims_match_fraction_reference(self, p):
        assert quadratic_dual_dims(p, 6) == quadratic_dual_dims_by_fractions(p, 6)

    @pytest.mark.parametrize("p", ALL_PRESENTATIONS)
    def test_dual_relation_space_matches_reference(self, p):
        ours = _dual_relation_space(p)
        ref = sparse(dual_relation_space_by_fractions(p))
        assert len(ours) == len(ref)
        assert rank(ours) == rank(ref) == rank(ours + ref)

    def test_weights_checked_per_rank(self):
        _, _, p2 = presentation_for(*D2_TRIVIAL)
        _, _, p3 = presentation_for(*D3)
        assert len(quadratic_dual_dims(p2, 6)) - 1 == 6
        assert len(quadratic_dual_dims(p3, 6)) - 1 == 4


#: The desk workload's ``desk d2 #0`` and ``desk d3 #0`` specs as (form,
#: w2, p1), the more elimination-heavy of its two pooled specs per rank,
#: with the most ``_eliminate`` calls allowed in ``quadratic_dual_dims(p,
#: 6)``.  Prefix-major columns (basis index times g plus last letter) take
#: 442 and 194 calls.
DESK_D2_0 = ([[5, 2], [2, 1]], [1, 1], 10)
DESK_D3_0 = ([[0, 0, 1], [0, 1, 1], [1, 1, 1]], [1, 0, 0], -12)
DUAL_CHECK_WORK = [
    pytest.param(DESK_D2_0, 200, id="desk_d2_0"),
    pytest.param(DESK_D3_0, 70, id="desk_d3_0"),
]


class TestDualCheckWork:
    """The direct dual check stays cheap without changing its answer."""

    @pytest.mark.parametrize("spec, most_calls", DUAL_CHECK_WORK)
    def test_eliminations_bounded(self, monkeypatch, spec, most_calls):
        _, _, p = presentation_for(*spec)
        calls = []
        original = linalg._eliminate

        def counted(row, pivot_row, col):
            calls.append(col)
            return original(row, pivot_row, col)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        quadratic_dual_dims(p, 6)
        assert 0 < len(calls) <= most_calls

    @pytest.mark.parametrize("spec", [DESK_D2_0, DESK_D3_0], ids=["desk_d2_0", "desk_d3_0"])
    def test_desk_dims_match_fraction_reference(self, spec):
        _, _, p = presentation_for(*spec)
        assert quadratic_dual_dims(p, 6) == quadratic_dual_dims_by_fractions(p, 6)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_dims_match_fraction_reference(self, d):
        p = quadratic_presentation(cohomology_ring(*random_pair(random.Random(100 + d), d)))
        assert quadratic_dual_dims(p, 6) == quadratic_dual_dims_by_fractions(p, 6)


#: Ring specs (form, w2, p1) beyond the committed ones: hyperbolic forms,
#: whose zero diagonal makes the orthogonal basis meet an isotropic pivot,
#: and p1 = 0.
SPECIAL_SPECS = {
    "H": ([[0, 1], [1, 0]], [1, 0], 4),
    "H+H": ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [0, 0, 0, 0], 8),
    "H+(-1)": ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], [1, 1, 1], 5),
    "p1_0": ([[1, 0], [0, -1]], [1, 1], 0),
    "H_p1_0": ([[0, 1], [1, 0]], [0, 0], 0),
}


def _ring_presentations():
    """Presentations built from rings: the committed specs of rank >= 1, the
    desk specs, :data:`SPECIAL_SPECS` and random forms of rank 2 to 16."""
    specs = {"desk_d2_0": DESK_D2_0, "desk_d3_0": DESK_D3_0, **SPECIAL_SPECS}
    out = [
        pytest.param(presentation_for(*spec)[2], id=name)
        for name, spec in specs.items()
    ]
    for d in range(2, 17):
        ring = cohomology_ring(*random_pair(random.Random(200 + d), d))
        out.append(pytest.param(quadratic_presentation(ring), id=f"random_d{d}"))
    return _input_presentations() + out


def _nullspace_twin(p):
    """The same relations without the ring: the dual check then runs on the
    kernel of the relations in the ring's basis."""
    return rational.QuadraticPresentation(
        p.generators, p.relations, p.weight_dims, p.d_rank
    )


class TestOrthogonalDualCheck:
    """A ring's presentation runs the dual check on an orthogonal basis of
    H^2(M; Q); the dimensions do not depend on the basis."""

    @pytest.mark.parametrize("p", _ring_presentations())
    def test_dims_match_nullspace_path_and_fraction_reference(self, p):
        dims = quadratic_dual_dims(p, 6)
        assert dims == quadratic_dual_dims(_nullspace_twin(p), 6)
        # the dense Fraction reference is slow beyond rank 8
        if p.generators <= 9:
            assert dims == quadratic_dual_dims_by_fractions(p, 6)

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

    def test_ring_presentations_take_the_orthogonal_path(self, monkeypatch):
        _, _, p = presentation_for(*DESK_D2_0)

        def unreachable(p):
            raise AssertionError("the kernel of the relations was solved for")

        monkeypatch.setattr(rational, "_dual_relation_space", unreachable)
        assert quadratic_dual_dims(p, 6) == [1, 3, 6, 10, 15, 21, 28]

    def test_over_budget_builds_no_orthogonal_basis(self, monkeypatch):
        p = quadratic_presentation(cohomology_ring(*random_pair(random.Random(17), 17)))

        def unreachable(ring):
            raise AssertionError("orthogonal basis built for a weight over budget")

        monkeypatch.setattr(rational, "_orthogonal_dual_relations", unreachable)
        assert quadratic_dual_dims(p, 6) == [1, 18]

    @pytest.mark.parametrize(
        "spec, calls",
        [(DESK_D2_0, 53), (DESK_D3_0, 22)],
        ids=["desk_d2_0", "desk_d3_0"],
    )
    def test_eliminations_exact(self, monkeypatch, spec, calls):
        """On the kernel of the relations the same checks take 194 and 62."""
        _, _, p = presentation_for(*spec)
        counted = []
        original = linalg._eliminate

        def counting(row, pivot_row, col):
            counted.append(col)
            return original(row, pivot_row, col)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        quadratic_dual_dims(p, 6)
        assert len(counted) == calls

    @pytest.mark.parametrize(
        "spec, maps", [(DESK_D2_0, 4), (DESK_D3_0, 2)], ids=["desk_d2_0", "desk_d3_0"]
    )
    def test_quotient_maps_have_the_rows_as_kernel(self, spec, maps):
        """Each weight's quotient map sends the rows to zero and has rank
        ``ncols - rank(rows)``, so its kernel is exactly the row space."""
        _, _, p = presentation_for(*spec)
        checked = 0
        for rows, image, dim in rational._dual_quotients(p, 6):
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
        assert checked == maps


class TestIntegerPath:
    """The Koszul route stays on ``int`` from the ring to the dual check."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_structure_constants_and_relations_are_int(self, monkeypatch, d):
        N, b = random_pair(random.Random(d), d)

        def no_fraction(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built on the Koszul route")

        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        ring = cohomology_ring(N, b)
        p = quadratic_presentation(ring)
        quadratic_dual_dims(p, 6)
        monkeypatch.undo()
        for x in ring.basis:
            for y in ring.basis:
                assert all(type(c) is int for c in ring.product(x, y).values())
        assert all(type(c) is int for rel in p.relations for c in rel.values())

    def test_presentation_eliminates_once(self, monkeypatch):
        ring = cohomology_ring(*random_pair(random.Random(3), 3))
        calls = []
        original = linalg.rref

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "rref", counted)
        quadratic_presentation(ring)
        assert len(calls) == 1

    def test_presentation_memory_follows_the_nonzeros(self):
        # rank 64: 2,080 relations over 2,145 Sym^2 columns, 2,207 nonzeros
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

    def test_over_budget_skips_dual_relations(self, monkeypatch):
        p = quadratic_presentation(cohomology_ring(*random_pair(random.Random(17), 17)))

        def unreachable(p):
            raise AssertionError("R_perp built for a weight over budget")

        monkeypatch.setattr(rational, "_dual_relation_space", unreachable)
        assert quadratic_dual_dims(p, 6) == [1, 18]
