import random
from fractions import Fraction

import pytest

from loopsix import linalg, rational
from loopsix.errors import InputError
from loopsix.homotopy import decompose, loop_factors, loop_homology_series
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
    quadratic_dual_dims_by_fractions,
    random_pair,
)


def presentation_for(form, w2, p1):
    N = new_four_manifold(form)
    b = bundle_from_classes(N, w2, p1)
    return N, b, quadratic_presentation(cohomology_ring(N, b))


D2_TRIVIAL = ([[0, 1], [1, 0]], [0, 0], 0)
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

    def test_exterior_generators_square_to_zero(self):
        model = make_sullivan_model([("u", 3)], {})
        assert cdga_cohomology(model, 7) == [1, 0, 0, 1, 0, 0, 0, 0]


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
        ref = dual_relation_space_by_fractions(p)
        assert len(ours) == len(ref)
        assert rank(ours) == rank(ref) == rank(ours + ref)

    def test_weights_checked_per_rank(self):
        _, _, p2 = presentation_for(*D2_TRIVIAL)
        _, _, p3 = presentation_for(*D3)
        assert len(quadratic_dual_dims(p2, 6)) - 1 == 6
        assert len(quadratic_dual_dims(p3, 6)) - 1 == 4


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
        assert all(type(c) is int for rel in p.relations for c in rel)

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

    def test_over_budget_skips_dual_relations(self, monkeypatch):
        p = quadratic_presentation(cohomology_ring(*random_pair(random.Random(17), 17)))

        def unreachable(p):
            raise AssertionError("R_perp built for a weight over budget")

        monkeypatch.setattr(rational, "_dual_relation_space", unreachable)
        assert quadratic_dual_dims(p, 6) == [1, 18]
