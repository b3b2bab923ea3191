import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from loopsix import UnsupportedCase
from loopsix.homotopy import analyze_circle_bundle
from loopsix.errors import InputError
from loopsix.linalg import det_int
from loopsix.manifold import (
    BundleData,
    InvalidBundle,
    NotPrimitive,
    NotSymmetric,
    NotUnimodular,
    WrongDimension,
    bundle_from_classes,
    cohomology_ring,
    is_spin,
    loop_rigidity_equivalent,
    new_four_manifold,
    pairing_parity,
    validate_bundle,
)

from conftest import random_bundle, random_unimodular_form

HYPERBOLIC = [[0, 1], [1, 0]]


def ring_for(form, w2, p1):
    N = new_four_manifold(form)
    return N, cohomology_ring(N, bundle_from_classes(N, w2, p1))


class TestFourManifold:
    def test_hyperbolic(self):
        N = new_four_manifold(HYPERBOLIC)
        assert N.d == 2 and N.determinant == -1

    def test_rank_one(self):
        assert new_four_manifold([[1]]).d == 1

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            new_four_manifold([[2]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            new_four_manifold([[0, 1], [2, 0]])
        with pytest.raises(NotSymmetric):
            new_four_manifold([[0, 1]])

    def test_not_symmetric_names_the_pair(self):
        with pytest.raises(NotSymmetric, match=r"at \(0, 1\): 2 vs 3$"):
            new_four_manifold([[1, 2], [3, 1]])

    def test_empty_form_is_the_four_sphere(self):
        N = new_four_manifold([])
        assert N.d == 0 and N.determinant == 1

    @pytest.mark.parametrize(
        "entries",
        [[[1.7]], [[1.0]], [["1"]], [[True]], [[Fraction(1)]], [[0, 1], [1, False]]],
        ids=["float", "integral_float", "string", "bool", "fraction", "bool_in_row"],
    )
    def test_entries_must_be_exact_integers(self, entries):
        with pytest.raises(InputError, match="must be integers"):
            new_four_manifold(entries)

    @pytest.mark.parametrize(
        "u", [[1.9], [1.0], [True], [Fraction(1)], ["1"]],
        ids=["float", "integral_float", "bool", "fraction", "string"],
    )
    def test_pairing_takes_exact_integers(self, u):
        with pytest.raises(InputError, match="must be integers"):
            new_four_manifold([[1]]).pairing(u)


class TestBundles:
    def test_non_spin_example(self):
        N = new_four_manifold([[1]])
        b = bundle_from_classes(N, [1], 5)
        assert b.alpha == (1,) and b.ell == 1

    def test_spin_example(self):
        N = new_four_manifold(HYPERBOLIC)
        b = bundle_from_classes(N, [0, 0], 8)
        assert b.alpha == (0, 0) and b.ell == 2

    def test_unrealizable_pair(self):
        N = new_four_manifold([[1]])
        with pytest.raises(InvalidBundle):
            bundle_from_classes(N, [1], 6)

    @pytest.mark.parametrize(
        "form, w2, p1",
        [
            ([[1]], [3], 5),
            ([[1]], [-1], 5),
            ([[1]], [True], 5),
            ([[1]], [1.0], 5),
            ([[1]], [1], 5.9),
            ([[1]], [1], 5.0),
            ([], [], Fraction(4)),
            ([[1]], [1], True),
        ],
        ids=["w2_three", "w2_negative", "w2_bool", "w2_float", "p1_float",
             "p1_integral_float", "p1_fraction", "p1_bool"],
    )
    def test_classes_must_be_exact(self, form, w2, p1):
        with pytest.raises(InvalidBundle):
            bundle_from_classes(new_four_manifold(form), w2, p1)

    def test_wrong_w2_length(self):
        with pytest.raises(InvalidBundle):
            bundle_from_classes(new_four_manifold([[1]]), [1, 0], 5)

    def test_is_spin(self):
        N = new_four_manifold(HYPERBOLIC)
        assert is_spin(bundle_from_classes(N, [0, 0], 0))
        assert not is_spin(bundle_from_classes(N, [1, 0], 0))
        assert is_spin(bundle_from_classes(new_four_manifold([]), [], 4))

    def test_realizability_is_mod_four(self):
        rng = random.Random(20240)
        for _ in range(120):
            d = rng.randint(1, 5)
            N = new_four_manifold(random_unimodular_form(rng, d))
            b = random_bundle(rng, N)
            validate_bundle(N, b)
            assert b.p1 == 4 * b.ell + N.pairing(b.alpha)
            assert all((a - w) % 2 == 0 for a, w in zip(b.alpha, b.w2))
            for offset in (1, 2, 3):
                with pytest.raises(InvalidBundle):
                    bundle_from_classes(N, list(b.w2), b.p1 + offset)


    @pytest.mark.parametrize(
        "form, b, error, needle",
        [
            ([[1]], BundleData(w2=(1, 0), p1=5, alpha=(1,), ell=1), WrongDimension,
             "length d"),
            ([[1]], BundleData(w2=(2,), p1=4, alpha=(2,), ell=0), InvalidBundle,
             "0 or 1"),
            ([[1]], BundleData(w2=(1,), p1=4, alpha=(2,), ell=0), InvalidBundle,
             "reduce to w2"),
            ([[1]], BundleData(w2=(1,), p1=5, alpha=(1,), ell=0), InvalidBundle,
             "p1 != 4\\*ell"),
            ([[1]], BundleData(w2=(1,), p1=9, alpha=(3,), ell=0), NotPrimitive,
             "primitive lift"),
        ],
        ids=["wrong_length", "w2_not_a_bit", "alpha_not_w2", "p1_mismatch",
             "imprimitive_alpha"],
    )
    def test_validate_bundle_rejects(self, form, b, error, needle):
        with pytest.raises(error, match=needle):
            validate_bundle(new_four_manifold(form), b)

    @pytest.mark.parametrize(
        "b",
        [
            BundleData(w2=(True,), p1=5, alpha=(1,), ell=1),
            BundleData(w2=(1,), p1=5.0, alpha=(1,), ell=1),
            BundleData(w2=(1,), p1=5, alpha=(1.0,), ell=1),
            BundleData(w2=(1,), p1=5, alpha=(True,), ell=1),
            BundleData(w2=(1,), p1=5, alpha=(1,), ell=Fraction(1)),
            BundleData(w2=(True,), p1=5.0, alpha=(1,), ell=1),
        ],
        ids=["bool_w2", "float_p1", "float_alpha", "bool_alpha", "fraction_ell",
             "bool_w2_float_p1"],
    )
    def test_validate_bundle_takes_exact_integers(self, b):
        N = new_four_manifold([[1]])
        with pytest.raises(InvalidBundle, match="must be integers"):
            validate_bundle(N, b)
        with pytest.raises(InvalidBundle, match="must be integers"):
            cohomology_ring(N, b)


class TestPairingParity:
    def test_examples(self):
        assert pairing_parity(new_four_manifold([[1]]), [1]) == "odd"
        assert pairing_parity(new_four_manifold(HYPERBOLIC), [1, 0]) == "even"
        assert (
            pairing_parity(new_four_manifold([[1, 0], [0, -1]]), [1, 1]) == "even"
        )

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitive):
            pairing_parity(new_four_manifold(HYPERBOLIC), [2, 0])

    @pytest.mark.parametrize(
        "beta", [[1.5], [1.0], [True], [Fraction(1)]],
        ids=["float", "integral_float", "bool", "fraction"],
    )
    def test_takes_exact_integers(self, beta):
        with pytest.raises(InputError, match="must be integers"):
            pairing_parity(new_four_manifold([[1]]), beta)


class TestD0Cells:
    def test_values(self):
        N = new_four_manifold([])
        assert analyze_circle_bundle(bundle_from_classes(N, [], 4))["k"] == 1
        assert analyze_circle_bundle(bundle_from_classes(N, [], 0))["k"] == 0
        assert analyze_circle_bundle(bundle_from_classes(N, [], -60))["k"] == 15

    def test_wrong_dimension(self):
        N = new_four_manifold([[1]])
        with pytest.raises(WrongDimension):
            analyze_circle_bundle(bundle_from_classes(N, [1], 5))


class TestRigidity:
    def test_depends_only_on_rank(self):
        N = new_four_manifold(HYPERBOLIC)
        spin = bundle_from_classes(N, [0, 0], 8)
        nonspin = bundle_from_classes(N, [1, 0], 4)
        assert loop_rigidity_equivalent((N, spin), (N, nonspin))

    def test_distinct_ranks(self):
        N1 = new_four_manifold([[1]])
        b1 = bundle_from_classes(N1, [1], 5)
        N2 = new_four_manifold(HYPERBOLIC)
        b2 = bundle_from_classes(N2, [0, 0], 8)
        assert not loop_rigidity_equivalent((N1, b1), (N2, b2))

    def test_d0_unsupported(self):
        N = new_four_manifold([])
        b = bundle_from_classes(N, [], 4)
        with pytest.raises(UnsupportedCase):
            loop_rigidity_equivalent((N, b), (N, b))


def assert_ring_valid(N, ring):
    basis = ring.basis
    # graded commutativity (all degrees even, so plain symmetry)
    for a, b in iter_product(basis, repeat=2):
        assert ring.product(a, b) == ring.product(b, a)
    # associativity on all basis triples
    for a, b, c in iter_product(basis, repeat=3):
        left = ring.multiply(ring.product(a, b), {c: Fraction(1)})
        right = ring.multiply({a: Fraction(1)}, ring.product(b, c))
        assert left == right, (a, b, c)
    # additive shape
    assert ring.betti() == (1, ring.d + 1, ring.d + 1, 1)
    for degree, expected in ((0, 1), (2, ring.d + 1), (4, ring.d + 1), (6, 1)):
        assert len(ring.basis_of_degree(degree)) == expected
    # Poincare duality; the pairing matrix is integral for these rings
    det = det_int([[int(x) for x in row] for row in ring.pairing_matrix()])
    assert det in (N.determinant, -N.determinant)


class TestRing:
    def test_cp3_like(self):
        N, ring = ring_for([], [], 4)
        assert ring.product("t", "t") == {"y": Fraction(1)}
        ttt = ring.multiply(ring.product("t", "t"), {"t": Fraction(1)})
        assert ttt == {"top": Fraction(1)}
        assert_ring_valid(N, ring)

    def test_s2_x_s4_like(self):
        N, ring = ring_for([], [], 0)
        assert ring.product("t", "t") == {}
        assert_ring_valid(N, ring)

    def test_d1_example(self):
        N, ring = ring_for([[1]], [1], 1)  # ell = 0
        assert ring.product("t", "t") == {"t*x1": Fraction(1)}
        assert_ring_valid(N, ring)

    def test_pulled_back_classes_multiply_as_in_the_base(self):
        N, ring = ring_for([[1, 0], [0, -1]], [1, 1], 4)
        assert ring.product("x1", "x1") == {"y": Fraction(1)}
        assert ring.product("x2", "x2") == {"y": Fraction(-1)}
        assert ring.product("x1", "x2") == {}
        assert ring.product("x1", "y") == {}

    def test_random_rings(self):
        rng = random.Random(99)
        for _ in range(12):
            d = rng.randint(0, 4)
            N = new_four_manifold(random_unimodular_form(rng, d))
            b = random_bundle(rng, N)
            assert_ring_valid(N, cohomology_ring(N, b))


class TestLiftChange:
    @pytest.mark.parametrize(
        "form,w2,p1,gamma",
        [
            (HYPERBOLIC, [1, 0], 4, (0, 1)),
            (HYPERBOLIC, [0, 0], 8, (1, 0)),
            ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9, (0, 1, 1)),
        ],
    )
    def test_lift_change_preserves_rational_invariants(self, form, w2, p1, gamma):
        from loopsix.rational import koszul_dual_series, quadratic_presentation

        N = new_four_manifold(form)
        b = bundle_from_classes(N, w2, p1)
        alpha2 = tuple(a + 2 * g for a, g in zip(b.alpha, gamma))
        ell2 = (p1 - N.pairing(alpha2)) // 4
        b2 = BundleData(w2=b.w2, p1=p1, alpha=alpha2, ell=ell2)
        validate_bundle(N, b2)
        ring1 = cohomology_ring(N, b)
        ring2 = cohomology_ring(N, b2)
        assert ring1.betti() == ring2.betti()
        det1 = det_int([[int(x) for x in row] for row in ring1.pairing_matrix()])
        det2 = det_int([[int(x) for x in row] for row in ring2.pairing_matrix()])
        assert abs(det1) == abs(det2) == abs(N.determinant)
        p_1 = quadratic_presentation(ring1)
        p_2 = quadratic_presentation(ring2)
        assert koszul_dual_series(p_1, 8, check=False) == koszul_dual_series(
            p_2, 8, check=False
        )
