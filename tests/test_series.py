import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsix import series
from loopsix.errors import InputError
from loopsix.homotopy import (
    _bouquet_letters,
    decompose,
    loop_factors,
    loop_homology_series,
)
from loopsix.series import (
    GradedLieDims,
    NegativeLieDimension,
    TruncatedSeries,
    ZeroConstantTerm,
    _expand,
    _witt_counts,
    lie_ring_weight_counts,
    pbw_expand,
    pbw_invert,
    series_mul,
    series_reciprocal,
)

from conftest import (
    bouquet_spheres,
    lie_ring_weight_counts_by_log,
    lie_ring_weight_counts_by_recurrence,
    lyndon_count_for_weight,
    pbw_expand_by_factors,
    pbw_invert_by_factors,
    pbw_invert_by_newton,
    random_pair,
    series_product_by_fractions,
    series_sum_by_fractions,
)


#: int and Fraction coefficients, for series of either kind
COEFFICIENTS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def S(*coeffs, cutoff=None):
    return TruncatedSeries.from_coefficients(coeffs, cutoff=cutoff)


class TestArithmetic:
    def test_mul_polynomial_identity(self):
        assert series_mul(S(1, 1, cutoff=4), S(1, -1, cutoff=4)) == S(
            1, 0, -1, cutoff=4
        )

    def test_mul_with_reciprocal_is_one(self):
        a = S(1, -1, cutoff=8)
        assert series_mul(a, series_reciprocal(a)) == TruncatedSeries.one(8)

    def test_mul_acceptance_anchor(self):
        # (1-t)(1-3t+t^2) = 1-4t+4t^2-t^3, the d=3 denominator
        assert series_mul(S(1, -1, cutoff=5), S(1, -3, 1, cutoff=5)) == S(
            1, -4, 4, -1, cutoff=5
        )

    def test_mul_truncates_to_min_cutoff(self):
        product = S(1, 1, cutoff=9) * S(1, cutoff=4)
        assert product.cutoff == 4

    def test_reciprocal_geometric(self):
        assert series_reciprocal(S(1, -2, cutoff=6)) == S(
            1, 2, 4, 8, 16, 32, 64
        )

    def test_reciprocal_recurrence(self):
        rec = series_reciprocal(S(1, -4, 4, -1, cutoff=9))
        assert rec.integer_coefficients() == (
            1, 4, 12, 33, 88, 232, 609, 1596, 4180, 10945,
        )

    def test_reciprocal_of_one(self):
        assert series_reciprocal(TruncatedSeries.one(5)) == TruncatedSeries.one(5)

    def test_reciprocal_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(S(0, 1, cutoff=3))

    @given(
        st.lists(
            st.fractions(max_denominator=4, min_value=-3, max_value=3),
            min_size=0,
            max_size=7,
        ),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=60)
    def test_reciprocal_identity_property(self, tail, unit):
        f = TruncatedSeries.from_coefficients([unit] + tail, cutoff=10)
        assert series_mul(f, series_reciprocal(f)) == TruncatedSeries.one(10)

    @given(
        st.lists(COEFFICIENTS, min_size=1, max_size=8),
        st.lists(COEFFICIENTS, min_size=1, max_size=8),
    )
    @settings(max_examples=150)
    def test_operators_match_fraction_reference(self, a, b):
        # the cutoffs differ whenever the lists do
        x, y = TruncatedSeries.from_coefficients(a), TruncatedSeries.from_coefficients(b)
        assert list((x + y).coeffs) == series_sum_by_fractions(a, b)
        assert list((x - y).coeffs) == series_sum_by_fractions(a, b, -1)
        assert list((x * y).coeffs) == series_product_by_fractions(a, b)


class TestStr:
    """``str`` of a series is its coefficients, constant term first."""

    @pytest.mark.parametrize(
        "series, text",
        [
            (TruncatedSeries.one(0), "[1]"),
            (TruncatedSeries.from_coefficients([], cutoff=2), "[0, 0, 0]"),
            (S(1, -4, 4, -1), "[1, -4, 4, -1]"),
            (S(1, Fraction(1, 2), Fraction(-6, 4), cutoff=4), "[1, 1/2, -3/2, 0, 0]"),
            (S(Fraction(4, 2), Fraction(-1, 3)), "[2, -1/3]"),
        ],
    )
    def test_format(self, series, text):
        assert str(series) == text
        assert f"{series}" == text

    def test_no_empty_series_renders(self):
        with pytest.raises(ValueError, match="at least its constant term"):
            TruncatedSeries(())
        with pytest.raises(ValueError, match="at least its constant term"):
            TruncatedSeries.from_coefficients([])


class TestWittCounts:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_witt_word_identity(self, q):
        # a word of length w is one of the e rotations of the (w/e)-th power
        # of a unique Lyndon word of length e | w: sum_{e | w} e * c_e = q^w
        counts = lie_ring_weight_counts({1: q}, 10)
        for w in range(1, 11):
            assert sum(e * counts[e - 1] for e in range(1, w + 1) if w % e == 0) == q**w

    def test_weight_counts_aggregate_necklaces(self):
        # one letter of weight 1 and one of weight 2
        assert lie_ring_weight_counts({1: 1, 2: 1}, 9) == [
            lyndon_count_for_weight([1, 2], w) for w in range(1, 10)
        ]
        assert lie_ring_weight_counts({1: 2}, 8) == [2, 1, 2, 3, 6, 9, 18, 30]

    def test_weight_counts_take_a_list_of_weights(self):
        assert lie_ring_weight_counts([1, 1], 4) == [2, 1, 2, 3]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lie_ring_weight_counts({0: 1}, 3),
            lambda: lie_ring_weight_counts({1: -1}, 3),
        ],
        ids=["zero_weight", "negative_count"],
    )
    def test_bad_letters_raise_input_error(self, call):
        # an InputError is also a ValueError, for callers that catch that
        with pytest.raises(InputError) as info:
            call()
        assert isinstance(info.value, ValueError)


def trial_division_mobius(n):
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


class TestMobius:
    def test_trial_division_reference(self):
        assert [trial_division_mobius(n) for n in range(1, 13)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0
        ]

    def test_weight_counts_through_1000(self):
        """Binary necklace counts n * c_n = sum_{d | n} mu(d) 2^(n/d); the
        term d = n holds mu(n) alone, so each n <= 1000 checks mu(n) once all
        smaller values agree."""
        cutoff = 1000
        mu = [0] + [trial_division_mobius(n) for n in range(1, cutoff + 1)]
        expected = []
        for n in range(1, cutoff + 1):
            acc = sum(mu[d] * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
            expected.append(acc // n)
        assert lie_ring_weight_counts({1: 2}, cutoff) == expected


class TestPbw:
    def test_expand_two_sphere_lie_algebra(self):
        dims = GradedLieDims.from_dims([1, 1], cutoff=6)
        assert pbw_expand(dims).integer_coefficients() == (1,) * 7

    def test_expand_matches_tensor_algebra(self):
        dims = GradedLieDims.from_dims([2, 3, 2], cutoff=3)
        assert pbw_expand(dims).integer_coefficients() == (1, 2, 4, 8)

    def test_dim_beyond_the_cutoff_is_zero(self):
        dims = GradedLieDims.from_dims([2, 3, 2])
        assert [dims.dim(n) for n in (1, 3, 4, 100)] == [2, 2, 0, 0]

    def test_expand_zero(self):
        dims = GradedLieDims.from_dims([0, 0, 0], cutoff=3)
        assert pbw_expand(dims) == TruncatedSeries.one(3)

    def test_invert_tensor_algebra_on_two_odd_generators(self):
        series = series_reciprocal(S(1, -2, cutoff=8))
        assert pbw_invert(series).dims == (2, 3, 2, 3, 6, 11, 18, 30)

    def test_invert_three_sphere_like(self):
        series = series_reciprocal(S(1, -3, 3, -1, cutoff=7))  # 1 / (1 - t)^3
        assert pbw_invert(series).dims == (3, 3, 0, 0, 0, 0, 0)

    def test_invert_one_is_zero(self):
        assert pbw_invert(TruncatedSeries.one(5)).dims == (0,) * 5

    def test_invert_negative_dimension(self):
        with pytest.raises(NegativeLieDimension):
            pbw_invert(S(1, 2, 2, 1, 0, 0))

    def test_invert_non_integer(self):
        with pytest.raises(ValueError):
            pbw_invert(S(1, Fraction(1, 2), cutoff=3))

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12)
    )
    @settings(max_examples=60)
    def test_round_trip(self, dims):
        vec = GradedLieDims.from_dims(dims)
        assert pbw_invert(pbw_expand(vec)) == vec

    def test_round_trip_cutoff_twenty(self):
        vec = GradedLieDims.from_dims(
            [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
        )
        assert vec.cutoff == 20
        assert pbw_invert(pbw_expand(vec)) == vec


def outcome(f, *args):
    """``f(*args)``, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the contract is the exception itself
        return type(exc), str(exc)


small_dims = st.lists(st.integers(min_value=0, max_value=6), max_size=16)
small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def perturbed_pbw_series(draw):
    """A PBW series with one coefficient moved by an integer or a Fraction,
    so that inversion fails (or not) after solving the degrees below it."""
    vec = GradedLieDims.from_dims(draw(small_dims), cutoff=draw(st.integers(1, 16)))
    coeffs = list(pbw_expand(vec).coeffs)
    degree = draw(st.integers(0, len(coeffs) - 1))
    coeffs[degree] += draw(st.integers(-3, 3) | small_fractions)
    return TruncatedSeries.from_coefficients(coeffs)


class TestKernelMatchesNewton:
    """``pbw_invert`` -- the graded sieve on the log-derivative ``t h' / h``
    -- gives what Newton's identity run backwards gave, exceptions and their
    messages included, on int and Fraction series."""

    @given(
        st.lists(st.integers(-4, 4) | small_fractions, min_size=1, max_size=14)
        | st.lists(st.integers(-4, 4) | small_fractions, max_size=13).map(
            lambda tail: [1, *tail]
        )
        | perturbed_pbw_series().map(lambda s: list(s.coeffs))
    )
    @settings(max_examples=250)
    def test_invert(self, coeffs):
        series = TruncatedSeries.from_coefficients(coeffs)
        assert outcome(pbw_invert, series) == outcome(pbw_invert_by_newton, series)

    def test_fraction_typed_integers(self):
        # the raw constructor keeps integral Fractions as Fractions
        h = pbw_expand(GradedLieDims.from_dims([2, 0, 1, 3]), 12).coeffs
        series = TruncatedSeries(tuple([Fraction(c) for c in h]))
        assert outcome(pbw_invert, series) == outcome(pbw_invert_by_newton, series)

    @pytest.mark.parametrize(
        "coeffs, kind, message",
        [
            ((1, 2, 2, 1, 0, 0), NegativeLieDimension,
             "degree 3 solves to -1; the input is inconsistent "
             "(not the series of a graded Lie algebra)"),
            ((1, Fraction(1, 2), 0, 0), ValueError,
             "non-integer dimension 1/2 at degree 1: not a PBW series"),
            ((1, 0, Fraction(1, 3)), ValueError,
             "non-integer dimension 1/3 at degree 2: not a PBW series"),
            ((2, 1), InputError, "PBW inversion needs constant term 1"),
        ],
        ids=["negative", "half", "third_at_two", "constant_term"],
    )
    def test_refusals(self, coeffs, kind, message):
        series = TruncatedSeries.from_coefficients(coeffs)
        assert outcome(pbw_invert, series) == (kind, message)
        assert outcome(pbw_invert_by_newton, series) == (kind, message)


class TestNewtonMatchesFactorProducts:
    """PBW expansion and inversion on ``c_m = m [t^m] log h`` give what
    multiplying out the factors gave, exceptions and their messages
    included, and multiply no series."""

    @given(small_dims, st.none() | st.integers(0, 30))
    @settings(max_examples=120)
    def test_expand(self, dims, cutoff):
        vec = GradedLieDims.from_dims(dims)
        ours = pbw_expand(vec, cutoff)
        assert ours == pbw_expand_by_factors(vec, cutoff)
        assert all_int(ours)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=14)
        | st.lists(st.integers(-4, 4) | small_fractions, min_size=1, max_size=14)
        | st.lists(st.integers(-4, 4), max_size=13).map(lambda tail: [1, *tail])
        | perturbed_pbw_series().map(lambda s: list(s.coeffs))
    )
    @settings(max_examples=250)
    def test_invert(self, coeffs):
        series = TruncatedSeries.from_coefficients(coeffs)
        assert outcome(pbw_invert, series) == outcome(pbw_invert_by_factors, series)

    def test_errors_at_depth(self):
        vec = GradedLieDims.from_dims([2, 0, 1, 3, 0, 1])
        coeffs = list(pbw_expand(vec, 9).coeffs)
        for delta, kind in [(Fraction(1, 3), ValueError), (-40, NegativeLieDimension)]:
            bad = TruncatedSeries.from_coefficients(coeffs[:7] + [coeffs[7] + delta])
            with pytest.raises(kind, match="degree 7"):
                pbw_invert(bad)
            assert outcome(pbw_invert, bad) == outcome(pbw_invert_by_factors, bad)

    def test_no_series_multiplication(self, monkeypatch):
        dims = GradedLieDims.from_dims([3, 1, 4, 1, 5, 9, 2, 6])
        tensor = series_reciprocal(S(1, -2, -1, cutoff=60))
        calls = []
        original = TruncatedSeries.__mul__

        def counted(a, b):
            calls.append((a.cutoff, b.cutoff))
            return original(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
        expanded = pbw_expand(dims, 60)
        assert pbw_invert(expanded) == dims.truncate(60)
        pbw_invert(tensor)
        assert calls == []

    def test_integral_input_builds_no_fraction(self, monkeypatch):
        dims = GradedLieDims.from_dims([3, 1, 4, 1, 5, 9, 2, 6])
        tensor = series_reciprocal(S(1, -2, -1, cutoff=60))
        tensor_dims = pbw_invert_by_factors(tensor)
        negative = S(1, 2, 2, 1, 0, 0)

        def no_fraction(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built from integral input")

        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        assert pbw_invert(pbw_expand(dims, 60)) == dims.truncate(60)
        assert pbw_invert(tensor) == tensor_dims
        with pytest.raises(NegativeLieDimension):
            pbw_invert(negative)


def all_int(series):
    return all(type(c) is int for c in series.coeffs)


class TestIntegerKernel:
    """Integral series keep plain int coefficients; anything else stays an
    exact Fraction, and nothing ever becomes a float."""

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 6])
    def test_loop_homology_series_is_int(self, d):
        rng = random.Random(d)
        while True:
            N, b = random_pair(rng, d)
            if d or abs(b.ell) in (0, 1, 3, 5):  # a supported attaching number
                break
        assert all_int(loop_homology_series(decompose(N, b), 30))

    def test_pbw_expand_is_int(self):
        dims = GradedLieDims.from_dims([3, 1, 4, 1, 5, 9, 2, 6])
        assert all_int(pbw_expand(dims, 20))

    def test_reciprocal_of_unit_series_is_int(self):
        assert all_int(series_reciprocal(S(1, -4, 4, -1, cutoff=20)))
        assert all_int(series_reciprocal(S(-1, 2, 0, 7, cutoff=20)))

    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_bouquet_inputs_are_int(self, d):
        num, den = _bouquet_letters(d)
        assert all(type(c) is int for c in _expand((0, *num), den, 41))
        assert all_int(S(0, 0, d - 2, d - 2, cutoff=41))

    def test_integral_fractions_are_stored_as_int(self):
        assert all_int(S(1, Fraction(-2, 2), Fraction(0), cutoff=5))
        assert all_int(S(0, 0, 0, Fraction(6, 3), cutoff=5))
        assert S(1, Fraction(1, 2))[1] == Fraction(1, 2)

    @pytest.mark.parametrize("coeffs", [(2, 1), (-3, 1, 1)])
    def test_reciprocal_of_non_unit_is_exact(self, coeffs):
        a = S(*coeffs, cutoff=12)
        inverse = series_reciprocal(a)
        assert a * inverse == TruncatedSeries.one(12)
        for c in inverse.coeffs + (a * inverse).coeffs:
            assert isinstance(c, (int, Fraction)) and not isinstance(c, float)
        assert inverse[1] == Fraction(-1, coeffs[0] ** 2)

    @pytest.mark.parametrize("d", [3, 6, 10])
    def test_weight_counts_match_log_expansion(self, d):
        letters = {dim - 1: count for dim, count in bouquet_spheres(d, 41).items()}
        assert lie_ring_weight_counts(letters, 40) == lie_ring_weight_counts_by_log(
            letters, 40
        )


class TestClosedFormLetterSeries:
    """The bouquet's Witt counts, read off its letter series ``(d-2) t /
    (1-t)^2``, match both references on the cutoff-long alphabet that
    ``bouquet_spheres`` lists, in work that grows linearly with the cutoff."""

    @pytest.mark.parametrize(
        "d, cutoff", [(d, 40) for d in range(3, 17)] + [(d, 300) for d in (3, 10, 64, 192)]
    )
    def test_matches_references(self, d, cutoff):
        letters = {dim - 1: count for dim, count in bouquet_spheres(d, cutoff + 1).items()}
        counts = _witt_counts(*_bouquet_letters(d), cutoff)
        assert counts == lie_ring_weight_counts_by_recurrence(letters, cutoff)
        assert counts == lie_ring_weight_counts(letters, cutoff)
        if cutoff <= 40:  # the Fraction log expansion grows as cutoff^3
            assert counts == lie_ring_weight_counts_by_log(letters, cutoff)

    def test_loop_factors_work_is_linear(self, monkeypatch):
        products = []

        def counted(a, b):
            products.append((a, b))
            return a * b

        N, b = random_pair(random.Random(10), 10)
        monkeypatch.setattr(series, "mul", counted)
        factors = loop_factors(N, b, 150)
        assert 0 < len(products) <= 5 * 150
        assert factors.loops_by_dim()[151] > 0


class TestExpandWork:
    """``_expand``'s work follows the degree of ``den``: zeros padded out to
    the cutoff (1/H(-t) in ``koszul_dual_series``, 1/(1 - sum t^deg) in
    ``free_graded_lie_dims``) cost no multiplication."""

    @pytest.mark.parametrize("cutoff", [3, 40, 150])
    def test_padding_costs_nothing(self, monkeypatch, cutoff):
        den = [1, -4, 4, -1]
        products = []

        def counted(a, b):
            products.append((a, b))
            return a * b

        monkeypatch.setattr(series, "mul", counted)
        plain = _expand((1,), den, cutoff)
        unpadded = len(products)
        assert _expand((1,), den + [0] * cutoff, cutoff) == plain
        assert len(products) == 2 * unpadded <= 2 * 3 * cutoff

    @pytest.mark.parametrize("cutoff", [3, 40, 150])
    def test_interior_zeros_cost_nothing(self, monkeypatch, cutoff):
        den = [1, 0, 0, -2, 0, 0, 0, 0, 0, 1]  # 1 - 2t^3 + t^9
        products = []

        def counted(a, b):
            products.append((a, b))
            return a * b

        monkeypatch.setattr(series, "mul", counted)
        out = _expand((1,), den, cutoff)
        # one product per nonzero term of den, in each degree that reaches it
        assert len(products) == sum(cutoff - k + 1 for k in (3, 9) if k <= cutoff)
        monkeypatch.undo()
        assert S(*den, cutoff=cutoff) * S(*out) == TruncatedSeries.one(cutoff)
