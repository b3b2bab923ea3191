"""Degree bounds and counts are exact ints: a bool or a float is refused.

Each public function that takes a cutoff, a degree or a count checks it once
at its entry with ``errors._require_int`` and raises :class:`InputError`
naming the argument, before its own range check.  The library's other
refusals at its edges keep their exception types and messages.
"""

from fractions import Fraction

import pytest

from loopsix import groups, homotopy, rational, series
from loopsix.errors import InputError
from loopsix.linalg import det_int
from loopsix.manifold import (
    NotPrimitive,
    WrongDimension,
    bundle_from_classes,
    cohomology_ring,
    new_four_manifold,
    pairing_parity,
)

N2 = new_four_manifold([[0, 1], [1, 0]])
B2 = bundle_from_classes(N2, [0, 0], 0)
P2 = rational.quadratic_presentation(cohomology_ring(N2, B2))
FACTORS = homotopy.loop_factors(N2, B2, 6)
TABLE = groups.load_table()

#: A call with the bound under test, and the argument its message names.
BOUNDS = [
    pytest.param(
        lambda c: series.TruncatedSeries.from_coefficients([1], c),
        "cutoff",
        id="TruncatedSeries.from_coefficients",
    ),
    pytest.param(
        lambda c: series.GradedLieDims.from_dims([1, 2, 3], c),
        "cutoff",
        id="GradedLieDims.from_dims",
    ),
    pytest.param(
        lambda c: series.GradedLieDims((4, 5, 6)).truncate(c),
        "cutoff",
        id="GradedLieDims.truncate",
    ),
    pytest.param(
        lambda c: series.pbw_expand(series.GradedLieDims((1,)), c), "cutoff", id="pbw_expand"
    ),
    pytest.param(
        lambda c: series.lie_ring_weight_counts({1: 2}, c), "cutoff", id="lie_ring_weight_counts"
    ),
    pytest.param(lambda c: homotopy.hilton_milnor({3: 1}, c), "cutoff", id="hilton_milnor"),
    pytest.param(lambda c: homotopy.loop_factors(N2, B2, c), "cutoff", id="loop_factors"),
    pytest.param(
        lambda c: homotopy.loop_homology_series(homotopy.decompose(N2, B2), c),
        "cutoff",
        id="loop_homology_series",
    ),
    pytest.param(lambda c: rational.hilbert_series(P2, c), "cutoff", id="hilbert_series"),
    pytest.param(
        lambda c: rational.quadratic_dual_dims(P2, c), "max_weight", id="quadratic_dual_dims"
    ),
    pytest.param(lambda c: rational.koszul_dual_series(P2, c), "cutoff", id="koszul_dual_series"),
    pytest.param(lambda c: rational.lie_dims(P2, c), "cutoff", id="lie_dims"),
    pytest.param(
        lambda c: rational.ranks_from_decomposition(FACTORS, c),
        "cutoff",
        id="ranks_from_decomposition",
    ),
    pytest.param(
        lambda c: rational.free_graded_lie_dims([1], c), "cutoff", id="free_graded_lie_dims"
    ),
    pytest.param(
        lambda c: rational.cdga_cohomology(rational.d1_model(), c), "cutoff", id="cdga_cohomology"
    ),
    pytest.param(lambda c: groups.pi_manifold(FACTORS, TABLE, c), "k", id="pi_manifold"),
]


@pytest.mark.parametrize("value", [True, 3.0, 2.5], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("call, name", BOUNDS)
def test_bound_is_an_exact_int(call, name, value):
    with pytest.raises(InputError, match=f"^{name} must be an int, got {value!r}$"):
        call(value)
    call(3)  # the same call with an int runs


#: The bounds that refuse cutoff -1 with an ``InputError`` naming the bound,
#: before any work; ``loop_factors`` starts at 1 and ``pi_manifold`` at 2.
NONNEGATIVE = {
    "TruncatedSeries.from_coefficients",
    "GradedLieDims.from_dims",
    "GradedLieDims.truncate",
    "pbw_expand",
    "lie_ring_weight_counts",
    "hilton_milnor",
    "loop_homology_series",
    "hilbert_series",
    "quadratic_dual_dims",
    "koszul_dual_series",
    "lie_dims",
    "ranks_from_decomposition",
    "free_graded_lie_dims",
    "cdga_cohomology",
}


@pytest.mark.parametrize("call, name", [p for p in BOUNDS if p.id in NONNEGATIVE])
def test_negative_cutoff_is_refused(call, name):
    with pytest.raises(InputError, match=f"^{name} must be >= 0$"):
        call(-1)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: rational.free_graded_lie_dims([True], 3),
            "generator degree must be an int, got True",
            id="free_lie_bool_degree",
        ),
        pytest.param(
            lambda: rational.free_graded_lie_dims([1.0], 3),
            "generator degree must be an int, got 1.0",
            id="free_lie_float_degree",
        ),
        pytest.param(  # counted with the 1 before it, True would pass as a 1
            lambda: rational.free_graded_lie_dims([1, True], 3),
            "generator degree must be an int, got True",
            id="free_lie_bool_after_equal_int",
        ),
        pytest.param(
            lambda: rational.free_graded_lie_dims([2, 1, 2.0], 3),
            "generator degree must be an int, got 2.0",
            id="free_lie_float_after_equal_int",
        ),
        pytest.param(
            lambda: rational.free_graded_lie_dims({2: 1.0}, 3),
            "generator count must be an int, got 1.0",
            id="free_lie_float_count",
        ),
        pytest.param(
            lambda: groups.pi_sphere(TABLE, True, 3),
            "sphere dimension must be an int, got True",
            id="pi_sphere_bool_n",
        ),
        pytest.param(
            lambda: groups.pi_sphere(TABLE, 2.0, 3),
            "sphere dimension must be an int, got 2.0",
            id="pi_sphere_float_n",
        ),
        pytest.param(
            lambda: groups.pi_sphere(TABLE, 2, 3.0),
            "degree must be an int, got 3.0",
            id="pi_sphere_float_k",
        ),
        pytest.param(
            lambda: series.lie_ring_weight_counts({1: 2.0}, 3),
            "letter count must be an int, got 2.0",
            id="weight_counts_float_count",
        ),
        pytest.param(
            lambda: series.lie_ring_weight_counts({True: 2}, 3),
            "letter weight must be an int, got True",
            id="weight_counts_bool_weight",
        ),
    ],
)
def test_no_other_integer_is_coerced(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


N0 = new_four_manifold([])
B0 = bundle_from_classes(N0, [], 0)


#: Refusals at the library's edges, each with its exception type and message.
REFUSALS = [
    pytest.param(
        lambda: rational.make_sullivan_model([("a", 2), ("a", 3)], {}),
        InputError,
        "generator names must be distinct",
        id="model_duplicate_name",
    ),
    pytest.param(
        lambda: rational.make_sullivan_model([("a", 0)], {}),
        InputError,
        "generator degrees must be >= 1",
        id="model_degree_zero",
    ),
    pytest.param(
        lambda: rational.make_sullivan_model([("a", 2)], {"b": {(1,): 1}}),
        InputError,
        "differential given for unknown generator 'b'",
        id="model_unknown_generator",
    ),
    pytest.param(
        lambda: rational.make_sullivan_model([("a", 2), ("b", 3)], {"b": {(2,): 1}}),
        InputError,
        "monomial exponent tuple has the wrong length",
        id="model_short_exponents",
    ),
    pytest.param(
        lambda: rational.coformality_check(N0, B0),
        InputError,
        "coformality_check needs d >= 1",
        id="coformality_d0",
    ),
    pytest.param(
        lambda: homotopy.y_space_report(N0, B0),
        WrongDimension,
        "the Y-space analysis needs d >= 1, got d=0",
        id="y_space_d0",
    ),
    pytest.param(
        lambda: groups.pi_sphere(TABLE, 0, 3),
        InputError,
        "sphere dimension and degree must be >= 1",
        id="pi_sphere_n0",
    ),
    pytest.param(
        lambda: groups.FGAbelianGroup.from_orders(2, free_rank=2.5),
        InputError,
        "group orders and free rank must be integers",
        id="from_orders_float_rank",
    ),
    pytest.param(
        lambda: N2.pairing([1]),
        WrongDimension,
        "vectors must have length d=2",
        id="pairing_short_vector",
    ),
    pytest.param(
        lambda: pairing_parity(N2, [1, 0, 0]),
        NotPrimitive,
        "beta must be a primitive class of length d=2",
        id="pairing_parity_long_vector",
    ),
    pytest.param(
        lambda: det_int([[1, 2]]), InputError, "matrix is not square", id="det_not_square"
    ),
    pytest.param(
        lambda: series.TruncatedSeries.one(2)[3],
        IndexError,
        "degree 3 outside cutoff 2",
        id="series_past_cutoff",
    ),
    pytest.param(
        lambda: series.TruncatedSeries((1, Fraction(1, 2))).integer_coefficients(),
        ValueError,
        "coefficient of degree 1 is not an integer: 1/2",
        id="series_half_coefficient",
    ),
    pytest.param(
        lambda: series.GradedLieDims((1,)).dim(0),
        InputError,
        "degrees start at 1",
        id="lie_dims_degree_zero",
    ),
] + [
    pytest.param(
        lambda f=f: f(5), TypeError, "not a homotopy expression: 5", id=f"{f.__name__}_non_node"
    )
    for f in (homotopy.normalize, homotopy.render, homotopy.ast_to_json)
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_det_of_a_zero_column_is_zero():
    # no row below the first pivot is nonzero: elimination stops at once
    assert det_int([[0, 0], [0, 0]]) == 0
