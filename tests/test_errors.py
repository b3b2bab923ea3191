"""Degree bounds and counts are exact ints: a bool or a float is refused.

Each public function that takes a cutoff, a degree or a count checks it once
at its entry with ``errors._require_int`` and raises :class:`InputError`
naming the argument, before its own range check.
"""

import pytest

from loopsix import groups, homotopy, rational, series
from loopsix.errors import InputError
from loopsix.manifold import bundle_from_classes, cohomology_ring, new_four_manifold

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
    pytest.param(lambda c: homotopy.bouquet_spheres(3, c), "cutoff", id="bouquet_spheres"),
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
    "bouquet_spheres",
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
            lambda: homotopy.bouquet_spheres(3.0, 4),
            "d must be an int, got 3.0",
            id="bouquet_float_d",
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
