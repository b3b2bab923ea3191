import random
from fractions import Fraction
from math import gcd

import pytest

from loopsix import linalg, rational
from loopsix.linalg import quotient_map, rank, rref
from loopsix.manifold import bundle_from_classes, new_four_manifold
from loopsix.rational import (
    _d_monomial,
    _monomial_bases,
    d1_model,
    d1_model_parameter,
    quadratic_dual_dims,
)

from conftest import (
    nullspace_by_fractions,
    rref_by_fractions,
    spec_and_random_presentations,
    sparse,
)


def reference_rank(rows):
    return len(rref_by_fractions(rows)[1]) if rows else 0


def same_span(a, b):
    return reference_rank(a) == reference_rank(b) == reference_rank(a + b)


def read_off_basis(rows, columns, unit=1):
    """The map :func:`quotient_map` reads off on ``columns``, transposed:
    one dense vector per coordinate, indexed by position in ``columns``."""
    image, pivots = quotient_map(rows, columns, unit)
    assert sorted(image) == sorted(columns)
    basis = [[0] * len(columns) for _ in range(len(columns) - len(pivots))]
    for k, c in enumerate(columns):
        for q, x in image[c].items():
            basis[q][k] = x
    return basis


def random_matrix(rng, nrows, ncols, rank_bound):
    """Rows mixed from ``rank_bound`` random rows, with small non-integral
    entries, so that the rank is at most ``rank_bound``."""

    def entry():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))

    seeds = [[entry() for _ in range(ncols)] for _ in range(rank_bound)]
    return [
        [sum((entry() * s[c] for s in seeds), Fraction(0)) for c in range(ncols)]
        for _ in range(nrows)
    ]


def d1_model_differentials(p1):
    """Differential matrices of the d = 1 Sullivan model with k = -p1/4, one
    per degree: rows are monomials, columns their images' monomials."""
    N = new_four_manifold([[1]])
    model = d1_model(d1_model_parameter(bundle_from_classes(N, [1], p1)))
    bases = _monomial_bases(model, 8)
    matrices = []
    for q in range(8):
        index = {m: i for i, m in enumerate(bases[q + 1])}
        rows = []
        for mono in bases[q]:
            row = [Fraction(0)] * len(bases[q + 1])
            for m, c in _d_monomial(mono, model).items():
                row[index[m]] = c
            rows.append(row)
        if rows and bases[q + 1]:
            matrices.append(rows)
    return matrices


#: Rows that drive the forward pass down its branches.
FORWARD_CASES = {
    # the last row's leading column moves 0 -> 1 -> 2 -> 3
    "leading_column_moves": [
        [1, 0, 0, 0, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [1, 1, 1, 1, 0],
    ],
    "negative_leading_entry": [[-2, 4, 1], [0, -3, 6], [-1, 0, 0]],
    "duplicate_rows": [[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1], [0, 1, 1]],
    "rows_reduce_to_zero": [[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 0, -2], [0, 0, 0]],
    "fraction_rows": [
        [Fraction(1, 2), Fraction(-1, 3), 0, 1],
        [Fraction(-3, 4), 1, Fraction(5, 6), 0],
        [Fraction(-1, 4), Fraction(2, 3), Fraction(5, 6), 1],
        [0, Fraction(7, 5), Fraction(-1, 2), 3],
    ],
}


def matrices():
    rng = random.Random(20)
    shapes = [(6, 9, 4), (9, 6, 6), (5, 5, 0)] + [
        (rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 6)) for _ in range(20)
    ]
    out = [random_matrix(rng, *shape) for shape in shapes]
    out += [m for p1 in (1, 5, -3) for m in d1_model_differentials(p1)]
    out += [pytest.param(rows, id=name) for name, rows in FORWARD_CASES.items()]
    return out


@pytest.mark.parametrize("rows", matrices())
class TestAgainstFractionElimination:
    def test_rref_is_the_scaled_rref(self, rows):
        reduced, pivots = rref(sparse(rows))
        expected, expected_pivots = rref_by_fractions(rows)
        assert pivots == expected_pivots
        for row, col, ref in zip(reduced, pivots, expected):
            assert all(isinstance(x, int) and x for x in row.values())
            assert gcd(*row.values()) == 1 and row[col] > 0
            assert [row.get(c, 0) for c in range(len(ref))] == [
                row[col] * x for x in ref
            ]

    def test_rank(self, rows):
        assert rank(sparse(rows)) == reference_rank(rows)

    def test_nullspace_spans_the_kernel(self, rows):
        """Transposed, the map :func:`quotient_map` reads off is an integer
        basis of the right kernel."""
        ncols = len(rows[0])
        image, _ = quotient_map(sparse(rows), range(ncols), 1)
        assert all(isinstance(x, int) and x for v in image.values() for x in v.values())
        basis = read_off_basis(sparse(rows), list(range(ncols)))
        assert all(
            sum((a * x for a, x in zip(row, v)), Fraction(0)) == 0
            for row in rows
            for v in basis
        )
        assert same_span(basis, nullspace_by_fractions(rows, ncols))
        assert len(basis) == ncols - reference_rank(rows)


def test_d1_model_has_non_integral_entries():
    entries = {x for m in d1_model_differentials(5) for row in m for x in row}
    assert any(Fraction(x).denominator > 1 for x in entries)


def test_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rank(sparse([[0, 0], [Fraction(0), 0]])) == 0
    assert quotient_map([], range(2), 1) == ({0: {0: 1}, 1: {1: 1}}, [])
    assert same_span(read_off_basis([], [0, 1]), nullspace_by_fractions([], 2))


def test_quotient_map_coordinates():
    """A column left out of ``columns`` gets no image, the coordinates
    number the free columns in the order given, and each coordinate's scale
    is the lcm of ``unit`` and the pivot entries of the rows reaching it."""
    rows = [{0: 1, 3: 2}, {1: 1, 3: -1}]
    image, pivots = quotient_map(rows, [0, 1, 3, 4], 1)
    assert pivots == [0, 1]
    assert image == {3: {0: 1}, 4: {1: 1}, 0: {0: -2}, 1: {0: 1}}
    assert quotient_map([{0: 2, 2: 1}], [0, 2], 1) == ({2: {0: 2}, 0: {0: -1}}, [0])
    assert quotient_map([{0: 2, 2: 1}], [0, 2], 3) == ({2: {0: 6}, 0: {0: -3}}, [0])
    assert quotient_map([{0: 2, 2: 1}], [0, 2], 4) == ({2: {0: 4}, 0: {0: -2}}, [0])


def test_input_is_not_modified():
    rows = sparse([[Fraction(1, 2), 2], [3, Fraction(-4, 3)]])
    copy = [dict(r) for r in rows]
    rref(rows)
    assert rows == copy


def test_rows_reduce_only_at_their_leading_column(monkeypatch):
    columns = []
    original = linalg._eliminate

    def counted(row, pivot_row, col):
        columns.append(col)
        return original(row, pivot_row, col)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert rank(sparse(FORWARD_CASES["leading_column_moves"])) == 4
    assert columns == [0, 1, 2]


@pytest.mark.parametrize("p", spec_and_random_presentations(6))
def test_rank_is_the_rref_pivot_count_on_dual_check_matrices(monkeypatch, p):
    """On the matrices the dual check hands to ``rank`` and ``quotient_map``,
    ``rank`` is the pivot count of ``rref``, and the read-off, where each
    quotient map comes from, transposed spans the kernel of the Fraction
    reference on the columns it was given (on all columns up to the last
    one a row reaches, for the ranked matrix)."""
    ranked, read = [], []

    def ranking(rows):
        ranked.append(rows)
        return rank(rows)

    def reading(rows, columns, unit):
        read.append((rows, list(columns), unit))
        return quotient_map(rows, columns, unit)

    monkeypatch.setattr(rational, "rank", ranking)
    monkeypatch.setattr(rational, "quotient_map", reading)
    quadratic_dual_dims(p, 6)
    assert len(ranked) == 1 and read
    last = ranked[0]
    read.append((last, list(range(1 + max((c for row in last for c in row), default=-1))), 1))
    for rows, columns, unit in read:
        assert rank(rows) == len(rref(rows)[1])
        position = {c: k for k, c in enumerate(columns)}
        dense = [[0] * len(columns) for _ in rows]
        for row, out in zip(rows, dense):
            for c, x in row.items():
                out[position[c]] = x
        basis = read_off_basis(rows, columns, unit)
        assert same_span(basis, nullspace_by_fractions(dense, len(columns)))
