"""Small exact linear algebra over the integers (and so over the rationals).

Matrices are lists of sparse rows (:data:`Row`).  One elimination kernel,
:func:`rref`: fraction-free Gauss-Jordan elimination.  Denominators are
cleared once on entry; rows are then combined by cross-multiplication and
kept primitive, so no Fraction is ever formed and the entries stay small.
``rank`` and ``nullspace`` are read off its result, and ``nullspace`` also
gives the quadratic dual check its quotient maps; ``det_int`` is Bareiss on
a square dense matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rational = int | Fraction
#: A sparse row: column index -> nonzero entry.  ``rref`` and ``rank`` also
#: take Fraction entries; every row they and ``nullspace`` return is integer.
Row = dict[int, int]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free).

    The empty 0x0 matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    return row if g <= 1 else {c: x // g for c, x in row.items()}


def _eliminate(row: Row, pivot_row: Row, col: int) -> Row:
    """The primitive part of ``a * row - b * pivot_row``, with ``a > 0`` and
    ``b`` coprime, that cancels the entry at ``col``."""
    g = gcd(pivot_row[col], row[col])
    a, b = pivot_row[col] // g, row[col] // g
    out = dict(row) if a == 1 else {c: a * x for c, x in row.items()}
    for c, y in pivot_row.items():
        value = out.get(c, 0) - b * y
        if value:
            out[c] = value
        else:
            del out[c]
    return _primitive(out) if out else out


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over the integers; returns (rows, pivots).

    ``rows`` are sparse rows whose entries are ints or Fractions.  Each
    returned row is a sparse primitive integer row with a positive entry at
    its pivot and zeros in every other pivot column; pivots ascend.  Up to
    these positive scalars it is the reduced row echelon form over Q.
    """
    reduced: dict[int, Row] = {}
    for row in rows:
        try:
            row = _primitive(row)
        except TypeError:  # a Fraction entry: clear denominators first
            row = dict(zip(row, integer_primitive(list(row.values()))))
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        if not row:
            continue
        # the leading column: earlier pivot rows stay zero left of their pivot
        col = min(row)
        if row[col] < 0:
            row = {c: -x for c, x in row.items()}
        for pc, other in reduced.items():
            if col in other:
                reduced[pc] = _eliminate(other, row, col)
        reduced[col] = row
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def rank(rows: list[Row]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Integer basis of the right kernel ``{v : M v = 0}`` of the matrix
    with these rows and ``ncols`` columns.

    One sparse row per free column ``f`` of :func:`rref`, positive at ``f``
    and zero at the other free columns.
    """
    reduced, pivots = rref(rows)
    # free column -> the pivot rows that reach it
    hits: dict[int, list[tuple[int, Row]]] = {}
    for p, row in zip(pivots, reduced):
        for c in row:
            if c != p:
                hits.setdefault(c, []).append((p, row))
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        column = hits.get(free, [])
        scale = lcm(*[row[p] for p, row in column])
        v = {free: scale}
        for p, row in column:
            v[p] = -(scale // row[p]) * row[free]
        basis.append(v)
    return basis


def integer_primitive(vector: Sequence[Rational]) -> list[int]:
    """Clear denominators and divide by the content; first nonzero entry > 0."""
    denom = lcm(*[x.denominator for x in vector])
    ints = [x.numerator * (denom // x.denominator) for x in vector]
    content = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        content = -content
    return ints if content in (0, 1) else [x // content for x in ints]
