"""Small exact linear algebra over the integers (and so over the rationals).

Matrices are lists of sparse rows (:data:`Row`).  One fraction-free
elimination kernel, ``_forward``, brings rows to echelon form.  Denominators
are cleared once on entry; rows are then combined by cross-multiplication
and kept primitive, so no Fraction is ever formed and the entries stay
small.  ``rank`` is its pivot count; :func:`rref` adds one back-substitution
pass, and ``quotient_map`` reads the quotient by the row space, column by
column, off ``rref``: transposed, that map is a basis of the right kernel.
``det_int`` is Bareiss on a square dense matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputError

Rational = int | Fraction
#: A sparse row: column index -> nonzero entry.  ``rref`` and ``rank`` also
#: take Fraction entries; every row they and ``quotient_map`` return is integer.
Row = dict[int, int]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free).

    The empty 0x0 matrix has determinant 1.  An entry that is not an
    ``int``, such as a float or a bool, raises
    :class:`~loopsix.errors.InputError`.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(type(x) is not int for row in rows for x in row):
        raise InputError("matrix entries must be integers")
    a = [list(row) for row in rows]
    if any(len(row) != n for row in a):
        raise InputError("matrix is not square")
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


def _forward(rows: list[Row]) -> dict[int, Row]:
    """Row echelon form: pivot column -> its pivot row.

    Each row is reduced only at its leading column, until it vanishes or
    opens a new pivot.  Every pivot row is primitive, positive at its pivot
    and zero left of it.
    """
    echelon: dict[int, Row] = {}
    for row in rows:
        try:
            row = _primitive(row)
        except TypeError:  # a Fraction entry: clear denominators first
            row = dict(zip(row, integer_primitive(list(row.values()))))
        while row:
            col = min(row)
            pivot_row = echelon.get(col)
            if pivot_row is None:
                if row[col] < 0:
                    row = {c: -x for c, x in row.items()}
                echelon[col] = row
                break
            row = _eliminate(row, pivot_row, col)
    return echelon


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over the integers; returns (rows, pivots).

    ``rows`` are sparse rows whose entries are ints or Fractions.  Each
    returned row is a sparse primitive integer row with a positive entry at
    its pivot and zeros in every other pivot column; pivots ascend.  Up to
    these positive scalars it is the reduced row echelon form over Q, so it
    is unique.  The echelon form is reduced upwards once, from the last
    pivot: each row meets only pivot rows that are already reduced.
    """
    echelon = _forward(rows)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        row = echelon[p]
        for c in [c for c in row if c != p and c in echelon]:
            row = _eliminate(row, echelon[c], c)
        echelon[p] = row
    return [echelon[p] for p in pivots], pivots


def rank(rows: list[Row]) -> int:
    """Rank over Q: the pivot count of the echelon form, with no
    back-substitution."""
    return len(_forward(rows))


def quotient_map(
    rows: list[Row], columns: Iterable[int], unit: int
) -> tuple[dict[int, Row], list[int]]:
    """The quotient of the span of ``columns``, which hold every entry of
    the rows, by the row space, read off :func:`rref`: returns (map, pivots).

    One coordinate per free column f, in the order of ``columns``.  Column
    f maps to ``L_f`` there, and the pivot p of each row ``r_p`` to ``-(L_f
    // r_p[p]) * r_p[f]``, with ``L_f`` the lcm of ``unit`` and the pivot
    entries of the rows that reach f.  Transposed, the map is an integer
    basis of the right kernel ``{v : M v = 0}``.
    """
    reduced, pivots = rref(rows)
    echelon = dict(zip(pivots, reduced))
    scale: dict[int, int] = {}
    for p, r in echelon.items():
        for c in r:
            scale[c] = lcm(scale.get(c, unit), r[p])
    image: dict[int, Row] = {}
    coord: dict[int, int] = {}
    for c in columns:
        if c not in echelon:
            coord[c] = q = len(coord)
            image[c] = {q: scale.get(c, unit)}
    for p, r in echelon.items():
        image[p] = {coord[c]: -(scale[c] // r[p]) * x for c, x in r.items() if c != p}
    return image, pivots


def integer_primitive(vector: Sequence[Rational]) -> list[int]:
    """Clear denominators and divide by the content; first nonzero entry > 0."""
    denom = lcm(*[x.denominator for x in vector])
    ints = [x.numerator * (denom // x.denominator) for x in vector]
    content = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        content = -content
    return ints if content in (0, 1) else [x // content for x in ints]
