"""Intersection forms, rank-3 bundle data, and the cohomology ring of the
total space of the associated 2-sphere bundle.

A simply connected closed 4-manifold ``N`` is recorded by its intersection
form ``Q``, a symmetric unimodular integer matrix on a basis ``x_1..x_d`` of
``H^2(N; Z)`` (``d = 0`` means the 4-sphere).  A rank-3 vector bundle over
``N`` is determined by ``(w2, p1)``; internally we carry the equivalent pair
``(alpha, ell)`` where ``alpha`` is an integer lift of ``w2`` and ``ell`` is
the level of the bundle's 4-sphere component, so that

    p1 = 4 * ell + alpha^T Q alpha.

The sphere bundle of such a bundle is a closed 6-manifold ``M`` whose
cohomology is additively ``H^*(N) (x) H^*(S^2)``.  The multiplicative rule
used here is ``t^2 = sum_i alpha_i t*x_i + ell*y`` for the fiber class ``t``;
see the module tests for the validations (graded commutativity,
associativity, Poincare duality) that pin this choice down rationally.
"""

from __future__ import annotations

from math import gcd
from typing import Literal, Sequence

from ._record import Frozen, Record
from .errors import InputError, UnsupportedCase
from .linalg import det_int


class NotSymmetric(InputError):
    """Intersection form matrix is not symmetric."""


class NotUnimodular(InputError):
    """Intersection form determinant is not +-1."""


class InvalidBundle(InputError):
    """No rank-3 bundle realizes the requested (w2, p1)."""


class NotPrimitive(InputError):
    """A class that must be primitive (content 1) is not."""


class WrongDimension(InputError):
    """Operation applied at the wrong rank d."""


class FourManifold(Record):
    """A simply connected closed 4-manifold, encoded by its intersection form.

    ``determinant`` is the form's, +1 or -1: :func:`new_four_manifold`
    computes it once to validate the form and keeps it.
    """

    __slots__ = ("form", "determinant")
    form: tuple[tuple[int, ...], ...]
    determinant: int

    def __init__(self, form, determinant) -> None:
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "determinant", determinant)

    @property
    def d(self) -> int:
        return len(self.form)

    def pairing(self, u: Sequence[int]) -> int:
        """The self-pairing ``u^T Q u``."""
        if len(u) != self.d:
            raise WrongDimension(f"vectors must have length d={self.d}")
        if any(type(x) is not int for x in u):
            raise InputError("vector entries must be integers")
        # alpha is a 0/1 vector: skip the rows its zeros select
        return sum(
            x * sum([q * y for q, y in zip(row, u)])
            for x, row in zip(u, self.form)
            if x
        )


def new_four_manifold(entries: Sequence[Sequence[int]]) -> FourManifold:
    """Validate and wrap an intersection form.

    >>> new_four_manifold([[0, 1], [1, 0]]).d
    2
    """
    rows = tuple([tuple(row) for row in entries])
    if any(type(x) is not int for row in rows for x in row):
        raise InputError("intersection form entries must be integers")
    d = len(rows)
    for row in rows:
        if len(row) != d:
            raise NotSymmetric("intersection form must be a square matrix")
    for i in range(d):
        for j in range(i + 1, d):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(
                    f"form is not symmetric at ({i}, {j}): {rows[i][j]} vs {rows[j][i]}"
                )
    det = det_int(rows)
    if det not in (1, -1):
        raise NotUnimodular(f"|det Q| must be 1, got det = {det}")
    return FourManifold(rows, det)


class BundleData(Record):
    """A rank-3 bundle over N in (w2, p1) / (alpha, ell) form."""

    __slots__ = ("w2", "p1", "alpha", "ell")
    w2: tuple[int, ...]
    p1: int
    alpha: tuple[int, ...]
    ell: int

    def __init__(self, w2, p1, alpha, ell) -> None:
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ell", ell)

    @property
    def d(self) -> int:
        return len(self.w2)


def validate_bundle(N: FourManifold, b: BundleData) -> None:
    """Check the defining congruences of a bundle datum against N.

    The canonical constructor is :func:`bundle_from_classes`; this hook exists
    so alternative lifts ``alpha`` (differing by twice an integral class) can
    be built directly and still be sanity-checked.
    """
    if b.d != N.d or len(b.alpha) != N.d:
        raise WrongDimension("bundle vectors must have length d")
    if any(type(x) is not int for x in (*b.w2, *b.alpha, b.p1, b.ell)):
        raise InvalidBundle("w2, alpha, p1 and ell must be integers")
    if any(x not in (0, 1) for x in b.w2):
        raise InvalidBundle("w2 entries must be 0 or 1")
    if any((a - w) % 2 for a, w in zip(b.alpha, b.w2)):
        raise InvalidBundle("alpha must reduce to w2 mod 2")
    if b.p1 != 4 * b.ell + N.pairing(b.alpha):
        raise InvalidBundle("p1 != 4*ell + alpha^T Q alpha")
    if any(b.w2) and gcd(*b.alpha) != 1:
        raise NotPrimitive("non-Spin bundles need a primitive lift alpha")


def bundle_from_classes(
    N: FourManifold, w2: Sequence[int], p1: int
) -> BundleData:
    """Solve ``(w2, p1)`` for the pair ``(alpha, ell)``.

    ``alpha`` is the entrywise {0,1} lift of ``w2`` (which is automatically
    primitive when ``w2 != 0``), and ``ell = (p1 - alpha^T Q alpha) / 4``.
    Raises :class:`InvalidBundle` when the congruence
    ``p1 = alpha^T Q alpha (mod 4)`` fails -- no rank-3 bundle realizes the
    pair -- since the congruence class does not depend on the chosen lift.
    Every condition of :func:`validate_bundle` holds by construction.
    """
    if len(w2) != N.d:
        raise InvalidBundle(f"w2 must have length d={N.d}")
    alpha = tuple(w2)  # smallest lexicographic lift; gcd is 1 whenever w2 != 0
    if any(type(x) is not int or x not in (0, 1) for x in alpha):
        raise InvalidBundle("w2 entries must be 0 or 1")
    if type(p1) is not int:
        raise InvalidBundle(f"p1 must be an integer, got {p1!r}")
    square = N.pairing(alpha)
    quotient, remainder = divmod(p1 - square, 4)
    if remainder:
        raise InvalidBundle(
            f"p1 = {p1} is not congruent to alpha^T Q alpha = {square} mod 4; "
            "no rank-3 bundle has these classes"
        )
    return BundleData(w2=alpha, p1=p1, alpha=alpha, ell=quotient)


def is_spin(b: BundleData) -> bool:
    """True iff ``w2 = 0`` (always true over the 4-sphere)."""
    return not any(b.w2)


def pairing_parity(N: FourManifold, beta: Sequence[int]) -> Literal["odd", "even"]:
    """Parity of the self-pairing ``beta^T Q beta`` of a primitive class."""
    if len(beta) != N.d or N.d == 0:
        raise NotPrimitive(f"beta must be a primitive class of length d={N.d}")
    parity = N.pairing(beta) % 2  # refuses inexact entries before gcd reads them
    g = gcd(*beta)
    if g != 1:
        raise NotPrimitive(f"beta has content {g}, expected a primitive class")
    return "odd" if parity else "even"


def loop_rigidity_equivalent(
    a: tuple[FourManifold, BundleData], b: tuple[FourManifold, BundleData]
) -> bool:
    """Whether the two 6-manifolds have equivalent based loop spaces.

    For ``d >= 1`` the loop space depends only on ``d = rank H^2(N)``, so this
    is simply ``d_a == d_b``.  Over the 4-sphere the answer depends on the
    attaching number instead, and some attaching numbers have no known
    decomposition; callers should compare normalized decompositions there.
    """
    (Na, _), (Nb, _) = a, b
    if Na.d == 0 or Nb.d == 0:
        raise UnsupportedCase(
            "loop rigidity by rank applies only for d >= 1; "
            "compare normalized decompositions for d = 0"
        )
    return Na.d == Nb.d


class SixManifoldRing(Frozen):
    """Rational cohomology ring of the sphere-bundle 6-manifold.

    Basis labels: ``1``, ``x1..xd`` and ``t`` in degree 2, ``t*x1..t*xd`` and
    ``y`` in degree 4, ``top`` in degree 6.  The product table is
    graded-commutative and stores only nonzero products: a pair of basis
    labels it lacks multiplies to zero.  All structure constants are integers.
    """

    __slots__ = ("d", "basis", "_degrees", "_table")
    d: int
    basis: tuple[str, ...]
    _degrees: dict
    _table: dict

    def __init__(self, d, basis, _degrees, _table) -> None:
        self._assign(d, basis, _degrees, _table)

    def basis_of_degree(self, degree: int) -> tuple[str, ...]:
        return tuple([l for l in self.basis if self._degrees[l] == degree])

    def betti(self) -> tuple[int, int, int, int]:
        """Dimensions in degrees (0, 2, 4, 6); odd degrees vanish."""
        return (1, self.d + 1, self.d + 1, 1)

    def product(self, a: str, b: str) -> dict[str, int]:
        """Product of two basis elements as a sparse vector."""
        return dict(self._table.get((a, b), {}))

    def multiply(self, u: dict[str, int], v: dict[str, int]) -> dict[str, int]:
        """Bilinear extension of the basis product table."""
        out: dict[str, int] = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                for lc, cc in self._table.get((la, lb), {}).items():
                    out[lc] = out.get(lc, 0) + ca * cb * cc
        return {k: v for k, v in out.items() if v != 0}

    def pairing_matrix(self) -> list[list[int]]:
        """Poincare pairing H^2 x H^4 -> H^6 in the stored bases."""
        deg2 = self.basis_of_degree(2)
        deg4 = self.basis_of_degree(4)
        return [
            [self._table.get((a, b), {}).get("top", 0) for b in deg4]
            for a in deg2
        ]


def cohomology_ring(N: FourManifold, b: BundleData) -> SixManifoldRing:
    """Build the rational cohomology ring of the sphere-bundle 6-manifold.

    Products: ``x_i x_j = Q_ij y``, ``x_i y = 0``, ``t^2 = sum alpha_i t*x_i
    + ell y``, ``t y = top``; everything else follows by bilinearity,
    graded commutativity and associativity.
    """
    validate_bundle(N, b)
    d = N.d
    Q = N.form
    alpha = b.alpha
    xs = [f"x{i+1}" for i in range(d)]
    txs = [f"t*x{i+1}" for i in range(d)]
    basis = ("1", *xs, "t", *txs, "y", "top")
    degrees = {"1": 0, "t": 2, "y": 4, "top": 6, **dict.fromkeys(xs, 2)}
    degrees.update(dict.fromkeys(txs, 4))

    # one pass over Q and alpha, storing only nonzero products
    table: dict[tuple[str, str], dict[str, int]] = {}
    for a in basis:
        table["1", a] = table[a, "1"] = {a: 1}
    tt: dict[str, int] = {}  # t^2
    for i, (xi, txi, row, a) in enumerate(zip(xs, txs, Q, alpha)):
        for xj, q in zip(xs[i:], row[i:]):
            if q:
                table[xi, xj] = table[xj, xi] = {"y": q}
        table[xi, "t"] = table["t", xi] = {txi: 1}
        q_alpha = 0
        for txj, q, aj in zip(txs, row, alpha):
            if q:
                table[xi, txj] = table[txj, xi] = {"top": q}
                q_alpha += q * aj
        if q_alpha:
            table["t", txi] = table[txi, "t"] = {"top": q_alpha}
        if a:
            tt[txi] = a
    if b.ell:
        tt["y"] = b.ell
    if tt:
        table["t", "t"] = tt
    table["t", "y"] = table["y", "t"] = {"top": 1}

    return SixManifoldRing(d=d, basis=basis, _degrees=degrees, _table=table)
