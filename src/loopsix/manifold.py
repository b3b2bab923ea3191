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

from dataclasses import dataclass
from math import gcd
from typing import Literal, Sequence

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


@dataclass(frozen=True)
class FourManifold:
    """A simply connected closed 4-manifold, encoded by its intersection form.

    ``determinant`` is the form's, +1 or -1: :func:`new_four_manifold`
    computes it once to validate the form and keeps it.
    """

    form: tuple[tuple[int, ...], ...]
    determinant: int

    @property
    def d(self) -> int:
        return len(self.form)

    def pairing(self, u: Sequence[int], v: Sequence[int] | None = None) -> int:
        """``u^T Q v`` (``v`` defaults to ``u``)."""
        if v is None:
            v = u
        if len(u) != self.d or len(v) != self.d:
            raise WrongDimension(f"vectors must have length d={self.d}")
        return sum(
            int(u[i]) * self.form[i][j] * int(v[j])
            for i in range(self.d)
            for j in range(self.d)
        )


def new_four_manifold(entries: Sequence[Sequence[int]]) -> FourManifold:
    """Validate and wrap an intersection form.

    >>> new_four_manifold([[0, 1], [1, 0]]).d
    2
    """
    rows = tuple([tuple([int(x) for x in row]) for row in entries])
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


@dataclass(frozen=True)
class BundleData:
    """A rank-3 bundle over N in (w2, p1) / (alpha, ell) form."""

    w2: tuple[int, ...]
    p1: int
    alpha: tuple[int, ...]
    ell: int

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
    if any(x not in (0, 1) for x in b.w2):
        raise InvalidBundle("w2 entries must be 0 or 1")
    if any((a - w) % 2 for a, w in zip(b.alpha, b.w2)):
        raise InvalidBundle("alpha must reduce to w2 mod 2")
    if b.p1 != 4 * b.ell + N.pairing(b.alpha):
        raise InvalidBundle("p1 != 4*ell + alpha^T Q alpha")
    if any(b.w2):
        g = 0
        for x in b.alpha:
            g = gcd(g, x)
        if g != 1:
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
    """
    if len(w2) != N.d:
        raise InvalidBundle(f"w2 must have length d={N.d}")
    w = tuple([int(x) % 2 for x in w2])
    alpha = w  # smallest lexicographic lift; gcd is 1 whenever w != 0
    square = N.pairing(alpha)
    quotient, remainder = divmod(int(p1) - square, 4)
    if remainder:
        raise InvalidBundle(
            f"p1 = {p1} is not congruent to alpha^T Q alpha = {square} mod 4; "
            "no rank-3 bundle has these classes"
        )
    b = BundleData(w2=w, p1=int(p1), alpha=alpha, ell=quotient)
    validate_bundle(N, b)
    return b


def is_spin(b: BundleData) -> bool:
    """True iff ``w2 = 0`` (always true over the 4-sphere)."""
    return not any(b.w2)


def pairing_parity(N: FourManifold, beta: Sequence[int]) -> Literal["odd", "even"]:
    """Parity of the self-pairing ``beta^T Q beta`` of a primitive class."""
    if len(beta) != N.d or N.d == 0:
        raise NotPrimitive(f"beta must be a primitive class of length d={N.d}")
    g = 0
    for x in beta:
        g = gcd(g, int(x))
    if g != 1:
        raise NotPrimitive(f"beta has content {g}, expected a primitive class")
    return "odd" if N.pairing(beta) % 2 else "even"


@dataclass(frozen=True)
class CellStructureD0:
    """Cell structure ``S^2 u_{k eta} e^4 u e^6`` of M over the 4-sphere."""

    k: int


def d0_cell_structure(b: BundleData) -> CellStructureD0:
    """Attaching number of the middle cell for bundles over the 4-sphere.

    Normalized to ``k = |ell|``: every invariant read off downstream (the
    order of pi_3, the prime factors entering the decomposition) depends only
    on ``|k|``, and orientation-sensitive signs are out of scope.
    """
    if b.d != 0:
        raise WrongDimension(f"cell structure of this form needs d=0, got d={b.d}")
    return CellStructureD0(k=abs(b.ell))


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


@dataclass(frozen=True, eq=False)
class SixManifoldRing:
    """Rational cohomology ring of the sphere-bundle 6-manifold.

    Basis labels: ``1``, ``x1..xd`` and ``t`` in degree 2, ``t*x1..t*xd`` and
    ``y`` in degree 4, ``top`` in degree 6.  The product table is complete
    and graded-commutative; all structure constants are integers.
    """

    d: int
    ell: int
    alpha: tuple[int, ...]
    basis: tuple[str, ...]
    _degrees: dict
    _table: dict

    def degree_of(self, label: str) -> int:
        return self._degrees[label]

    def basis_of_degree(self, degree: int) -> tuple[str, ...]:
        return tuple([l for l in self.basis if self._degrees[l] == degree])

    def betti(self) -> tuple[int, int, int, int]:
        """Dimensions in degrees (0, 2, 4, 6); odd degrees vanish."""
        return (1, self.d + 1, self.d + 1, 1)

    def product(self, a: str, b: str) -> dict[str, int]:
        """Product of two basis elements as a sparse vector."""
        return dict(self._table[(a, b)])

    def multiply(self, u: dict[str, int], v: dict[str, int]) -> dict[str, int]:
        """Bilinear extension of the basis product table."""
        out: dict[str, int] = {}
        for la, ca in u.items():
            if ca == 0:
                continue
            for lb, cb in v.items():
                if cb == 0:
                    continue
                for lc, cc in self._table[(la, lb)].items():
                    out[lc] = out.get(lc, 0) + ca * cb * cc
        return {k: v for k, v in out.items() if v != 0}

    def pairing_matrix(self) -> list[list[int]]:
        """Poincare pairing H^2 x H^4 -> H^6 in the stored bases."""
        deg2 = self.basis_of_degree(2)
        deg4 = self.basis_of_degree(4)
        return [
            [self._table[(a, b)].get("top", 0) for b in deg4]
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
    degrees = {"1": 0, "t": 2, "y": 4, "top": 6}
    for x in xs:
        degrees[x] = 2
    for tx in txs:
        degrees[tx] = 4

    q_alpha = [sum(Q[i][j] * alpha[j] for j in range(d)) for i in range(d)]

    table: dict[tuple[str, str], dict[str, int]] = {}

    def put(a: str, c: str, value: dict[str, int]) -> None:
        entry = {k: v for k, v in value.items() if v != 0}
        table[(a, c)] = entry
        table[(c, a)] = dict(entry)

    for a in basis:
        put("1", a, {a: 1})
    for i, xi in enumerate(xs):
        for j in range(i, d):
            put(xi, xs[j], {"y": Q[i][j]})
        put(xi, "t", {txs[i]: 1})
        for j, txj in enumerate(txs):
            put(xi, txj, {"top": Q[i][j]})
        put(xi, "y", {})
        put(xi, "top", {})
    put("t", "t", {**{txs[i]: alpha[i] for i in range(d)}, "y": b.ell})
    for i, txi in enumerate(txs):
        put("t", txi, {"top": q_alpha[i]})
    put("t", "y", {"top": 1})
    put("t", "top", {})
    for i, txi in enumerate(txs):
        for j in range(i, d):
            put(txi, txs[j], {})
        put(txi, "y", {})
        put(txi, "top", {})
    put("y", "y", {})
    put("y", "top", {})
    put("top", "top", {})

    return SixManifoldRing(
        d=d, ell=b.ell, alpha=alpha, basis=basis, _degrees=degrees, _table=table
    )
