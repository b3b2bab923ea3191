"""Rational homotopy of the sphere-bundle 6-manifolds via Koszul duality.

For d >= 2 the rational cohomology of M is a Koszul algebra generated in
degree 2, and the homotopy Lie algebra of M is its Koszul dual; numerically,
the loop-homology series is the reciprocal of the cohomology Hilbert series
evaluated at -t, and PBW inversion of that series yields the degree-wise
ranks of pi_*(Loop M) (x) Q.  For d = 1 this dual reading breaks down -- M is
not coformal -- and the machinery here exposes exactly how it breaks: the
naive dual series disagrees with the true loop homology first in degree 3,
and the explicit Sullivan model of M carries the cubic differential term
``dx = c^3`` that obstructs coformality.

Weight conventions: a cohomology generator in degree 2 has weight 1, and
weight w corresponds to loop-space degree w throughout, so series from this
module compare directly with the decomposition series of
:mod:`loopsix.homotopy`.

A quadratic presentation is its ring: building one checks with one
``rank`` that Sym^2 H^2 -> H^4 is onto, and neither the relation space R
nor its annihilator R_perp is stored.  The direct dual check runs the
presentation on an integral orthogonal basis ``(e_1..e_d, s)`` of H^2(M;
Q) (:func:`_orthogonal_basis`), where R_perp is the d anticommutators
``[eps_i, sigma]`` and one diagonal relation, in closed form.  An
invertible change of basis of V extends to an automorphism of T(V*) that
carries one basis's R_perp, and so the ideal it generates, onto the other's:
the quotient's dimensions do not depend on the basis.  R_perp consists of
Lie elements, so the dual is an enveloping algebra, and by PBW right
multiplication by sigma is injective on it.  Each anticommutator therefore
rewrites ``(b sigma) eps_i`` as ``-(b eps_i) sigma`` with no elimination,
and only the diagonal relation's rows, with that substitution made, reach
``linalg``: each weight's quotient map is read off their echelon form
(``quotient_map``), column by column, and ``rank``, which stops at echelon
form, counts the last weight (:func:`_dual_quotients`).  A
Sullivan model's monomials come from one iterative walk, so its generator
count meets no recursion limit, and its differential from one Leibniz pass
over each monomial.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Literal

from ._record import Frozen, Record
from .errors import InputError, UnsupportedError, _require_int
from .homotopy import LoopFactorMultiset, loop_factors
from .linalg import Rational, Row, integer_primitive, quotient_map, rank
from .manifold import (
    BundleData,
    FourManifold,
    NotUnimodular,
    SixManifoldRing,
    cohomology_ring,
)
from .series import GradedLieDims, TruncatedSeries, _expand, _free_lie_dims
from .series import _log_derivative, _sieve_dims


# Depth of ``describe``'s two-route check, and of every printed coformality witness.
WITNESS_DEGREE = 8
# The direct Koszul check maps weight w while its dim A_{w-1} * g columns
# (g = d + 1) number at most this, and ranks the first wider weight or the
# cutoff last.  Any value from 49 to 62 maps weights 2-5 at d = 2 (9 to 45
# columns; 6 needs 63), 2-3 at d = 3 (48; 4 needs 132), 2 at d = 4-6 (up to
# 49) and all at d = 1 (4 each).  From d = 7 on weight 2 spans (d + 1)^2 >= 64
# columns, and weights <= 2 need no check, so it runs none.
DUAL_MAP_COLUMNS = 60


class NotQuadratic(UnsupportedError):
    """The cohomology is not presented by degree-2 generators and quadratic
    relations (d = 0, or a structural failure)."""


class KoszulInconsistency(UnsupportedError):
    """The Koszul-dual series failed a consistency check."""


class DifferentialNotSquareZero(InputError):
    """A Sullivan model whose differential does not square to zero."""


# ---------------------------------------------------------------------------
# Quadratic presentations of the cohomology
# ---------------------------------------------------------------------------


class QuadraticPresentation(Frozen):
    """H^*(M; Q) presented by its degree-2 part ``V = H^2`` and the
    relation space ``R = ker(Sym^2 V -> H^4)``.

    The presentation is its ring, from which :func:`quadratic_presentation`
    checked it: ``generators`` is dim V = d + 1, ``relation_count`` is dim
    Sym^2 V - dim H^4 = d(d + 1)/2, the Hilbert series reads the Betti
    numbers, and the dual check an orthogonal basis of H^2, over which
    R_perp has a closed form.  Neither R nor R_perp is stored.
    """

    __slots__ = ("ring",)
    ring: SixManifoldRing

    def __init__(self, ring) -> None:
        self._assign(ring)

    @property
    def generators(self) -> int:
        return self.ring.d + 1  # dim H^2

    @property
    def relation_count(self) -> int:
        return self.ring.d * (self.ring.d + 1) // 2  # dim Sym^2 V - dim H^4


def quadratic_presentation(ring: SixManifoldRing) -> QuadraticPresentation:
    """Present H^*(M; Q) by its degree-2 part.

    Requires Sym^2 V -> H^4 to be onto, which one ``rank`` of its matrix
    checks, and Sym^3 V -> H^6 to hit the 1-dimensional top degree (both
    are forced by unimodularity when d >= 1).  The d = 0 rings are
    rejected: for ``ell = 0`` the degree-4 class is not a product, and for
    ``ell != 0`` the truncation relation lives in weight 4, so no quadratic
    presentation of the cohomology exists either way.
    """
    if ring.d == 0:
        raise NotQuadratic(
            "the cohomology over the 4-sphere has no quadratic presentation "
            "(the defining relation is not quadratic)"
        )
    deg2 = ring.basis_of_degree(2)
    deg4 = ring.basis_of_degree(4)
    g = len(deg2)
    # columns: Sym^2 monomials (i, j), i <= j; rows: H^4 coordinates
    matrix: dict[str, Row] = {lbl: {} for lbl in deg4}
    for col, (i, j) in enumerate(combinations_with_replacement(range(g), 2)):
        for lbl, x in ring.product(deg2[i], deg2[j]).items():
            matrix[lbl][col] = x
    if rank(list(matrix.values())) != len(deg4):
        raise NotQuadratic("Sym^2 of the degree-2 part does not surject onto H^4")
    # weight-3 consistency: Sym^3 V must hit the top class
    top_hit = False
    for (i, j, k) in combinations_with_replacement(range(g), 3):
        uv = ring.product(deg2[i], deg2[j])
        w = ring.multiply(uv, {deg2[k]: 1})
        if w.get("top", 0) != 0:
            top_hit = True
            break
    if not top_hit:
        raise NotQuadratic("Sym^3 of the degree-2 part misses the top class")
    return QuadraticPresentation(ring)


def hilbert_series(p: QuadraticPresentation, cutoff: int) -> TruncatedSeries:
    """Hilbert series of the presented algebra by weight: the ring's Betti
    series ``1 + (d+1)s + (d+1)s^2 + s^3`` (the honest dimensions of
    H^*(M; Q), whether or not the quadratic algebra on (V, R) truncates by
    itself).
    """
    _require_int(cutoff, "cutoff")
    return TruncatedSeries.from_coefficients(p.ring.betti(), cutoff=cutoff)


# ---------------------------------------------------------------------------
# The quadratic dual, directly
# ---------------------------------------------------------------------------


def _orthogonal_basis(ring: SixManifoldRing) -> tuple[list[Row], list[int], Row]:
    """An integral orthogonal basis ``(e_1..e_d, s)`` of H^2(M; Q), as
    sparse vectors over the ring's labels: returns the ``e_i``, the ``q_i``
    and ``s``.

    The ``e_i`` are integer combinations of the ``x_i``, orthogonal and
    non-isotropic for the form read from the ring: fraction-free symmetric
    elimination, with an isotropic pivot replaced by ``e_i + e_j``.  With
    ``s = 2t - sum alpha_i x_i`` the products are ``e_i e_j = 0`` (i != j),
    ``e_i^2 = q_i y`` (``q_i != 0``) and ``s^2 = p1 y``, while the ``e_i s``
    and ``y`` form a basis of H^4: the basis is orthogonal for the
    ``y``-coordinate of a product in that basis of H^4.
    """
    *xs, t = ring.basis_of_degree(2)
    d = len(xs)
    form = [[ring.product(a, b).get("y", 0) for b in xs] for a in xs]

    def q_times(v: list[int]) -> list[int]:
        return [sum([q * x for q, x in zip(row, v)]) for row in form]

    def dot(u: list[int], v: list[int]) -> int:
        return sum([a * b for a, b in zip(u, v)])

    rest = [[int(i == j) for j in range(d)] for i in range(d)]
    basis = []
    squares = []
    while rest:
        for k, e in enumerate(rest):  # Q.v once per candidate
            qe = q_times(e)
            if dot(e, qe):
                break
        else:
            # a nondegenerate form pairs rest[0] with some rest[j], and then
            # rest[0] + rest[j] is not isotropic
            first = q_times(rest[0])
            j = next((j for j, v in enumerate(rest) if dot(first, v)), None)
            if j is None:
                raise NotUnimodular("the form read from the ring is degenerate")
            k, e = 0, [a + b for a, b in zip(rest[0], rest[j])]
            qe = q_times(e)
        del rest[k]
        q = dot(e, qe)
        for n, v in enumerate(rest):
            c = dot(v, qe)
            if c:
                rest[n] = integer_primitive([q * a - c * b for a, b in zip(v, e)])
        basis.append({x: a for x, a in zip(xs, e) if a})
        squares.append(q)
    tt = ring.product(t, t)
    s = {t: 2}
    for x, tx in zip(xs, ring.basis_of_degree(4)):
        if tt.get(tx):
            s[x] = -tt[tx]
    return basis, squares, s


def _diagonal_dual_relation(ring: SixManifoldRing) -> list[tuple[int, int, int]]:
    """The diagonal relation ``sum q_i eps_i eps_i + p1 sigma sigma`` of
    R_perp over the basis :func:`_orthogonal_basis`, as ``(letter, letter,
    coefficient)`` triples, letters ``eps_i`` then ``sigma``.

    R_perp is the span of the forms ``(u, v) -> lambda(uv)`` for ``lambda``
    in the dual of H^4.  The basis of it dual to ``(e_1 s, .., e_d s, y)``
    is the ``d`` anticommutators ``eps_i sigma + sigma eps_i``, which
    :func:`_dual_quotients` applies as substitutions, and this relation.
    """
    es, squares, s = _orthogonal_basis(ring)
    diagonal = [(i, i, q) for i, q in enumerate(squares)]
    p1 = ring.multiply(s, s).get("y", 0)
    if p1:
        diagonal.append((len(es), len(es), p1))
    return diagonal


def _dual_quotients(
    p: QuadraticPresentation, max_weight: int
) -> Iterator[tuple[list[Row] | None, int]]:
    """The dual algebra ``A = T(V*)/(R_perp)`` weight by weight.

    Weights <= 2 are fixed once Sym^2 V -> H^4 is onto, which
    :func:`quadratic_presentation` checked, so nothing is yielded unless
    ``max_weight >= 3`` and weight 2's ``g^2`` columns fit
    :data:`DUAL_MAP_COLUMNS` (d <= 6).  Then each weight w whose ``dim
    A_{w-1} * g`` columns fit yields ``(image, dim A_w)``: ``image[c]``
    holds the coordinates in ``A_w`` of column c of ``A_{w-1} (x) V*``, a
    map whose kernel is the image of ``A_{w-2} (x) R_perp``.  The first
    wider weight, or ``max_weight``, is ranked without a map and ends the
    check; its ``image`` is None.  Both widths are known before elimination.
    Columns are last-letter-major: ``basis_u (x) f_j`` is column ``j * dim
    A_{w-1} + u``, with ``sigma`` the last letter.

    Only the ``dim A_{w-2}`` rows of the diagonal relation reach
    :mod:`~loopsix.linalg`.  Every relation is a Lie element: the
    anticommutators are ``[eps_j, sigma]``, and the diagonal one is ``sum
    q_i [eps_i, eps_i] / 2 + p1 [sigma, sigma] / 2``.  So A is the
    enveloping algebra U(L) of the graded Lie algebra they present
    (Löfwall, LNM 1183).  By PBW (Milnor-Moore), U(L) is a free right module
    over the enveloping algebra of the Lie subalgebra spanned by sigma and
    ``[sigma, sigma]``; that is the polynomial algebra ``Q[sigma]``, since
    ``sigma sigma`` is not in R_perp (``q_i != 0``).  Hence right
    multiplication by sigma is injective.  A pivot in the sigma block, the
    last columns, would be a row-space vector ``x (x) sigma`` with ``x
    sigma = 0``: there is none.

    So each weight's map sends ``basis_b (x) sigma`` to a single coordinate
    ``first + b`` (the last ``dim A_{w-2}`` of them) with a scale ``s_b``.
    The anticommutator row of ``(b, eps_j)`` is ``s_b`` at column ``(first +
    b, eps_j)`` plus ``image(basis_b eps_j)`` in the sigma block.  Their
    pivots are distinct, so these rows are never built: a diagonal row's
    entry at such a column is replaced by ``-1/s_b`` times that image, in
    the sigma block.  The next map is read off the diagonal rows on the
    other columns, the only ones they reach, by one
    :func:`~loopsix.linalg.quotient_map`, and sends each anticommutator
    column to that combination of the sigma block's coordinates.  Rows are
    scaled by the lcm of the ``s_b``, and every coordinate scale of the map
    is a multiple of it (the read-off's ``unit``), so every entry is an
    integer and the scales do not compound from weight to weight.  The last
    weight's dimension is ``ncols - d * dim A_{w-2} - rank(diagonal
    rows)``.  A pivot of the read-off in the sigma block, which the
    argument rules out, raises :class:`KoszulInconsistency`.
    """
    g = p.generators
    # weights <= 2 hold once Sym^2 V -> H^4 is onto; weight 2 spans g^2 columns
    if max_weight < 3 or g * g > DUAL_MAP_COLUMNS:
        return
    diagonal = _diagonal_dual_relation(p.ring)
    d = g - 1
    prev_dim = 1
    cur_dim = g
    # image[j * prev_dim + b] = coordinates of (basis_b * f_j), one weight up
    image: list[Row] = [{i: 1} for i in range(g)]
    for w in range(2, max_weight + 1):
        ncols = cur_dim * g
        sigma = d * cur_dim  # the first column of the sigma block
        first = cur_dim - prev_dim  # basis_b * sigma maps to first + b
        scales = [image[d * prev_dim + b][first + b] for b in range(prev_dim)]
        scale = lcm(*scales)
        rows = []
        for b in range(prev_dim):
            row: Row = {}
            for i, j, c in diagonal:
                for u, x in image[i * prev_dim + b].items():
                    if j < d and u >= first:
                        # (basis_a sigma) eps_j = -(basis_a eps_j) sigma
                        a = u - first
                        f = -(scale // scales[a]) * c * x
                        for v, y in image[j * prev_dim + a].items():
                            row[sigma + v] = row.get(sigma + v, 0) + f * y
                    else:
                        col = j * cur_dim + u
                        row[col] = row.get(col, 0) + scale * c * x
            # The row of a basis_b that ends in sigma comes out empty only when
            # the substitution above is right (20 of 35 rows on desk_d2_0, 5 of
            # 17 on desk_d3_0), so those rows check it and are not waste.
            rows.append({col: x for col, x in row.items() if x})
        if w == max_weight or ncols > DUAL_MAP_COLUMNS:
            # the last weight checked: its dimension needs no quotient map
            yield None, ncols - d * prev_dim - rank(rows)
            return
        # the anticommutator columns (first + a, eps_j) are in no row
        columns = [c for c in range(ncols) if c >= sigma or c % cur_dim < first]
        following, pivots = quotient_map(rows, columns, scale)
        if pivots and pivots[-1] >= sigma:
            raise KoszulInconsistency(
                f"right multiplication by sigma is not injective at weight {w}"
            )
        for j in range(d):
            for a, s in enumerate(scales):
                following[j * cur_dim + first + a] = col = {}
                for u, x in image[j * prev_dim + a].items():
                    ((v, y),) = following[sigma + u].items()
                    col[v] = -(x * y // s)
        image = [following[c] for c in range(ncols)]
        prev_dim, cur_dim = cur_dim, ncols - d * prev_dim - len(pivots)
        yield image, cur_dim


def quadratic_dual_dims(p: QuadraticPresentation, max_weight: int) -> list[int]:
    """Dimensions of the quadratic dual algebra, degree by degree.

    Weight w is the quotient of ``A_{w-1} (x) V*`` by the image of ``A_{w-2}
    (x) R_perp``.  Weights 0 and 1 are ``1`` and ``d + 1``; weight 2 and
    beyond are computed only where weight 3 is reached (``max_weight >= 3``
    and d <= 6), and otherwise the list stops at weight 1.  It ends before
    ``max_weight`` at the first weight wider than :data:`DUAL_MAP_COLUMNS`:
    6 at d = 2, 4 at d = 3 and 3 at d = 4-6.  It runs in the orthogonal
    basis of the presentation's ring, where the dual is an enveloping
    algebra and right multiplication by sigma is injective (PBW), so only
    the diagonal relation's rows are eliminated (see :func:`_dual_quotients`).
    """
    _require_int(max_weight, "max_weight", minimum=0)
    dims = [1, p.generators][: max_weight + 1]
    dims.extend([dim for _, dim in _dual_quotients(p, max_weight)])
    return dims


def koszul_dual_series(
    p: QuadraticPresentation, cutoff: int, *, check: bool = True
) -> TruncatedSeries:
    """Hilbert series of the Koszul dual: reciprocal of the Hilbert series
    at ``-s``.

    With ``check=True`` the coefficients must match the directly computed
    quadratic dual dimensions ``quadratic_dual_dims(p, cutoff)``, which
    decides how far that goes: at d <= 6 and cutoff >= 3 up to the first
    weight wider than :data:`DUAL_MAP_COLUMNS`, and elsewhere weights 0 and
    1 only, which hold by construction.  ``check=False`` returns the naive
    series unverified, which is what ``koszul`` prints at d = 1.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    dual = TruncatedSeries(tuple(_expand((1,), _alternated_betti(p), cutoff)))
    if check:
        _check_dual(p, cutoff)
    return dual


def _alternated_betti(p: QuadraticPresentation) -> list[int]:
    """The Hilbert series at ``-t``: H(-t) = 1 - (d + 1)t + (d + 1)t^2 - t^3."""
    return [-c if n % 2 else c for n, c in enumerate(p.ring.betti())]


def _check_dual(p: QuadraticPresentation, cutoff: int) -> None:
    """The direct dual check: the weights of ``quadratic_dual_dims(p, cutoff)``
    must be the coefficients of 1/H(-t), which is expanded only that far
    (at most 7 weights, and 2 from d = 7 on)."""
    dims = quadratic_dual_dims(p, cutoff)
    # No coefficient can be negative: betti() is (1, d + 1, d + 1, 1) for every
    # ring, so the series is 1/((1 - t)(1 - dt + t^2)), whose coefficients are
    # >= 0 at every d >= 0 (periodic at d <= 1, increasing from d = 2 on).
    dual = _expand((1,), _alternated_betti(p), len(dims) - 1)
    for w, dim in enumerate(dims):
        if dual[w] != dim:
            raise KoszulInconsistency(
                f"dual dimension mismatch at weight {w}: series gives {dual[w]}, "
                f"direct computation gives {dim}; the input algebra is not Koszul"
            )


def lie_dims(p: QuadraticPresentation, cutoff: int) -> GradedLieDims:
    """Degree-wise ranks of the homotopy Lie algebra via the Koszul dual.

    Valid for d >= 2 (the Koszul range).  For d = 1 the dual reading is
    wrong: PBW inversion of the naive series
    ``koszul_dual_series(p, cutoff, check=False)`` fails with
    :class:`~loopsix.series.NegativeLieDimension`, and that failure is itself
    the non-coformality signal.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    if p.ring.d == 1:
        raise KoszulInconsistency(
            "d = 1 cohomology is not Koszul; its naive dual series does not "
            "give homotopy ranks"
        )
    _check_dual(p, cutoff)
    return _koszul_ranks(p, cutoff)


def _koszul_ranks(p: QuadraticPresentation, cutoff: int) -> GradedLieDims:
    """:func:`lie_dims` without the dual check, read off ``H(-t)`` in O(cutoff)."""
    h = _alternated_betti(p)
    return GradedLieDims(tuple(_sieve_dims(_log_derivative((1,), h, cutoff), True)))


# ---------------------------------------------------------------------------
# Ranks read off the decomposition
# ---------------------------------------------------------------------------


def ranks_from_decomposition(
    factors: LoopFactorMultiset, cutoff: int
) -> GradedLieDims:
    """Rational homotopy ranks of Loop M from its factor multiset.

    ``S^1`` contributes degree 1; ``Loop(S^m)`` contributes degree m-1 for
    odd m, degrees m-1 and 2m-2 for even m; ``S^3{n}`` is rationally trivial.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    if factors.truncated and cutoff > factors.cutoff:
        raise InputError(
            f"factor enumeration only reaches degree {factors.cutoff}, "
            f"cannot produce ranks through degree {cutoff}"
        )
    dims = [0] * cutoff
    if cutoff >= 1:
        dims[0] += factors.circles
    for m, mult in factors.sphere_loops:
        if m - 1 <= cutoff:
            dims[m - 2] += mult
        if m % 2 == 0 and 2 * m - 2 <= cutoff:
            dims[2 * m - 3] += mult
    return GradedLieDims(tuple(dims))


def free_graded_lie_dims(
    degrees: Iterable[int] | Mapping[int, int], cutoff: int
) -> GradedLieDims:
    """Dimensions of the free graded Lie algebra on generators of the given
    degrees: PBW inversion of the tensor-algebra series ``1/(1 - sum t^deg)``.
    ``degrees`` maps degrees to counts, or lists one degree per generator;
    exact ``int``s, degrees >= 1, counts >= 0.
    """
    return GradedLieDims(tuple(_free_lie_dims(degrees, "generator", "degree", cutoff, True)))


# ---------------------------------------------------------------------------
# Sullivan models (free graded-commutative algebras with a differential)
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]
Polynomial = dict[Monomial, Fraction]


class SullivanModel(Frozen):
    """A finitely generated Sullivan algebra.

    ``generators`` is an ordered tuple of (name, degree); the differential
    maps generator names to polynomials, a polynomial being a map from
    exponent tuples (over the generator order) to rational coefficients.
    Odd-degree generators are exterior: exponents 0 or 1.
    """

    __slots__ = ("generators", "differential")
    generators: tuple[tuple[str, int], ...]
    differential: dict

    def __init__(self, generators, differential) -> None:
        self._assign(generators, differential)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple([name for name, _ in self.generators])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple([deg for _, deg in self.generators])

    def d_of(self, name: str) -> Polynomial:
        return self.differential.get(name, {})


def _mono_degree(mono: Monomial, degrees: Sequence[int]) -> int:
    return sum(e * d for e, d in zip(mono, degrees))


def _mono_mul(
    a: Monomial, b: Monomial, degrees: Sequence[int]
) -> tuple[Monomial, int] | None:
    """Normal-form product of two monomials with its Koszul sign, or None
    when an odd generator gets squared.  The sign flips once for each odd
    letter of ``b`` and odd letter of ``a`` to its right: one walk from the
    right keeps the parity of the odd letters of ``a`` passed."""
    sign, odd_right = 1, False
    for j in range(len(degrees) - 1, -1, -1):
        if degrees[j] % 2:
            if b[j]:
                if a[j]:
                    return None
                if odd_right:
                    sign = -sign
            elif a[j]:
                odd_right = not odd_right
    return tuple([x + y for x, y in zip(a, b)]), sign


def _d_monomial(mono: Monomial, model: SullivanModel) -> Polynomial:
    """d of a normal-form monomial ``u x_i^e v`` by the Leibniz rule, in one
    pass: the term of ``x_i`` is ``e u x_i^(e-1) d(x_i) v`` with sign
    ``(-1)^|u|``, times ``(-1)^(|d(x_i)| |v|)`` to move ``d(x_i)`` past ``v``
    before :func:`_mono_mul` sorts it in.  So the sign is ``(-1)^|u|`` for
    odd ``x_i`` and, as ``|u| + |v| = |mono| - e |x_i|``, ``(-1)^|mono|`` for
    even ``x_i``."""
    degrees = model.degrees
    odd_u = False
    out: Polynomial = {}
    for i, (name, dg) in enumerate(model.generators):
        e = mono[i]
        if e and name in model.differential:
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            odd = odd_u if dg % 2 else _mono_degree(mono, degrees) % 2 == 1
            scale = -e if odd else e
            for mb, cb in model.differential[name].items():
                prod = _mono_mul(lowered, mb, degrees)
                if prod is not None:
                    m, sign = prod
                    out[m] = out.get(m, 0) + sign * scale * cb
        if e and dg % 2:
            odd_u = not odd_u
    return {m: c for m, c in out.items() if c}


def make_sullivan_model(
    generators: Sequence[tuple[str, int]],
    differential: Mapping[str, Mapping[Monomial, Rational]],
) -> SullivanModel:
    """Validate and build a model; the differential must raise degree by 1.

    Names are ``str``s, degrees and exponents exact ``int``s, coefficients
    ``int``s or ``Fraction``s; anything else raises :class:`InputError`, as
    does a term with an odd generator to a power above 1 (zero in the free
    graded-commutative algebra, so it is not written down).
    """
    gens = tuple([(n, d) for n, d in generators])
    if any(type(n) is not str or type(d) is not int for n, d in gens):
        raise InputError("generators must be (str name, int degree) pairs")
    names = [n for n, _ in gens]
    if len(set(names)) != len(names):
        raise InputError("generator names must be distinct")
    degrees = [d for _, d in gens]
    if any(d < 1 for d in degrees):
        raise InputError("generator degrees must be >= 1")
    diff: dict[str, Polynomial] = {}
    for name, poly in differential.items():
        if name not in names:
            raise InputError(f"differential given for unknown generator {name!r}")
        target = degrees[names.index(name)] + 1
        clean: Polynomial = {}
        for mono, coeff in poly.items():
            mono = tuple(mono)
            if any(type(e) is not int or e < 0 for e in mono):
                raise InputError(f"exponents must be nonnegative ints, got {mono!r}")
            if type(coeff) not in (int, Fraction):
                raise InputError(f"coefficients must be int or Fraction, got {coeff!r}")
            if len(mono) != len(gens):
                raise InputError("monomial exponent tuple has the wrong length")
            if any(e > 1 and d % 2 for e, d in zip(mono, degrees)):
                raise InputError(
                    f"d({name}) has a term {mono!r} with an odd generator squared, "
                    "which is zero"
                )
            if _mono_degree(mono, degrees) != target:
                raise InputError(
                    f"d({name}) must be homogeneous of degree {target}"
                )
            c = Fraction(coeff)
            if c:
                clean[mono] = clean.get(mono, Fraction(0)) + c
        if clean:
            diff[name] = clean
    return SullivanModel(generators=gens, differential=diff)


def check_square_zero(model: SullivanModel) -> None:
    for name, _ in model.generators:
        dd: Polynomial = {}
        for mono, coeff in model.d_of(name).items():
            for m, c in _d_monomial(mono, model).items():
                dd[m] = dd.get(m, 0) + coeff * c
        surviving = len([c for c in dd.values() if c])
        if surviving:
            raise DifferentialNotSquareZero(
                f"d(d({name})) != 0 (got {surviving} surviving monomials)"
            )


def _monomial_bases(model: SullivanModel, top: int) -> list[list[Monomial]]:
    """The normal-form monomials of each degree 0..top, in lexicographic order.

    One walk over the generators, last to first, prepends each nonzero
    ``(index, exponent)`` pair to the partial monomials of lower degree.
    """
    degrees = model.degrees
    levels: list[list[tuple[tuple[int, int], ...]]] = [[()]] + [[] for _ in range(top)]
    for i in range(len(degrees) - 1, -1, -1):
        dg = degrees[i]
        # degrees descend, so the lower lists read here still lack generator i
        for r in range(top, dg - 1, -1):
            for e in range(1, (1 if dg % 2 else r // dg) + 1):
                levels[r].extend([((i, e),) + m for m in levels[r - e * dg]])
    bases: list[list[Monomial]] = []
    for level in levels:
        bases.append([])
        for pairs in level:
            mono = [0] * len(degrees)
            for i, e in pairs:
                mono[i] = e
            bases[-1].append(tuple(mono))
    return bases


def cdga_cohomology(model: SullivanModel, cutoff: int) -> list[int]:
    """Cohomology dimensions of the model in degrees 0..cutoff.

    Checks ``d o d = 0`` on generators first; then straightforward
    rank-nullity on the monomial bases degree by degree.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    check_square_zero(model)
    bases = _monomial_bases(model, cutoff + 1)
    ranks = [0]  # ranks[q] is the rank of d into degree q
    for q in range(cutoff + 1):
        index = {m: i for i, m in enumerate(bases[q + 1])}
        rows = [
            {index[m]: c for m, c in _d_monomial(mono, model).items()}
            for mono in bases[q]
        ]
        ranks.append(rank(rows))
    # cycles minus boundaries
    return [len(bases[q]) - ranks[q + 1] - ranks[q] for q in range(cutoff + 1)]


def model_to_json(model: SullivanModel) -> dict:
    """Schema-stable JSON form of a Sullivan model."""
    return {
        "generators": [
            {"name": name, "degree": degree} for name, degree in model.generators
        ],
        "differential": {
            name: [
                {
                    "coefficient": str(coeff),
                    "exponents": {
                        model.names[i]: e for i, e in enumerate(mono) if e
                    },
                }
                for mono, coeff in sorted(poly.items())
            ]
            for name, poly in sorted(model.differential.items())
        },
    }


def d1_model(k: Rational = 1) -> SullivanModel:
    """Minimal model of M over a rank-1 base: ``Lambda(c2, a2, b3, x5)``
    with ``db = a^2 + k c^2`` and ``dx = c^3``.

    The cubic term ``dx = c^3`` is the non-coformality witness; the
    cohomology is independent of ``k``.  For a concrete bundle over the
    form ``[[q]]``, ``q = +-1``, completing the square in the ring (where
    ``x^2 = q y``) identifies ``k`` with ``-q * p1 / 4``.
    """
    # generator order: c, a, b, x
    return make_sullivan_model(
        [("c", 2), ("a", 2), ("b", 3), ("x", 5)],
        {
            "b": {(0, 2, 0, 0): 1, (2, 0, 0, 0): Fraction(k)},
            "x": {(3, 0, 0, 0): 1},
        },
    )


def d1_model_parameter(b: BundleData) -> Fraction:
    """The quadratic parameter of the d = 1 model determined by the bundle.

    Returns ``-p1/4``, which is the ring's ``-q * p1 / 4`` only when the
    form is ``[[1]]``.  Over ``[[-1]]`` with ``p1 != 0`` the discriminants
    of the model's degree-4 relation and the ring's differ by the non-square
    factor -1, so the two rings are not isomorphic over Q (ROADMAP item 5).
    """
    return Fraction(-b.p1, 4)


# ---------------------------------------------------------------------------
# Coformality and ellipticity
# ---------------------------------------------------------------------------


class CoformalityReport(Record):
    __slots__ = ("status", "witness")
    status: Literal["coformal", "not_coformal"]
    witness: str

    def __init__(self, status, witness) -> None:
        self._assign(status, witness)


def _coformal_report(
    dual_ranks: GradedLieDims, decomposition_ranks: GradedLieDims
) -> CoformalityReport:
    """The d >= 2 witness: both routes' ranks must agree in every degree they
    carry, or :class:`KoszulInconsistency` names the first that differs.  The
    witness text shows them through ``min(dual_ranks.cutoff, WITNESS_DEGREE)``."""
    for n in range(1, max(dual_ranks.cutoff, decomposition_ranks.cutoff) + 1):
        if dual_ranks.dim(n) != decomposition_ranks.dim(n):
            raise KoszulInconsistency(
                f"Koszul-dual ranks disagree with decomposition ranks in degree {n}: "
                f"{dual_ranks.dim(n)} vs {decomposition_ranks.dim(n)}"
            )
    cutoff = min(dual_ranks.cutoff, WITNESS_DEGREE)
    agree = f"dual and decomposition ranks agree through degree {cutoff}"
    return CoformalityReport("coformal", f"{agree}: {dual_ranks.truncate(cutoff)}")


def coformality_check(N: FourManifold, b: BundleData) -> CoformalityReport:
    """Decide coformality of M and produce a checkable witness.

    Either way the cohomology must have a quadratic presentation.  d >= 2:
    coformal; the witness is the agreement of the Koszul-dual ranks with the
    decomposition ranks through :data:`WITNESS_DEGREE`.  d = 1: not
    coformal; the witness is the cubic differential ``dx = c^3`` of
    :func:`d1_model`, and nothing more is computed here.  The evidence is printed elsewhere:
    ``koszul`` prints the naive dual series, which first diverges from the
    loop homology that ``series`` prints in degree 3, and ``model`` prints
    the model and its cohomology.
    """
    if N.d < 1:
        raise InputError("coformality_check needs d >= 1")
    presentation = quadratic_presentation(cohomology_ring(N, b))
    if N.d == 1:
        return CoformalityReport(status="not_coformal", witness="dx=c^3")
    return _coformal_report(
        lie_dims(presentation, WITNESS_DEGREE),
        ranks_from_decomposition(loop_factors(N, b, WITNESS_DEGREE), WITNESS_DEGREE),
    )


def is_rationally_elliptic(N: FourManifold, b: BundleData) -> bool:
    """Total rational homotopy is finite-dimensional exactly when d <= 2
    (for d = 0 both rational types, CP^3 and S^2 x S^4, are elliptic)."""
    return N.d <= 2
