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

The direct dual check runs a ring's presentation on an integral orthogonal
basis ``(e_1..e_d, s)`` of H^2(M; Q) (:func:`_orthogonal_basis`), where
R_perp is d two-term tensors and one diagonal one, and a hand-built
presentation on the kernel of its relations.  An invertible change of basis
of V extends to an automorphism of T(V*) that carries one basis's R_perp,
and so the ideal it generates, onto the other's: the quotient's dimensions
do not depend on the basis.  The check takes its quotient maps from
``linalg.nullspace``; it is 50-68% of a d = 2 or 3 Koszul command at the
default cutoffs (60-77% on the kernel of the relations).  A Sullivan
model's monomials come from one iterative walk, so its generator count
meets no recursion limit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from ._record import Frozen, Record
from .errors import InputError, UnsupportedError
from .homotopy import (
    LoopFactorMultiset,
    decompose,
    loop_factors,
    loop_homology_series,
)
from .linalg import Rational, Row, integer_primitive, nullspace, rank
from .manifold import BundleData, FourManifold, SixManifoldRing, cohomology_ring
from .series import (
    GradedLieDims,
    TruncatedSeries,
    pbw_invert,
    series_reciprocal,
)


# The coformality witness compares the two routes' ranks through this degree.
WITNESS_DEGREE = 8
# The direct Koszul check compares weights through min(cutoff, this) ...
DUAL_CHECK_WEIGHT = 6
# ... and stops early once a weight would need more columns than this, since
# exact elimination beyond desk scale is pointless for a consistency check
# (it reaches weight 6 at d = 2, 4 at d = 3, 3 at d = 4 and 6, 2 at d = 10, 16).
DUAL_COLUMN_BUDGET = 320


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


def _sym2_basis(g: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(g) for j in range(i, g)]


class QuadraticPresentation(Frozen):
    """Degree-2 generators and the quadratic relation space of H^*(M; Q).

    ``relations`` are sparse integer rows over the monomial basis of Sym^2
    (pairs (i, j) with i <= j in lexicographic order); only their span
    matters, not their scale.  ``weight_dims`` records the true
    degree-wise dimensions of the presented algebra when it is known (the
    Betti numbers, for presentations built from a manifold ring); ``d_rank``
    remembers the rank d of the base when there is one, and ``ring`` the
    ring itself, from which the dual check reads an orthogonal basis.
    """

    __slots__ = ("generators", "relations", "weight_dims", "d_rank", "ring")
    generators: int
    relations: tuple[Row, ...]
    weight_dims: tuple[int, ...] | None
    d_rank: int | None
    ring: SixManifoldRing | None

    def __init__(
        self, generators, relations, weight_dims=None, d_rank=None, ring=None
    ) -> None:
        self._assign(generators, relations, weight_dims, d_rank, ring)

    def __repr__(self) -> str:
        # the ring is where the relations came from, not part of the value
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1]]
        return f"QuadraticPresentation({', '.join(fields)})"

    @property
    def relation_count(self) -> int:
        return len(self.relations)


def quadratic_presentation(ring: SixManifoldRing) -> QuadraticPresentation:
    """Present H^*(M; Q) by its degree-2 part.

    ``V = H^2`` and ``R = ker(Sym^2 V -> H^4)``; requires Sym^2 V -> H^4 to
    be onto and Sym^3 V -> H^6 to hit the 1-dimensional top degree (both are
    forced by unimodularity when d >= 1).  The d = 0 rings are rejected: for
    ``ell = 0`` the degree-4 class is not a product, and for ``ell != 0`` the
    truncation relation lives in weight 4, so no quadratic presentation of
    the cohomology exists either way.
    """
    if ring.d == 0:
        raise NotQuadratic(
            "the cohomology over the 4-sphere has no quadratic presentation "
            "(the defining relation is not quadratic)"
        )
    deg2 = ring.basis_of_degree(2)
    deg4 = ring.basis_of_degree(4)
    g = len(deg2)
    sym2 = _sym2_basis(g)
    # columns: sym2 monomials; rows: H^4 coordinates
    matrix: dict[str, Row] = {lbl: {} for lbl in deg4}
    for col, (i, j) in enumerate(sym2):
        for lbl, x in ring.product(deg2[i], deg2[j]).items():
            matrix[lbl][col] = x
    kernel = nullspace(list(matrix.values()), len(sym2))
    if len(sym2) - len(kernel) != len(deg4):
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
    betti = ring.betti()
    return QuadraticPresentation(
        generators=g,
        relations=tuple(kernel),
        weight_dims=(betti[0], betti[1], betti[2], betti[3]),
        d_rank=ring.d,
        ring=ring,
    )


def free_presentation(generators: int) -> QuadraticPresentation:
    """The polynomial algebra on ``generators`` degree-2 classes (R empty)."""
    return QuadraticPresentation(generators=generators, relations=())


def presentation_from_relations(
    generators: int, relations: Iterable[Sequence[Rational]]
) -> QuadraticPresentation:
    """A hand-built quadratic presentation (vectors over the Sym^2 basis).

    The one place rational relations enter a presentation: each vector's
    denominators are cleared here, once, and it is stored as a sparse row.
    """
    expected = generators * (generators + 1) // 2
    rels = []
    for vec in relations:
        if len(vec) != expected:
            raise InputError(
                f"relation vectors need length {expected} for {generators} generators"
            )
        if not all(isinstance(x, (int, Fraction)) for x in vec):
            raise InputError("relation entries must be int or Fraction")
        rels.append({c: x for c, x in enumerate(integer_primitive(vec)) if x})
    return QuadraticPresentation(generators=generators, relations=tuple(rels))


def quadratic_algebra_dims(p: QuadraticPresentation, cutoff: int) -> list[int]:
    """Degree-wise dimensions of ``Sym(V)/(R)`` computed by linear algebra.

    Weight-w ideal component is ``R * Sym^{w-2} V``.  Exponential in the
    cutoff for many generators; meant for small hand-built presentations and
    cross-checks.
    """
    g = p.generators
    sym2 = _sym2_basis(g)
    dims = [1]
    if cutoff >= 1:
        dims.append(g)
    for w in range(2, cutoff + 1):
        monos = list(combinations_with_replacement(range(g), w))
        index = {m: i for i, m in enumerate(monos)}
        # distinct pairs times one lower monomial are distinct monomials
        rows = [
            {index[tuple(sorted(lower + sym2[k]))]: c for k, c in rel.items()}
            for rel in p.relations
            for lower in combinations_with_replacement(range(g), w - 2)
        ]
        dims.append(len(monos) - rank(rows))
    return dims[: cutoff + 1]


def hilbert_series(p: QuadraticPresentation, cutoff: int) -> TruncatedSeries:
    """Hilbert series of the presented algebra by weight.

    For presentations built from a manifold ring this is the recorded Betti
    series ``1 + (d+1)s + (d+1)s^2 + s^3`` (the honest dimensions of
    H^*(M; Q), whether or not the quadratic algebra on (V, R) truncates by
    itself); for hand-built presentations the quadratic algebra dimensions
    are computed directly.
    """
    if p.weight_dims is not None:
        return TruncatedSeries.from_coefficients(p.weight_dims, cutoff=cutoff)
    return TruncatedSeries.from_coefficients(
        quadratic_algebra_dims(p, cutoff), cutoff=cutoff
    )


# ---------------------------------------------------------------------------
# The quadratic dual, directly
# ---------------------------------------------------------------------------


def _dual_relation_space(p: QuadraticPresentation) -> list[Row]:
    """Basis of the orthogonal complement of the associative relation space.

    The associative presentation of the graded-commutative algebra adds the
    commutators ``e_i (x) e_j - e_j (x) e_i`` to the lifted quadratic
    relations; the dual algebra is the tensor algebra on V* modulo the
    orthogonal complement of that span inside V (x) V.  Orthogonal to the
    commutators means symmetric, and a symmetric ``phi`` pairs with the lift
    ``(e_i (x) e_j + e_j (x) e_i) / 2`` of the monomial ``e_i e_j`` as
    ``phi_ij``: so the complement solves ``sum_{i <= j} c_ij phi_ij = 0``
    over the Sym^2 coordinates and is then spread over V (x) V.
    """
    g = p.generators
    sym2 = _sym2_basis(g)
    basis = []
    for sym in nullspace(list(p.relations), len(sym2)):
        vec: Row = {}
        for k, x in sym.items():
            i, j = sym2[k]
            vec[i * g + j] = vec[j * g + i] = x
        basis.append(vec)
    return basis


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
        k = next((k for k, v in enumerate(rest) if dot(v, q_times(v))), None)
        if k is None:
            # the form is nondegenerate on their span: rest[0] pairs with some
            # rest[j], and then rest[0] + rest[j] is not isotropic
            first = q_times(rest[0])
            j = next(j for j, v in enumerate(rest) if dot(first, v))
            rest[0] = [a + b for a, b in zip(rest[0], rest[j])]
            k = 0
        e = rest.pop(k)
        qe = q_times(e)
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


def _orthogonal_dual_relations(
    ring: SixManifoldRing,
) -> list[list[tuple[int, int, int]]]:
    """R_perp over the basis :func:`_orthogonal_basis`, each relation as
    ``(letter, letter, coefficient)`` triples, letters ``eps_i`` then
    ``sigma``.

    R_perp is the span of the forms ``(u, v) -> lambda(uv)`` for ``lambda``
    in the dual of H^4.  The basis of it dual to ``(e_1 s, .., e_d s, y)``
    gives the ``d`` tensors ``eps_i sigma + sigma eps_i`` and ``sum q_i
    eps_i eps_i + p1 sigma sigma``.
    """
    es, squares, s = _orthogonal_basis(ring)
    d = len(es)
    diagonal = [(i, i, q) for i, q in enumerate(squares)]
    p1 = ring.multiply(s, s).get("y", 0)
    if p1:
        diagonal.append((d, d, p1))
    return [[(i, d, 1), (d, i, 1)] for i in range(d)] + [diagonal]


def _dual_quotients(
    p: QuadraticPresentation, max_weight: int
) -> Iterator[tuple[list[Row], list[Row] | None, int]]:
    """The dual algebra ``T(V*)/(R_perp)`` weight by weight.

    For each weight w from 2 through ``max_weight`` whose ``dim A_{w-1} *
    g`` columns fit :data:`DUAL_COLUMN_BUDGET`, yields ``(rows, image,
    dim A_w)``: ``rows`` span the image of ``A_{w-2} (x) R_perp`` in
    ``A_{w-1} (x) V*``, and ``image[c]`` holds column c's coordinates in
    the quotient ``A_w``.  Over the :func:`~loopsix.linalg.nullspace` basis
    ``v_q`` of the rows, column ``c`` maps to ``{q: v_q[c]}``: a quotient
    map, since its kernel is the row space.  The last weight's dimension is
    a rank, and its ``image`` is None.

    Columns are last-letter-major: ``basis_u (x) f_j`` is column
    ``j * dim A_{w-1} + u``.  The dimensions depend neither on the column
    order nor on the basis of V, but the elimination does: ordered this
    way, ``rref`` makes less than half the row operations it makes with ``u
    * g + j`` (442 -> 194 and 194 -> 62 on two d = 2 and d = 3 specs,
    through weight 6).  A ring's orthogonal basis cuts them again (194 -> 53
    and 62 -> 22), since each of its relations is sparse and homogeneous in
    the parity of every letter.
    """
    g = p.generators
    # weight 2 alone spans g * g columns
    if max_weight < 2 or g * g > DUAL_COLUMN_BUDGET:
        return
    if p.ring is None:
        dual_relations = [
            [(*divmod(k, g), c) for k, c in s.items()] for s in _dual_relation_space(p)
        ]
    else:
        dual_relations = _orthogonal_dual_relations(p.ring)
    prev_dim = 1
    cur_dim = g
    # image[i * prev_dim + b] = coordinates of (basis_b * f_i), one weight up
    image: list[Row] = [{i: 1} for i in range(g)]
    for w in range(2, max_weight + 1):
        ncols = cur_dim * g
        if ncols > DUAL_COLUMN_BUDGET:
            return
        rows = []
        for b in range(prev_dim):
            for s in dual_relations:
                row: Row = {}
                for i, j, c in s:
                    base = j * cur_dim
                    for u, x in image[i * prev_dim + b].items():
                        row[base + u] = row.get(base + u, 0) + c * x
                rows.append({col: x for col, x in row.items() if x})
        if w == max_weight or (ncols - len(rows)) * g > DUAL_COLUMN_BUDGET:
            # the last weight checked: its dimension needs no quotient map
            yield rows, None, ncols - rank(rows)
            return
        kernel = nullspace(rows, ncols)
        image = [{} for _ in range(ncols)]
        for q, v in enumerate(kernel):
            for c, x in v.items():
                image[c][q] = x
        prev_dim, cur_dim = cur_dim, len(kernel)
        yield rows, image, cur_dim


def quadratic_dual_dims(p: QuadraticPresentation, max_weight: int) -> list[int]:
    """Dimensions of the quadratic dual algebra, degree by degree.

    Weight w is the quotient of ``A_{w-1} (x) V*`` by the image of ``A_{w-2}
    (x) R_perp`` (see :func:`_dual_quotients`).  Stops early (returning what
    it has) once the working dimension exceeds :data:`DUAL_COLUMN_BUDGET`.
    A presentation built from a ring runs in the ring's orthogonal basis,
    and a hand-built one on the kernel of its relations.
    """
    dims = [1, p.generators][: max_weight + 1]
    dims.extend([dim for _, _, dim in _dual_quotients(p, max_weight)])
    return dims


def koszul_dual_series(
    p: QuadraticPresentation, cutoff: int, *, check: bool = True
) -> TruncatedSeries:
    """Hilbert series of the Koszul dual: reciprocal of the Hilbert series
    at ``-s``.

    With ``check=True`` the result is validated two ways: all coefficients
    must be nonnegative, and they must match the directly computed quadratic
    dual dimensions through ``min(cutoff, DUAL_CHECK_WEIGHT)`` (subject to
    :data:`DUAL_COLUMN_BUDGET`).  ``check=False`` returns the naive series
    unverified, which is what the d = 1 non-coformality witness needs.
    """
    hs = hilbert_series(p, cutoff)
    dual = series_reciprocal(hs.alternate())
    if not check:
        return dual
    for n in range(cutoff + 1):
        if dual[n] < 0:
            raise KoszulInconsistency(
                f"dual series coefficient at weight {n} is negative ({dual[n]}); "
                "the input algebra is not Koszul"
            )
    direct = quadratic_dual_dims(p, min(cutoff, DUAL_CHECK_WEIGHT))
    for w, dim in enumerate(direct):
        if dual[w] != dim:
            raise KoszulInconsistency(
                f"dual dimension mismatch at weight {w}: series gives {dual[w]}, "
                f"direct computation gives {dim}; the input algebra is not Koszul"
            )
    return dual


def lie_dims(p: QuadraticPresentation, cutoff: int) -> GradedLieDims:
    """Degree-wise ranks of the homotopy Lie algebra via the Koszul dual.

    Valid for d >= 2 (the Koszul range).  For d = 1 the dual reading is
    wrong: PBW inversion of the naive series
    ``koszul_dual_series(p, cutoff, check=False)`` fails with
    :class:`~loopsix.series.NegativeLieDimension`, and that failure is itself
    the non-coformality signal.
    """
    if p.d_rank == 1:
        raise KoszulInconsistency(
            "d = 1 cohomology is not Koszul; its naive dual series does not "
            "give homotopy ranks"
        )
    return pbw_invert(koszul_dual_series(p, cutoff))


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
    """
    counts = Counter(degrees)
    if any(d < 1 for d in counts):
        raise InputError("generator degrees must be >= 1")
    denominator = [1] + [0] * cutoff
    for deg, count in counts.items():
        if deg <= cutoff:
            denominator[deg] -= count
    tensor = series_reciprocal(
        TruncatedSeries.from_coefficients(denominator, cutoff=cutoff)
    )
    return pbw_invert(tensor)


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
    when an odd generator gets squared."""
    n = len(degrees)
    out = []
    sign_exp = 0
    odd_counts_a = [a[i] * (degrees[i] % 2) for i in range(n)]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + odd_counts_a[i]
    for j in range(n):
        e = a[j] + b[j]
        if degrees[j] % 2 == 1 and e > 1:
            return None
        out.append(e)
        if degrees[j] % 2 == 1 and b[j]:
            sign_exp += b[j] * suffix[j + 1]
    return tuple(out), (-1) ** (sign_exp % 2)


def _d_monomial(mono: Monomial, model: SullivanModel) -> Polynomial:
    degrees = model.degrees
    names = model.names
    n = len(degrees)
    out: Polynomial = {}
    prefix_odd = 0
    for i in range(n):
        e = mono[i]
        if e:
            dg = model.d_of(names[i])
            if dg:
                lowered = list(mono)
                lowered[i] = e - 1
                suffix_deg = sum(mono[j] * degrees[j] for j in range(i + 1, n))
                scale = e * (-1) ** ((prefix_odd + (degrees[i] + 1) * suffix_deg) % 2)
                for mb, cb in dg.items():
                    prod = _mono_mul(lowered, mb, degrees)
                    if prod is not None:
                        m, sign = prod
                        out[m] = out.get(m, Fraction(0)) + scale * sign * cb
        prefix_odd += e * (degrees[i] % 2)
    return {m: c for m, c in out.items() if c != 0}


def _d_poly(p: Polynomial, model: SullivanModel) -> Polynomial:
    out: Polynomial = {}
    for mono, coeff in p.items():
        for m, c in _d_monomial(mono, model).items():
            out[m] = out.get(m, Fraction(0)) + coeff * c
    return {m: c for m, c in out.items() if c != 0}


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
        dd = _d_poly(model.d_of(name), model)
        if dd:
            raise DifferentialNotSquareZero(
                f"d(d({name})) != 0 (got {len(dd)} surviving monomials)"
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


def monomial_basis(model: SullivanModel, degree: int) -> list[Monomial]:
    """All normal-form monomials of one degree."""
    return _monomial_bases(model, degree)[degree] if degree >= 0 else []


def cdga_cohomology(model: SullivanModel, cutoff: int) -> list[int]:
    """Cohomology dimensions of the model in degrees 0..cutoff.

    Checks ``d o d = 0`` on generators first; then straightforward
    rank-nullity on the monomial bases degree by degree.
    """
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


def s2_model() -> SullivanModel:
    """Minimal model of the 2-sphere: ``Lambda(a2, b3)`` with ``db = a^2``."""
    return make_sullivan_model(
        [("a", 2), ("b", 3)], {"b": {(2, 0): 1}}
    )


def d1_model(k: Rational = 1) -> SullivanModel:
    """Minimal model of M over a rank-1 base: ``Lambda(c2, a2, b3, x5)``
    with ``db = a^2 + k c^2`` and ``dx = c^3``.

    The cubic term ``dx = c^3`` is the non-coformality witness; the
    cohomology is independent of ``k``.  For a concrete bundle, completing
    the square in the ring identifies ``k`` with ``-p1/4``.
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
    """The quadratic parameter of the d = 1 model determined by the bundle."""
    return Fraction(-b.p1, 4)


# ---------------------------------------------------------------------------
# Coformality and ellipticity
# ---------------------------------------------------------------------------


class CoformalityReport(Record):
    __slots__ = ("status", "witness", "details")
    status: Literal["coformal", "not_coformal"]
    witness: str
    details: dict

    def __init__(self, status, witness, details) -> None:
        self._assign(status, witness, details)


def _coformal_report(
    dual_ranks: GradedLieDims, decomposition_ranks: GradedLieDims, cutoff: int
) -> CoformalityReport:
    """The d >= 2 witness: both routes' ranks, which must agree through
    ``cutoff``."""
    if dual_ranks != decomposition_ranks:
        raise KoszulInconsistency(
            "Koszul-dual ranks disagree with decomposition ranks: "
            f"{dual_ranks} vs {decomposition_ranks}"
        )
    return CoformalityReport(
        status="coformal",
        witness=(
            f"dual and decomposition ranks agree through degree {cutoff}: "
            f"{dual_ranks}"
        ),
        details={"ranks": list(dual_ranks.dims), "checked_through_degree": cutoff},
    )


def coformality_check(
    N: FourManifold, b: BundleData, cutoff: int = WITNESS_DEGREE
) -> CoformalityReport:
    """Decide coformality of M and produce a checkable witness.

    d >= 2: coformal; the witness is the agreement of the Koszul-dual ranks
    with the decomposition ranks through ``cutoff``.  d = 1: not coformal;
    the witness is the cubic differential ``dx = c^3`` in the explicit
    Sullivan model together with the first divergence (degree 3) between the
    naive dual series and the actual loop homology.
    """
    if N.d < 1:
        raise InputError("coformality_check needs d >= 1")
    presentation = quadratic_presentation(cohomology_ring(N, b))
    if N.d >= 2:
        return _coformal_report(
            lie_dims(presentation, cutoff),
            ranks_from_decomposition(loop_factors(N, b, cutoff), cutoff),
            cutoff,
        )
    naive = koszul_dual_series(presentation, cutoff, check=False)
    actual = loop_homology_series(decompose(N, b), cutoff)
    mismatch_degree = next(
        (n for n in range(cutoff + 1) if naive[n] != actual[n]), None
    )
    model = d1_model(d1_model_parameter(b))
    betti = cdga_cohomology(model, 6)
    return CoformalityReport(
        status="not_coformal",
        witness="dx=c^3",
        details={
            "model_cubic_term": "dx=c^3",
            "model_betti": betti,
            "naive_dual_series": [str(naive[n]) for n in range(cutoff + 1)],
            "loop_homology_series": [str(actual[n]) for n in range(cutoff + 1)],
            "first_mismatch_degree": mismatch_degree,
        },
    )


def is_rationally_elliptic(N: FourManifold, b: BundleData) -> bool:
    """Total rational homotopy is finite-dimensional exactly when d <= 2
    (for d = 0 both rational types, CP^3 and S^2 x S^4, are elliptic)."""
    return N.d <= 2
