"""Symbolic loop-space decompositions of the sphere-bundle 6-manifolds.

The decomposition of the based loop space, by rank d of H^2 of the base:

* d = 1:   S^1 x Loop(S^2) x Loop(S^5)
* d = 2:   S^1 x Loop(S^2) x Loop(S^2 x S^3)
* d >= 3:  S^1 x Loop(S^2) x Loop(S^2 x S^3) x Loop(J v (J ^ Loop(S^2 x S^3)))
           with J the wedge of (d-2) copies of S^2 v S^3
* d = 0:   depends on the attaching number k = |ell| of the cell structure
           S^2 u_{k eta} e^4 u e^6:
             k odd:            S^1 x prod_j S^3{p_j^{r_j}} x Loop(S^7)
             k = 2^r, r >= 3:  S^1 x S^3{2^r} x Loop(S^7)
             k = 0, 1:         handled via classical splittings (flagged)
             k = 2, 4, 2^r*m:  refused (no decomposition of this shape known)
             k odd > MAX_ODD_K: refused (factoring k would take too long)

Here ``S^3{n}`` is the homotopy fiber of the degree-n self-map of the
3-sphere; it is rationally trivial.  The wedge summand for d >= 3 is a
bouquet of spheres, so a Hilton-Milnor expansion turns the whole thing into
a product of loops on spheres with a circle; :func:`loop_factors` performs
that expansion with exact Witt counts.  :func:`loop_homology_series` gives
the rational loop-homology series of any decomposition as one rational
function of integer polynomials, expanded to the cutoff once by the shared
:func:`loopsix.series._expand`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cache
from itertools import groupby
from operator import itemgetter
from typing import Union

from ._record import Record
from .errors import InputError, UnsupportedCase, _require_int
from .manifold import (
    BundleData,
    FourManifold,
    WrongDimension,
    is_spin,
    pairing_parity,
)
from .series import (
    TruncatedSeries, _Poly, _add, _expand, _mul, _multiset, _prime_powers, _witt_counts,
    lie_ring_weight_counts,
)

# Largest odd attaching number that decompose factors: trial division up to
# its square root takes about 0.2 s for a prime just below 10^12 (2-vCPU host).
MAX_ODD_K = 10**12


class UnsupportedNode(InputError):
    """A homotopy expression the series evaluator does not handle."""


# ---------------------------------------------------------------------------
# Homotopy-type AST
# ---------------------------------------------------------------------------


class Circle(Record):
    """The circle S^1 (as a loop-space factor)."""

    __slots__ = ()


class Sphere(Record):
    __slots__ = ("dim",)
    dim: int

    def __init__(self, dim) -> None:
        if type(dim) is not int:
            raise ValueError(f"sphere dimension must be an int, got {dim!r}")
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        object.__setattr__(self, "dim", dim)


class SphereModN(Record):
    """S^3{order}: the homotopy fiber of the degree-``order`` map on S^3."""

    __slots__ = ("order",)
    order: int

    def __init__(self, order) -> None:
        if type(order) is not int:
            raise ValueError(f"S^3{{n}} needs an int n, got {order!r}")
        if order < 2:
            raise ValueError("S^3{n} needs n >= 2")
        object.__setattr__(self, "order", order)


class Loop(Record):
    __slots__ = ("space",)
    space: "Node"

    def __init__(self, space) -> None:
        object.__setattr__(self, "space", space)


class Product(Record):
    __slots__ = ("factors",)
    factors: tuple["Node", ...]

    def __init__(self, factors) -> None:
        object.__setattr__(self, "factors", factors)


class Wedge(Record):
    __slots__ = ("summands",)
    summands: tuple["Node", ...]

    def __init__(self, summands) -> None:
        object.__setattr__(self, "summands", summands)


class Smash(Record):
    __slots__ = ("factors",)
    factors: tuple["Node", ...]

    def __init__(self, factors) -> None:
        object.__setattr__(self, "factors", factors)


Node = Union[Circle, Sphere, SphereModN, Loop, Product, Wedge, Smash]

#: The one-point space, represented as the empty wedge.
TRIVIAL: Node = Wedge(())


def is_trivial(node: Node) -> bool:
    return isinstance(node, Wedge) and not node.summands


#: The n-ary nodes: (rank in the sort key, JSON kind, field of the children,
#: separator in render).
_NARY = {
    Product: (5, "product", "factors", " x "),
    Wedge: (6, "wedge", "summands", " v "),
    Smash: (7, "smash", "factors", " ^ "),
}


def _children(node: Node) -> tuple[Node, ...]:
    return getattr(node, _NARY[type(node)][2])


def _key(node: Node, child_keys: tuple) -> tuple:
    """The sort key of ``node``, built from its children's keys (a loop's
    one child is its space): the key rule, stated once.

    A total deterministic order on normalized nodes: Circle < S^3{n} (by n)
    < Loop(S^m) (by m) < Loop(composite) < spheres < products < wedges <
    smashes; composites compare by their children.
    """
    if isinstance(node, Circle):
        return (0,)
    if isinstance(node, SphereModN):
        return (1, node.order)
    if isinstance(node, Loop):
        if isinstance(node.space, Sphere):
            return (2, node.space.dim)
        return (3, child_keys[0])
    if isinstance(node, Sphere):
        return (4, node.dim)
    return (_NARY[type(node)][0], child_keys)


def normalize(node: Node) -> Node:
    """Canonical form: flatten and sort products/wedges/smashes, drop point
    summands and factors, collapse smashes with a point to the point, and
    collapse singletons, in one bottom-up pass that builds each key once."""
    return _normal(node)[0]


def _normal(node: Node) -> tuple[Node, tuple]:
    """:func:`normalize` with the sort key (:func:`_key`) of the normal form."""
    if isinstance(node, (Circle, Sphere, SphereModN)):
        return node, _key(node, ())
    if isinstance(node, Loop):
        inner, key = _normal(node.space)
        if is_trivial(inner):
            return _POINT
        node = node if inner is node.space else Loop(inner)
        return node, _key(node, (key,))
    if type(node) not in _NARY:
        raise TypeError(f"not a homotopy expression: {node!r}")
    kind = type(node)
    parts: list[tuple[tuple, Node]] = []  # (key, child)
    for child, key in map(_normal, _children(node)):
        if is_trivial(child):
            if kind is Smash:
                return _POINT  # X ^ pt = pt
            continue  # X x pt = X v pt = X
        if isinstance(child, kind):  # its key's second entry lists its children's
            parts.extend(zip(key[1], _children(child)))
        else:
            parts.append((key, child))
    if len(parts) <= 1:
        return parts[0][::-1] if parts else _POINT
    parts.sort(key=itemgetter(0))
    keys, children = zip(*parts)
    node = node if children == _children(node) else kind(children)
    return node, _key(node, keys)


#: What :func:`_normal` returns when a node collapses to the point.
_POINT = (TRIVIAL, _key(TRIVIAL, ()))


def render(node: Node) -> str:
    """Stable text form: ``S^1 x Loop(S^2) x Loop(S^2 x S^3) x Loop(W)``."""
    if isinstance(node, Circle):
        return "S^1"
    if isinstance(node, Sphere):
        return f"S^{node.dim}"
    if isinstance(node, SphereModN):
        return f"S^3{{{node.order}}}"
    if isinstance(node, Loop):
        return f"Loop({render(node.space)})"
    if type(node) not in _NARY:
        raise TypeError(f"not a homotopy expression: {node!r}")
    parts = [
        f"({render(c)})" if type(c) in _NARY else render(c) for c in _children(node)
    ]
    return _NARY[type(node)][3].join(parts) if parts else "pt"


def ast_to_json(node: Node) -> dict:
    """JSON-friendly dump of a normalized expression."""
    if isinstance(node, Circle):
        return {"kind": "circle"}
    if isinstance(node, Sphere):
        return {"kind": "sphere", "dim": node.dim}
    if isinstance(node, SphereModN):
        return {"kind": "sphere_mod", "dim": 3, "order": node.order}
    if isinstance(node, Loop):
        return {"kind": "loop", "space": ast_to_json(node.space)}
    if type(node) not in _NARY:
        raise TypeError(f"not a homotopy expression: {node!r}")
    _, kind, field, _ = _NARY[type(node)]
    return {"kind": kind, field: [ast_to_json(c) for c in _children(node)]}


# ---------------------------------------------------------------------------
# The decomposition
# ---------------------------------------------------------------------------


def _sphere_wedge_pairs(count: int) -> Node:
    """The wedge of ``count`` copies of S^2 v S^3 (the point if count = 0)."""
    return Wedge(tuple([Sphere(2)] * count + [Sphere(3)] * count))


# For d >= 1 the loop space depends only on d, so each rank is built once per
# process and every spec of that rank shares the (frozen) expression.
@cache
def _decompose_rank(d: int) -> Node:
    if d == 1:
        return normalize(Product((Circle(), Loop(Sphere(2)), Loop(Sphere(5)))))
    J = _sphere_wedge_pairs(d - 2)
    loops_z = Loop(Product((Sphere(2), Sphere(3))))
    wedge = Wedge((J, Smash((J, loops_z))))
    return normalize(Product((Circle(), Loop(Sphere(2)), loops_z, Loop(wedge))))


def decompose(N: FourManifold, b: BundleData) -> Node:
    """Normalized loop-space decomposition of the 6-manifold for (N, b).

    For ``d >= 1`` the answer depends only on ``d``.  For ``d = 0`` the
    supported attaching numbers are ``k`` odd up to :data:`MAX_ODD_K`,
    ``k = 2^r`` with ``r >= 3``, and the classical extensions
    ``k in {0, 1}``; everything else raises :class:`UnsupportedCase`.
    """
    if N.d >= 1:
        return _decompose_rank(N.d)
    k = abs(b.ell)
    if k == 0:
        # trivial bundle: Loop(S^2 x S^4), with Loop(S^2) = S^1 x Loop(S^3)
        return normalize(Product((Circle(), Loop(Sphere(3)), Loop(Sphere(4)))))
    if k == 1:
        # total space is CP^3; its loop space is S^1 x Loop(S^7)
        return normalize(Product((Circle(), Loop(Sphere(7)))))
    if k % 2 == 1:
        if k > MAX_ODD_K:
            raise UnsupportedCase(
                f"k = {k} is odd and larger than {MAX_ODD_K}; factoring it "
                "is outside the supported size"
            )
        mods = tuple([SphereModN(q) for _, q in _prime_powers(k)])
        return normalize(Product((Circle(), *mods, Loop(Sphere(7)))))
    # k even
    if k == 2:
        raise UnsupportedCase(
            "k = 2: S^3{2} is not an H-space, so the loop space admits no "
            "product decomposition S^1 x S^3{2} x Loop(S^7)"
        )
    m = k
    r = 0
    while m % 2 == 0:
        m //= 2
        r += 1
    if m == 1:
        if r >= 3:
            return normalize(
                Product((Circle(), SphereModN(k), Loop(Sphere(7))))
            )
        raise UnsupportedCase(
            f"k = {k} = 2^{r} with r < 3 is unresolved; the 2-primary "
            "splitting is much more difficult in this range"
        )
    raise UnsupportedCase(
        f"k = {k} = 2^{r} * {m} with odd cofactor > 1 is unresolved; "
        "this even case is much more difficult"
    )


def extension_notes(N: FourManifold, b: BundleData) -> tuple[str, ...]:
    """Warnings for decompositions that extend the core case analysis."""
    if N.d == 0:
        k = abs(b.ell)
        if k == 0:
            return (
                "extension: k = 0 is the trivial bundle S^2 x S^4; its loop "
                "space is split via Loop(S^2) = S^1 x Loop(S^3)",
            )
        if k == 1:
            return (
                "extension: k = 1 gives the complex projective 3-space, with "
                "Loop(CP^3) = S^1 x Loop(S^7)",
            )
    return ()


class YSpaceReport(Record):
    """Report on the auxiliary circle-bundle 5-manifold Y over N.

    ``case`` is "I" when the chosen primitive class has odd self-pairing
    (the induced 7-manifold splits as S^2 x Y and Loop M = S^1 x Loop(S^2)
    x Loop Y) and "II" when it is even (the sphere bundle itself splits
    after looping).  ``y_cells`` is the cell structure of Y: d - 1 pairs
    S^2 v S^3 with one 5-cell attached.
    """

    __slots__ = ("beta", "parity", "case", "route", "y_cells")
    beta: tuple[int, ...]
    parity: str
    case: str
    route: str
    y_cells: str

    def __init__(self, beta, parity, case, route, y_cells) -> None:
        self._assign(beta, parity, case, route, y_cells)


def y_space_report(N: FourManifold, b: BundleData) -> YSpaceReport:
    """Choose the circle-bundle class beta and report the case split."""
    if N.d < 1:
        raise WrongDimension(f"the Y-space analysis needs d >= 1, got d={N.d}")
    if is_spin(b):
        beta = tuple([1] + [0] * (N.d - 1))
    else:
        beta = b.alpha
    parity = pairing_parity(N, beta)
    case = "I" if parity == "odd" else "II"
    if N.d == 1:
        y_cells = "S^5"
    else:
        y_cells = f"({render(_sphere_wedge_pairs(N.d - 1))}) u e^5"
    route = (
        "odd self-pairing: the induced 7-manifold over Y splits as S^2 x Y"
        if case == "I"
        else "even self-pairing: the sphere bundle splits after looping"
    )
    return YSpaceReport(
        beta=beta, parity=parity, case=case, route=route, y_cells=y_cells
    )


def analyze_circle_bundle(b: BundleData) -> dict:
    """Cell data of the circle-bundle 7-manifold X over M when d = 0.

    M is ``S^2 u_{k eta} e^4 u e^6`` with ``k = |ell|``: every invariant read
    off downstream (the order of pi_3, the prime factors entering the
    decomposition) depends only on ``|k|``, and orientation-sensitive signs
    are out of scope.  For ``k != 0`` the total space is a Moore space
    P^4(k) with a 7-cell attached; for ``k = 0`` it is S^3 x S^4.
    """
    if b.d != 0:
        raise WrongDimension(f"cell structure of this form needs d=0, got d={b.d}")
    k = abs(b.ell)
    if k == 0:
        return {"k": 0, "cells": "S^3 x S^4"}
    return {"k": k, "cells": f"P^4({k}) u e^7", "moore_space_order": k, "top_cell": 7}


# ---------------------------------------------------------------------------
# Bouquet expansion and Hilton-Milnor factors
# ---------------------------------------------------------------------------


def _bouquet_letters(d: int) -> tuple[_Poly, _Poly]:
    """The bouquet's letter series ``(d-2) t / (1-t)^2`` as ``(num, den)``:
    (d-2) w letters of weight w, one per sphere of dimension w + 1.

    With ``J`` the wedge of (d-2) copies of S^2 v S^3, the bouquet ``J v (J ^
    Loop(S^2 x S^3))`` has free reduced homology with series
    ``(d-2)(t^2+t^3)/((1-t)(1-t^2)) = (d-2) t^2 / (1-t)^2``: it is a wedge of
    (d-2)(n-1) n-spheres for every n >= 2, and an n-sphere is a letter of
    weight n - 1.
    """
    return (0, d - 2), (1, -2, 1)


class LoopFactorMultiset(Record):
    """Fully expanded product of loop-space factors.

    ``sphere_loops`` lists ``(m, multiplicity)`` for factors ``Loop(S^m)``
    with ``m <= cutoff + 1``; ``mod_factors`` are the orders of ``S^3{n}``
    factors.  ``truncated`` is set when factors beyond the enumerated range
    exist (equivalently, whenever the underlying wedge has at least two
    sphere letters), in which case consumers must not read ranks past
    ``cutoff``.
    """

    __slots__ = ("circles", "sphere_loops", "mod_factors", "truncated", "cutoff")
    circles: int
    sphere_loops: tuple[tuple[int, int], ...]
    mod_factors: tuple[int, ...]
    truncated: bool
    cutoff: int

    def __init__(self, circles, sphere_loops, mod_factors, truncated, cutoff) -> None:
        self._assign(circles, sphere_loops, mod_factors, truncated, cutoff)

    def loops_by_dim(self) -> dict[int, int]:
        return dict(self.sphere_loops)


def hilton_milnor(
    spheres: Mapping[int, int] | Iterable[int], cutoff: int
) -> LoopFactorMultiset:
    """Hilton-Milnor expansion of ``Loop`` of a wedge of spheres.

    A sphere of dimension ``n_i + 1`` contributes a letter of weight
    ``n_i``; each basic product of total weight ``w`` contributes one
    factor ``Loop(S^{w+1})``.  Factors are enumerated up to dimension
    ``cutoff + 1`` by :func:`loopsix.series.lie_ring_weight_counts`; no word
    lists are built.  ``spheres`` maps dimensions to counts, or lists one
    dimension per sphere; exact ``int``s, dimensions >= 2, counts >= 0.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    letters = {n - 1: c for n, c in _multiset(spheres, "sphere", "dimension", 2).items()}
    counts = lie_ring_weight_counts(letters, cutoff)
    loops = tuple([(w + 1, c) for w, c in enumerate(counts, 1) if c])
    return LoopFactorMultiset(
        circles=0,
        sphere_loops=loops,
        mod_factors=(),
        truncated=sum(letters.values()) >= 2,
        cutoff=cutoff,
    )


def loop_factors(N: FourManifold, b: BundleData, cutoff: int) -> LoopFactorMultiset:
    """Expand the factors of :func:`decompose` into circle/loop-sphere factors.

    ``Loop(S^2 x S^3)`` contributes ``Loop(S^2)`` and ``Loop(S^3)``; the
    wedge summand for d >= 3 is expanded through Hilton-Milnor, in O(cutoff)
    steps from its closed-form letter series :func:`_bouquet_letters`.
    Factors ``Loop(S^m)`` are enumerated for ``m <= cutoff + 1``, which
    determines rational homotopy ranks through degree ``cutoff``.
    """
    _require_int(cutoff, "cutoff", minimum=1)
    circles = 0
    mods: list[int] = []
    loops: dict[int, int] = {}
    truncated = False
    for f in decompose(N, b).factors:  # may raise UnsupportedCase
        if isinstance(f, Circle):
            circles += 1
        elif isinstance(f, SphereModN):
            mods.append(f.order)
        elif isinstance(f.space, Wedge):
            for m, c in enumerate(_witt_counts(*_bouquet_letters(N.d), cutoff), 2):
                loops[m] = loops.get(m, 0) + c
            truncated = True
        else:  # Loop of a sphere or of a product of spheres
            space = f.space
            for sphere in space.factors if isinstance(space, Product) else (space,):
                if sphere.dim <= cutoff + 1:
                    loops[sphere.dim] = loops.get(sphere.dim, 0) + 1
                else:
                    truncated = True
    return LoopFactorMultiset(
        circles=circles,
        sphere_loops=tuple(sorted(loops.items())),
        mod_factors=tuple(mods),
        truncated=truncated,
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# Rational loop homology series
# ---------------------------------------------------------------------------


def _homology(node: Node, cutoff: int) -> tuple[_Poly, _Poly]:
    """Unreduced rational homology series of a normalized node as a quotient
    ``(num, den)`` of polynomials, ``den(0) = 1``, known through ``cutoff``.
    A run of m equal summands of a wedge is evaluated once, as m (h - 1)."""
    if isinstance(node, (Circle, Sphere)):
        dim = 1 if isinstance(node, Circle) else node.dim
        return ((1,) + (0,) * (dim - 1) + (1,) if dim <= cutoff else (1,)), (1,)
    if isinstance(node, SphereModN):
        return (1,), (1,)  # rationally a point
    if isinstance(node, Loop):
        space = node.space
        if isinstance(space, Product):  # Loop(X x Y) = Loop X x Loop Y
            return _homology(Product(tuple([Loop(f) for f in space.factors])), cutoff)
        if not isinstance(space, (Sphere, Wedge)):
            raise UnsupportedNode(f"cannot take loop homology of {space!r}")
        # Bott-Samelson: loops on a sphere or on a bouquet of spheres (possibly
        # given implicitly through smashes with loop spaces) have the tensor
        # algebra on g = (h - 1) / t, so 1 / (1 - g) = den / (den - (num - den) / t).
        num, den = _homology(space, cutoff + 1)
        reduced = _add(num, den, -1)
        if len(reduced) > 1 and reduced[1]:
            name = "wedge summand" if isinstance(space, Wedge) else render(space)
            raise UnsupportedNode(
                f"{name} is not simply connected; cannot expand its loops"
            )
        return den[: cutoff + 1], _add(den, reduced[1:], -1)[: cutoff + 1]
    if isinstance(node, Wedge):  # 1 + sum(h - 1), adding numerators over equal dens
        num, den = (0,), (1,)  # the sum so far
        for summand, run in groupby(node.summands):  # m equal summands add m (h - 1)
            n, d = _homology(summand, cutoff)
            n = _add(n, d, -1)
            if d != den:  # a / b + m n / d = (a d + m n b) / (b d)
                num, n = _mul(num, d, cutoff), _mul(n, den, cutoff)
                den = _mul(den, d, cutoff)
            num = _add(num, n, len(list(run)))
        return _add(num, den), den
    # prod(h), or for a smash (of at least two factors once normalized) 1 + prod(h - 1)
    smash = isinstance(node, Smash)
    num, den = (1,), (1,)
    for n, d in [_homology(c, cutoff) for c in _children(node)]:
        num = _mul(num, _add(n, d, -1) if smash else n, cutoff)
        den = _mul(den, d, cutoff)
    return (_add(num, den) if smash else num), den


def loop_homology_series(expr: Node, cutoff: int) -> TruncatedSeries:
    """Rational Poincare series of the homology of a loop-space product.

    Supported factors: ``S^1`` (series ``1+t``), ``S^3{n}`` (series 1),
    ``Loop`` of a sphere, of a finite product of spheres, or of a bouquet of
    spheres (including the implicit bouquets coming from smash summands).
    The series is a rational function ``num / den`` of integer polynomials,
    built node by node and expanded once by :func:`loopsix.series._expand`,
    in O(cutoff * deg den) steps.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    node = normalize(expr)
    for f in node.factors if isinstance(node, Product) else (node,):
        if not (isinstance(f, (Circle, SphereModN, Loop)) or is_trivial(f)):
            raise UnsupportedNode(f"not a loop-space factor: {render(f)}")
    return TruncatedSeries(tuple(_expand(*_homology(node, cutoff), cutoff)))
