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

Here ``S^3{n}`` is the homotopy fiber of the degree-n self-map of the
3-sphere; it is rationally trivial.  The wedge summand for d >= 3 is a
bouquet of spheres, so a Hilton-Milnor expansion turns the whole thing into
a product of loops on spheres with a circle; :func:`loop_factors` performs
that expansion with exact Witt counts and :func:`loop_homology_series`
computes the rational loop-homology series of any decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import InputError, UnsupportedCase
from .manifold import (
    BundleData,
    FourManifold,
    WrongDimension,
    d0_cell_structure,
    is_spin,
    pairing_parity,
)
from .series import (
    TruncatedSeries,
    _prime_powers,
    lie_ring_weight_counts,
    series_reciprocal,
)


class UnsupportedNode(InputError):
    """A homotopy expression the series evaluator does not handle."""


# ---------------------------------------------------------------------------
# Homotopy-type AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    """The circle S^1 (as a loop-space factor)."""


@dataclass(frozen=True)
class Sphere:
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("sphere dimension must be >= 1")


@dataclass(frozen=True)
class SphereModN:
    """S^3{order}: the homotopy fiber of the degree-``order`` map on S^3."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("S^3{n} needs n >= 2")


@dataclass(frozen=True)
class Loop:
    space: "Node"


@dataclass(frozen=True)
class Product:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Wedge:
    summands: tuple["Node", ...]


@dataclass(frozen=True)
class Smash:
    factors: tuple["Node", ...]


Node = Union[Circle, Sphere, SphereModN, Loop, Product, Wedge, Smash]

#: The one-point space, represented as the empty wedge.
TRIVIAL: Node = Wedge(())


def is_trivial(node: Node) -> bool:
    return isinstance(node, Wedge) and not node.summands


def node_key(node: Node):
    """Total deterministic order on normalized nodes.

    Circle < S^3{n} (by n) < Loop(S^m) (by m) < Loop(composite) < spheres <
    products < wedges < smashes; composites compare by their children.
    """
    if isinstance(node, Circle):
        return (0,)
    if isinstance(node, SphereModN):
        return (1, node.order)
    if isinstance(node, Loop):
        if isinstance(node.space, Sphere):
            return (2, node.space.dim)
        return (3, node_key(node.space))
    if isinstance(node, Sphere):
        return (4, node.dim)
    if isinstance(node, Product):
        return (5, tuple([node_key(f) for f in node.factors]))
    if isinstance(node, Wedge):
        return (6, tuple([node_key(s) for s in node.summands]))
    if isinstance(node, Smash):
        return (7, tuple([node_key(f) for f in node.factors]))
    raise TypeError(f"not a homotopy expression: {node!r}")


def normalize(node: Node) -> Node:
    """Canonical form: flatten and sort products/wedges/smashes, drop point
    summands and factors, collapse smashes with a point to the point, and
    collapse singletons."""
    if isinstance(node, (Circle, Sphere, SphereModN)):
        return node
    if isinstance(node, Loop):
        inner = normalize(node.space)
        if is_trivial(inner):
            return TRIVIAL
        return Loop(inner)
    if isinstance(node, Product):
        factors: list[Node] = []
        for f in node.factors:
            nf = normalize(f)
            if is_trivial(nf):
                continue  # X x pt = X
            if isinstance(nf, Product):
                factors.extend(nf.factors)
            else:
                factors.append(nf)
        if not factors:
            return TRIVIAL
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(sorted(factors, key=node_key)))
    if isinstance(node, Wedge):
        summands: list[Node] = []
        for s in node.summands:
            ns = normalize(s)
            if is_trivial(ns):
                continue  # X v pt = X
            if isinstance(ns, Wedge):
                summands.extend(ns.summands)
            else:
                summands.append(ns)
        if not summands:
            return TRIVIAL
        if len(summands) == 1:
            return summands[0]
        return Wedge(tuple(sorted(summands, key=node_key)))
    if isinstance(node, Smash):
        factors = []
        for f in node.factors:
            nf = normalize(f)
            if is_trivial(nf):
                return TRIVIAL  # X ^ pt = pt
            if isinstance(nf, Smash):
                factors.extend(nf.factors)
            else:
                factors.append(nf)
        if not factors:
            return TRIVIAL
        if len(factors) == 1:
            return factors[0]
        return Smash(tuple(sorted(factors, key=node_key)))
    raise TypeError(f"not a homotopy expression: {node!r}")


def render(node: Node) -> str:
    """Stable text form: ``S^1 x Loop(S^2) x Loop(S^2 x S^3) x Loop(W)``."""

    def atom(n: Node) -> str:
        text = render(n)
        if isinstance(n, (Product, Wedge, Smash)):
            return f"({text})"
        return text

    if isinstance(node, Circle):
        return "S^1"
    if isinstance(node, Sphere):
        return f"S^{node.dim}"
    if isinstance(node, SphereModN):
        return f"S^3{{{node.order}}}"
    if isinstance(node, Loop):
        return f"Loop({render(node.space)})"
    if isinstance(node, Product):
        return " x ".join(atom(f) for f in node.factors) if node.factors else "pt"
    if isinstance(node, Wedge):
        return " v ".join(atom(s) for s in node.summands) if node.summands else "pt"
    if isinstance(node, Smash):
        return " ^ ".join(atom(f) for f in node.factors) if node.factors else "pt"
    raise TypeError(f"not a homotopy expression: {node!r}")


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
    if isinstance(node, Product):
        return {"kind": "product", "factors": [ast_to_json(f) for f in node.factors]}
    if isinstance(node, Wedge):
        return {"kind": "wedge", "summands": [ast_to_json(s) for s in node.summands]}
    if isinstance(node, Smash):
        return {"kind": "smash", "factors": [ast_to_json(f) for f in node.factors]}
    raise TypeError(f"not a homotopy expression: {node!r}")


# ---------------------------------------------------------------------------
# The decomposition
# ---------------------------------------------------------------------------


def _sphere_wedge_pairs(count: int) -> Node:
    """The wedge of ``count`` copies of S^2 v S^3 (the point if count = 0)."""
    return Wedge(tuple([Sphere(2)] * count + [Sphere(3)] * count))


def decompose(N: FourManifold, b: BundleData) -> Node:
    """Normalized loop-space decomposition of the 6-manifold for (N, b).

    For ``d >= 1`` the answer depends only on ``d``.  For ``d = 0`` the
    supported attaching numbers are ``k`` odd, ``k = 2^r`` with ``r >= 3``,
    and the classical extensions ``k in {0, 1}``; everything else raises
    :class:`UnsupportedCase`.
    """
    d = N.d
    if d == 1:
        return normalize(Product((Circle(), Loop(Sphere(2)), Loop(Sphere(5)))))
    if d >= 2:
        J = _sphere_wedge_pairs(d - 2)
        loops_z = Loop(Product((Sphere(2), Sphere(3))))
        wedge = Wedge((J, Smash((J, loops_z))))
        return normalize(Product((Circle(), Loop(Sphere(2)), loops_z, Loop(wedge))))

    k = abs(b.ell)
    if k == 0:
        # trivial bundle: Loop(S^2 x S^4), with Loop(S^2) = S^1 x Loop(S^3)
        return normalize(Product((Circle(), Loop(Sphere(3)), Loop(Sphere(4)))))
    if k == 1:
        # total space is CP^3; its loop space is S^1 x Loop(S^7)
        return normalize(Product((Circle(), Loop(Sphere(7)))))
    if k % 2 == 1:
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


@dataclass(frozen=True)
class YSpaceReport:
    """Report on the auxiliary circle-bundle 5-manifold Y over N.

    ``case`` is "I" when the chosen primitive class has odd self-pairing
    (the induced 7-manifold splits as S^2 x Y and Loop M = S^1 x Loop(S^2)
    x Loop Y) and "II" when it is even (the sphere bundle itself splits
    after looping).  ``wedge_pairs`` counts the S^2 v S^3 pairs in the cell
    structure of Y, which is that wedge with one 5-cell attached.
    """

    beta: tuple[int, ...]
    parity: str
    case: str
    wedge_pairs: int
    top_cell: int
    route: str
    y_cells: str


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
    wedge_pairs = N.d - 1
    if wedge_pairs == 0:
        y_cells = "S^5"
    else:
        y_cells = f"({render(_sphere_wedge_pairs(wedge_pairs))}) u e^5"
    route = (
        "odd self-pairing: the induced 7-manifold over Y splits as S^2 x Y"
        if case == "I"
        else "even self-pairing: the sphere bundle splits after looping"
    )
    return YSpaceReport(
        beta=beta,
        parity=parity,
        case=case,
        wedge_pairs=wedge_pairs,
        top_cell=5,
        route=route,
        y_cells=y_cells,
    )


def analyze_circle_bundle(b: BundleData) -> dict:
    """Cell data of the circle-bundle 7-manifold X over M when d = 0.

    For ``k != 0`` the total space is a Moore space P^4(k) with a 7-cell
    attached; for ``k = 0`` it is S^3 x S^4.
    """
    k = d0_cell_structure(b).k
    if k == 0:
        return {"k": 0, "cells": "S^3 x S^4"}
    return {"k": k, "cells": f"P^4({k}) u e^7", "moore_space_order": k, "top_cell": 7}


# ---------------------------------------------------------------------------
# Bouquet expansion and Hilton-Milnor factors
# ---------------------------------------------------------------------------


def bouquet_spheres(d: int, cutoff: int) -> dict[int, int]:
    """Sphere multiset of the bouquet ``J v (J ^ Loop(S^2 x S^3))``.

    With ``J`` the wedge of (d-2) copies of S^2 v S^3, the reduced homology
    series of the bouquet is ``(d-2)(t^2+t^3)/((1-t)(1-t^2))``; since the
    space is a bouquet of spheres with free homology, the coefficient of
    ``t^n`` is the number of n-spheres.  Dimensions above ``cutoff`` are
    omitted.
    """
    if d < 2:
        raise InputError(f"the bouquet summand exists only for d >= 2, got d={d}")
    if d == 2:
        return {}
    h_z = series_reciprocal(
        TruncatedSeries.from_coefficients([1, -1], cutoff)
        * TruncatedSeries.from_coefficients([1, 0, -1], cutoff)
    )
    j = TruncatedSeries.from_coefficients([0, 0, d - 2, d - 2], cutoff)
    h = j * h_z
    counts = h.integer_coefficients()
    return {n: counts[n] for n in range(2, cutoff + 1) if counts[n]}


@dataclass(frozen=True)
class LoopFactorMultiset:
    """Fully expanded product of loop-space factors.

    ``sphere_loops`` lists ``(m, multiplicity)`` for factors ``Loop(S^m)``
    with ``m <= cutoff + 1``; ``mod_factors`` are the orders of ``S^3{n}``
    factors.  ``truncated`` is set when factors beyond the enumerated range
    exist (equivalently, whenever the underlying wedge has at least two
    sphere letters), in which case consumers must not read ranks past
    ``cutoff``.
    """

    circles: int
    sphere_loops: tuple[tuple[int, int], ...]
    mod_factors: tuple[int, ...]
    truncated: bool
    cutoff: int

    def loop_multiplicity(self, dim: int) -> int:
        for m, mult in self.sphere_loops:
            if m == dim:
                return mult
        return 0

    def loops_by_dim(self) -> dict[int, int]:
        return dict(self.sphere_loops)


def hilton_milnor(
    spheres: Mapping[int, int] | Iterable[int], cutoff: int
) -> LoopFactorMultiset:
    """Hilton-Milnor expansion of ``Loop`` of a wedge of spheres.

    A sphere of dimension ``n_i + 1`` contributes a letter of weight
    ``n_i``; each basic product of total weight ``w`` contributes one
    factor ``Loop(S^{w+1})``.  Factors are enumerated up to dimension
    ``cutoff + 1`` with exact Witt counts; no word lists are built.
    """
    if isinstance(spheres, Mapping):
        sphere_counts = {int(k): int(v) for k, v in spheres.items() if v}
    else:
        sphere_counts = {}
        for dim in spheres:
            sphere_counts[int(dim)] = sphere_counts.get(int(dim), 0) + 1
    if any(dim < 2 for dim in sphere_counts):
        raise InputError("Hilton-Milnor needs a wedge of simply connected spheres")
    letters = {dim - 1: count for dim, count in sphere_counts.items()}
    n_letters = sum(letters.values())
    weight_counts = lie_ring_weight_counts(letters, cutoff) if n_letters else []
    loops = tuple([
        (w + 1, weight_counts[w - 1])
        for w in range(1, cutoff + 1)
        if weight_counts and weight_counts[w - 1]
    ])
    return LoopFactorMultiset(
        circles=0,
        sphere_loops=loops,
        mod_factors=(),
        truncated=n_letters >= 2,
        cutoff=cutoff,
    )


def loop_factors(N: FourManifold, b: BundleData, cutoff: int) -> LoopFactorMultiset:
    """Expand the decomposition of (N, b) into circle/loop-sphere factors.

    ``Loop(S^2 x S^3)`` contributes ``Loop(S^2)`` and ``Loop(S^3)``; the
    wedge summand for d >= 3 is expanded through Hilton-Milnor.  Factors
    ``Loop(S^m)`` are enumerated for ``m <= cutoff + 1``, which determines
    rational homotopy ranks through degree ``cutoff``.
    """
    if cutoff < 1:
        raise InputError("cutoff must be >= 1")
    d = N.d
    if d == 0:
        expr = decompose(N, b)  # may raise UnsupportedCase
        mods = tuple([
            f.order for f in expr.factors if isinstance(f, SphereModN)
        ])
        loops: dict[int, int] = {}
        dropped = False
        for f in expr.factors:
            if isinstance(f, Loop) and isinstance(f.space, Sphere):
                m = f.space.dim
                if m <= cutoff + 1:
                    loops[m] = loops.get(m, 0) + 1
                else:
                    dropped = True
        return LoopFactorMultiset(
            circles=1,
            sphere_loops=tuple(sorted(loops.items())),
            mod_factors=mods,
            truncated=dropped,
            cutoff=cutoff,
        )
    if d == 1:
        base = {2: 1, 5: 1}
    else:
        base = {2: 2, 3: 1}
    loops = {m: c for m, c in base.items() if m <= cutoff + 1}
    truncated = any(m > cutoff + 1 for m in base)
    if d >= 3:
        wedge = bouquet_spheres(d, cutoff + 1)
        expansion = hilton_milnor(wedge, cutoff)
        for m, c in expansion.sphere_loops:
            loops[m] = loops.get(m, 0) + c
        truncated = truncated or expansion.truncated
    return LoopFactorMultiset(
        circles=1,
        sphere_loops=tuple(sorted(loops.items())),
        mod_factors=(),
        truncated=truncated,
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# Rational loop homology series
# ---------------------------------------------------------------------------


def sphere_loop_series(dim: int, cutoff: int) -> TruncatedSeries:
    """Rational homology series of ``Loop(S^dim)`` for ``dim >= 2``:
    ``1/(1-t^{m-1})`` for odd spheres, ``(1+t^{m-1})/(1-t^{2m-2})`` even."""
    if dim < 2:
        raise UnsupportedNode(f"Loop(S^{dim}) needs dim >= 2")
    if dim % 2 == 1:
        return series_reciprocal(
            TruncatedSeries.one(cutoff) - TruncatedSeries.monomial(dim - 1, 1, cutoff)
        )
    numerator = TruncatedSeries.one(cutoff) + TruncatedSeries.monomial(
        dim - 1, 1, cutoff
    )
    denominator = TruncatedSeries.one(cutoff) - TruncatedSeries.monomial(
        2 * dim - 2, 1, cutoff
    )
    return numerator * series_reciprocal(denominator)


def _reduced_homology_series(node: Node, cutoff: int) -> TruncatedSeries:
    """Reduced rational homology series of a (nice) space node."""
    if isinstance(node, Sphere):
        return TruncatedSeries.monomial(node.dim, 1, cutoff)
    if isinstance(node, Circle):
        return TruncatedSeries.monomial(1, 1, cutoff)
    if isinstance(node, SphereModN):
        return TruncatedSeries.zero(cutoff)  # rationally a point
    if isinstance(node, Wedge):
        total = TruncatedSeries.zero(cutoff)
        for s in node.summands:
            total = total + _reduced_homology_series(s, cutoff)
        return total
    if isinstance(node, Smash):
        total = TruncatedSeries.one(cutoff)
        for f in node.factors:
            total = total * _reduced_homology_series(f, cutoff)
        return total
    if isinstance(node, Product):
        total = TruncatedSeries.one(cutoff)
        for f in node.factors:
            total = total * (
                TruncatedSeries.one(cutoff) + _reduced_homology_series(f, cutoff)
            )
        return total - TruncatedSeries.one(cutoff)
    if isinstance(node, Loop):
        return _loop_series(node.space, cutoff) - TruncatedSeries.one(cutoff)
    raise UnsupportedNode(f"no homology series for {node!r}")


def _loop_series(space: Node, cutoff: int) -> TruncatedSeries:
    """Homology series of ``Loop(space)`` for spheres, products and bouquets."""
    if isinstance(space, Sphere):
        return sphere_loop_series(space.dim, cutoff)
    if isinstance(space, Product):
        total = TruncatedSeries.one(cutoff)
        for f in space.factors:
            total = total * _loop_series(f, cutoff)
        return total
    if isinstance(space, Wedge):
        # The wedges produced here are bouquets of spheres (possibly given
        # implicitly through smashes with loop spaces), so Loop of the wedge
        # is a tensor algebra on the desuspended homology.
        reduced = _reduced_homology_series(space, cutoff + 1)
        if reduced[0] != 0 or reduced[1] != 0:
            raise UnsupportedNode(
                "wedge summand is not simply connected; cannot expand its loops"
            )
        generators = reduced.divide_by_t()
        return series_reciprocal(TruncatedSeries.one(cutoff) - generators)
    raise UnsupportedNode(f"cannot take loop homology of {space!r}")


def loop_homology_series(expr: Node, cutoff: int) -> TruncatedSeries:
    """Rational Poincare series of the homology of a loop-space product.

    Supported factors: ``S^1`` (series ``1+t``), ``S^3{n}`` (series 1),
    ``Loop`` of a sphere, of a finite product of spheres, or of a bouquet of
    spheres (including the implicit bouquets coming from smash summands).
    """
    node = normalize(expr)
    factors = node.factors if isinstance(node, Product) else (node,)
    total = TruncatedSeries.one(cutoff)
    for f in factors:
        if isinstance(f, Circle):
            total = total * TruncatedSeries.from_coefficients([1, 1], cutoff)
        elif isinstance(f, SphereModN):
            continue
        elif isinstance(f, Loop):
            total = total * _loop_series(f.space, cutoff)
        elif is_trivial(f):
            continue
        else:
            raise UnsupportedNode(f"not a loop-space factor: {render(f)}")
    return total
