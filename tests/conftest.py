"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own combinatorics:
Lyndon words are enumerated as explicit words, and graded free Lie algebra
dimensions are computed by spanning literal bracket expressions inside the
tensor algebra with Koszul signs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iter_product
from math import comb
from operator import mul
from pathlib import Path

import pytest

from loopsix import BundleData, FourManifold, bundle_from_classes, new_four_manifold
from loopsix.errors import InputError
from loopsix.manifold import cohomology_ring
from loopsix.rational import make_sullivan_model, quadratic_presentation
from loopsix.series import GradedLieDims, NegativeLieDimension, TruncatedSeries

REPO_ROOT = Path(__file__).resolve().parent.parent
INPUTS = REPO_ROOT / "inputs"


# ---------------------------------------------------------------------------
# Random but reproducible manifolds and bundles
# ---------------------------------------------------------------------------


def random_unimodular_form(rng: random.Random, d: int, bound: int = 10) -> list[list[int]]:
    """A random symmetric integer matrix with det +-1 and entries <= bound.

    Starts from a +-1 diagonal (or hyperbolic blocks for even d) and applies
    unimodular congruences, skipping any step that would break the bound.
    """
    if d == 0:
        return []
    Q = [[0] * d for _ in range(d)]
    if d % 2 == 0 and rng.random() < 0.4:
        for i in range(0, d, 2):
            Q[i][i + 1] = Q[i + 1][i] = 1
    else:
        for i in range(d):
            Q[i][i] = rng.choice([1, -1])
    for _ in range(3 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        candidate = [row[:] for row in Q]
        for r in range(d):
            candidate[r][j] += c * candidate[r][i]
        for s in range(d):
            candidate[j][s] += c * candidate[i][s]
        if max(abs(x) for row in candidate for x in row) <= bound:
            Q = candidate
    return Q


def random_bundle(
    rng: random.Random, N: FourManifold
) -> BundleData:
    """A valid bundle over N with small level."""
    w2 = [rng.randint(0, 1) for _ in range(N.d)]
    alpha = tuple(w2)
    ell = rng.randint(-5, 5)
    p1 = 4 * ell + N.pairing(alpha)
    return bundle_from_classes(N, w2, p1)


def random_pair(rng: random.Random, d: int) -> tuple[FourManifold, BundleData]:
    N = new_four_manifold(random_unimodular_form(rng, d))
    return N, random_bundle(rng, N)


#: The desk workload's ``desk d2 #0`` and ``desk d3 #0`` specs as (form,
#: w2, p1), the more elimination-heavy of its two pooled specs per rank.
DESK_D2_0 = ([[5, 2], [2, 1]], [1, 1], 10)
DESK_D3_0 = ([[0, 0, 1], [0, 1, 1], [1, 1, 1]], [1, 0, 0], -12)

#: Ring specs (form, w2, p1) beyond the committed ones: hyperbolic forms,
#: whose zero diagonal makes the orthogonal basis meet an isotropic pivot,
#: and p1 = 0.
SPECIAL_SPECS = {
    "H": ([[0, 1], [1, 0]], [1, 0], 4),
    "H+H": ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [0, 0, 0, 0], 8),
    "H+(-1)": ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], [1, 1, 1], 5),
    "p1_0": ([[1, 0], [0, -1]], [1, 1], 0),
    "H_p1_0": ([[0, 1], [1, 0]], [0, 0], 0),
}


def spec_and_random_presentations(max_rank):
    """The desk specs, :data:`SPECIAL_SPECS` and random forms of rank 2 to
    ``max_rank``, as presentations."""
    specs = {"desk_d2_0": DESK_D2_0, "desk_d3_0": DESK_D3_0, **SPECIAL_SPECS}
    out = []
    for name, (form, w2, p1) in specs.items():
        N = new_four_manifold(form)
        ring = cohomology_ring(N, bundle_from_classes(N, w2, p1))
        out.append(pytest.param(quadratic_presentation(ring), id=name))
    for d in range(2, max_rank + 1):
        ring = cohomology_ring(*random_pair(random.Random(200 + d), d))
        out.append(pytest.param(quadratic_presentation(ring), id=f"random_d{d}"))
    return out


# ---------------------------------------------------------------------------
# Lyndon word oracle (free Lie ring basis counts by explicit enumeration)
# ---------------------------------------------------------------------------


def _is_lyndon(word: tuple[int, ...]) -> bool:
    n = len(word)
    for shift in range(1, n):
        if word[shift:] + word[:shift] <= word:
            return False
    return True


def lyndon_count_for_weight(letter_weights: list[int], total_weight: int) -> int:
    """Number of Lyndon words over a weighted alphabet with given total weight."""
    count = 0
    max_len = total_weight  # weights are >= 1
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        word, weight = stack.pop()
        for letter, w in enumerate(letter_weights):
            new_weight = weight + w
            if new_weight > total_weight or len(word) + 1 > max_len:
                continue
            new_word = word + (letter,)
            if new_weight == total_weight:
                if _is_lyndon(new_word):
                    count += 1
            else:
                stack.append((new_word, new_weight))
    return count


# ---------------------------------------------------------------------------
# Graded free Lie algebra oracle (bracket spans in the tensor algebra)
# ---------------------------------------------------------------------------


def _tensor_bracket(
    u: dict[tuple[int, ...], Fraction],
    v: dict[tuple[int, ...], Fraction],
    deg_u: int,
    deg_v: int,
) -> dict[tuple[int, ...], Fraction]:
    """[u, v] = u (x) v - (-1)^{|u||v|} v (x) u with degree-1 odd generators."""
    sign = -((-1) ** (deg_u * deg_v))
    out: dict[tuple[int, ...], Fraction] = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            out[wu + wv] = out.get(wu + wv, Fraction(0)) + cu * cv
            out[wv + wu] = out.get(wv + wu, Fraction(0)) + Fraction(sign) * cu * cv
    return {w: c for w, c in out.items() if c != 0}


def _independent_subset(vectors, degree, num_letters):
    """Gaussian elimination over Q in the word basis; returns a basis list."""
    words = list(iter_product(range(num_letters), repeat=degree))
    index = {w: i for i, w in enumerate(words)}
    rows: list[list[Fraction]] = []
    basis = []
    pivots: dict[int, list[Fraction]] = {}
    for vec in vectors:
        dense = [Fraction(0)] * len(words)
        for w, c in vec.items():
            dense[index[w]] = c
        for col in sorted(pivots):
            if dense[col] != 0:
                factor = dense[col]
                dense = [x - factor * y for x, y in zip(dense, pivots[col])]
        lead = next((i for i, x in enumerate(dense) if x != 0), None)
        if lead is None:
            continue
        inv = Fraction(1) / dense[lead]
        dense = [x * inv for x in dense]
        pivots[lead] = dense
        basis.append(vec)
    return basis


def graded_free_lie_dims_oracle(num_letters: int, max_degree: int) -> list[int]:
    """Dimensions of the free graded Lie algebra on odd degree-1 generators,
    computed by spanning literal brackets inside the tensor algebra."""
    components: list[list[dict[tuple[int, ...], Fraction]]] = []
    degree_one = [
        {(i,): Fraction(1)} for i in range(num_letters)
    ]
    components.append(degree_one)
    dims = [len(degree_one)]
    for degree in range(2, max_degree + 1):
        candidates = []
        for split in range(1, degree):
            for u in components[split - 1]:
                for v in components[degree - split - 1]:
                    bracket = _tensor_bracket(u, v, split, degree - split)
                    if bracket:
                        candidates.append(bracket)
        basis = _independent_subset(candidates, degree, num_letters)
        components.append(basis)
        dims.append(len(basis))
    return dims


# ---------------------------------------------------------------------------
# Witt counts by the logarithm expansion (plain Fraction lists)
# ---------------------------------------------------------------------------


def lie_ring_weight_counts_by_log(
    letter_counts: dict[int, int], cutoff: int
) -> list[int]:
    """Hall-basis counts by weight from ``-log(1 - f) = sum_m f^m / m``.

    ``f`` is the alphabet's generating polynomial; the power sums
    ``n [t^n] -log(1 - f)`` are Moebius-inverted.  The series arithmetic is
    done here on lists of Fractions, independent of the library's kernel.
    """

    def times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        return [
            sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(cutoff + 1)
        ]

    def mobius(n: int) -> int:
        primes = [
            p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))
        ]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    f = [Fraction(0)] * (cutoff + 1)
    for weight, count in letter_counts.items():
        if weight <= cutoff:
            f[weight] += count
    log_series = [Fraction(0)] * (cutoff + 1)
    power = [Fraction(1)] + [Fraction(0)] * cutoff
    for m in range(1, cutoff + 1):
        power = times(power, f)
        log_series = [x + y / m for x, y in zip(log_series, power)]
    counts = []
    for n in range(1, cutoff + 1):
        acc = sum(
            mobius(e) * (n // e) * log_series[n // e]
            for e in range(1, n + 1)
            if n % e == 0
        )
        value = acc / n
        assert value.denominator == 1 and value >= 0
        counts.append(int(value))
    return counts


def lie_ring_weight_counts_by_recurrence(
    letter_counts: dict[int, int], cutoff: int
) -> list[int]:
    """Hall-basis counts by weight from the power sums'
    integer recurrence ``p_n = n f_n + sum_k f_k p_{n-k}``.

    ``f`` is the alphabet's generating polynomial, walked letter weight by
    letter weight in O(cutoff * letters) steps (the library's method before
    it expanded a closed-form letter series); the power sums
    ``p_n = n [t^n] -log(1 - f)`` are Moebius-inverted by trial division.
    """
    f = {w: c for w, c in letter_counts.items() if c and w <= cutoff}
    power_sums = [0] * (cutoff + 1)
    for n in range(1, cutoff + 1):
        power_sums[n] = n * f.get(n, 0) + sum(
            c * power_sums[n - k] for k, c in f.items() if k < n
        )

    def mobius(n: int) -> int:
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    counts = []
    for n in range(1, cutoff + 1):
        total = sum(mobius(e) * power_sums[n // e] for e in range(1, n + 1) if n % e == 0)
        assert total % n == 0 and total >= 0
        counts.append(total // n)
    return counts


def bouquet_spheres(d: int, cutoff: int) -> dict[int, int]:
    """Sphere multiset of the rank-d bouquet ``J v (J ^ Loop(S^2 x S^3))``
    in the closed form ``{n: (d-2)(n-1)}``, for ``2 <= n <= cutoff``."""
    return {n: (d - 2) * (n - 1) for n in range(2, cutoff + 1)} if d > 2 else {}


# ---------------------------------------------------------------------------
# Truncated series arithmetic on plain lists of Fractions
# ---------------------------------------------------------------------------


def series_sum_by_fractions(a, b, sign: int = 1) -> list[Fraction]:
    """``a + sign * b`` through the shorter of the two coefficient lists."""
    return [Fraction(x) + sign * Fraction(y) for x, y in zip(a, b)]


def series_product_by_fractions(a, b) -> list[Fraction]:
    """The Cauchy product through the shorter of the two coefficient lists."""
    n = min(len(a), len(b))
    return [sum(Fraction(a[i]) * b[k - i] for i in range(k + 1)) for k in range(n)]


# ---------------------------------------------------------------------------
# PBW by multiplying out the enveloping-algebra factors
# ---------------------------------------------------------------------------


def _binomial_factor(
    degree: int, exponent: int, sign: int, cutoff: int
) -> TruncatedSeries:
    """``(1 + sign * t^degree) ** exponent`` for any integer exponent."""
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    j = 1
    while j * degree <= cutoff:
        if exponent >= 0:
            c = comb(exponent, j)
            if c == 0:
                break
        else:
            c = (-1) ** j * comb(-exponent + j - 1, j)
        coeffs[j * degree] = c * sign**j
        j += 1
    return TruncatedSeries(tuple(coeffs))


def _pbw_factor(degree: int, dimension: int, cutoff: int) -> TruncatedSeries:
    """``(1+t^n)^dim`` for odd ``n``, ``(1-t^n)^{-dim}`` for even ``n``."""
    if degree % 2 == 1:
        return _binomial_factor(degree, dimension, +1, cutoff)
    return _binomial_factor(degree, -dimension, -1, cutoff)


def pbw_expand_by_factors(
    dims: GradedLieDims, cutoff: int | None = None
) -> TruncatedSeries:
    """The enveloping-algebra series as a product of one factor per degree."""
    n = dims.cutoff if cutoff is None else cutoff
    result = TruncatedSeries.one(n)
    for degree in range(1, min(n, dims.cutoff) + 1):
        dim = dims.dim(degree)
        if dim:
            result = result * _pbw_factor(degree, dim, n)
    return result


def pbw_invert_by_factors(series: TruncatedSeries) -> GradedLieDims:
    """Lie dimensions read degree by degree, dividing out each factor found,
    with the library's exceptions and messages."""
    if series.coeffs[0] != 1:
        raise InputError("PBW inversion needs constant term 1")
    cutoff = series.cutoff
    remainder = series
    dims: list[int] = []
    for degree in range(1, cutoff + 1):
        value = remainder[degree]
        if value.denominator != 1:
            raise ValueError(
                f"non-integer dimension {value} at degree {degree}: not a PBW series"
            )
        dim = int(value)
        if dim < 0:
            raise NegativeLieDimension(
                f"degree {degree} solves to {dim}; the input is inconsistent "
                "(not the series of a graded Lie algebra)"
            )
        dims.append(dim)
        if dim:
            remainder = remainder * _pbw_factor(degree, -dim, cutoff)
    return GradedLieDims(tuple(dims))


def pbw_invert_by_newton(series: TruncatedSeries) -> GradedLieDims:
    """PBW inversion by Newton's identity run backwards, in O(cutoff^2):
    ``c_m = m h_m - sum_{k<m} h_k c_{m-k}`` is ``m [t^m] log h``, and
    ``dim_m`` is what the lower degrees leave of ``c_m``, divided by ``m``.
    The library's exceptions and messages."""
    h = series.coeffs
    if h[0] != 1:
        raise InputError("PBW inversion needs constant term 1")
    c = [0] * len(h)
    lower = [0] * len(h)  # what the dimensions solved so far put into c
    dims: list[int] = []
    for degree in range(1, len(h)):
        c[degree] = degree * h[degree] - sum(
            map(mul, h[1:degree], c[degree - 1 : 0 : -1])
        )
        left = c[degree] - lower[degree]
        dim, rem = divmod(left, degree)
        if rem:
            value = Fraction(left, degree)
            raise ValueError(
                f"non-integer dimension {value} at degree {degree}: not a PBW series"
            )
        if dim < 0:
            raise NegativeLieDimension(
                f"degree {degree} solves to {dim}; the input is inconsistent "
                "(not the series of a graded Lie algebra)"
            )
        dims.append(dim)
        # log(1+t^n) (odd n) and -log(1-t^n) (even n) put n at every
        # multiple n j, negated at even j for odd n
        for j, m in enumerate(range(degree, len(h), degree), 1):
            lower[m] += -degree * dim if degree % 2 and j % 2 == 0 else degree * dim
    return GradedLieDims(tuple(dims))


# ---------------------------------------------------------------------------
# Dense Fraction elimination and the quadratic dual computed with it
# ---------------------------------------------------------------------------


def sparse(rows):
    """Dense rows as the sparse rows (column -> nonzero entry) of ``linalg``."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def rref_by_fractions(rows):
    """Textbook reduced row echelon form over Q; returns (rref, pivots)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace_by_fractions(rows, ncols):
    """Right kernel basis in canonical RREF form (1 at each free column)."""
    reduced, pivots = rref_by_fractions(rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(v)
    return basis


def quadratic_relations_by_fractions(ring):
    """``R = ker(Sym^2 V -> H^4)`` of a ring, ``V = H^2``, read off its
    products: dense Fraction vectors over the monomials (i, j), i <= j, in
    lexicographic order."""
    deg2 = ring.basis_of_degree(2)
    sym2 = list(combinations_with_replacement(range(len(deg2)), 2))
    products = [ring.product(deg2[i], deg2[j]) for i, j in sym2]
    matrix = [[uv.get(h, 0) for uv in products] for h in ring.basis_of_degree(4)]
    return nullspace_by_fractions(matrix, len(sym2))


def quadratic_algebra_dims(p, cutoff):
    """Degree-wise dimensions of ``Sym(V)/(R)`` for a presentation ``p``:
    the weight-w ideal component ``R * Sym^{w-2} V`` spanned monomial by
    monomial and ranked over Q.  Exponential in the cutoff for many
    generators."""
    g = p.generators
    sym2 = [(i, j) for i in range(g) for j in range(i, g)]
    relations = quadratic_relations_by_fractions(p.ring)
    dims = [1, g]
    for w in range(2, cutoff + 1):
        monos = list(combinations_with_replacement(range(g), w))
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel in relations:
            for lower in combinations_with_replacement(range(g), w - 2):
                # distinct pairs times one lower monomial are distinct monomials
                row = [0] * len(monos)
                for k, c in enumerate(rel):
                    if c:
                        row[index[tuple(sorted(lower + sym2[k]))]] = c
                rows.append(row)
        dims.append(len(monos) - len(rref_by_fractions(rows)[1]))
    return dims[: cutoff + 1]


def dual_relation_space_by_fractions(p):
    """R_perp inside V (x) V: the kernel of the commutators and the lifted
    relations, solved over all g^2 coordinates.  Modulo the commutators the
    monomial ``e_i e_j`` lifts to ``e_i (x) e_j``, so its coefficient goes
    to one coordinate, not two."""
    g = p.generators
    sym2 = [(i, j) for i in range(g) for j in range(i, g)]
    rows = []
    for i in range(g):
        for j in range(i + 1, g):
            row = [Fraction(0)] * (g * g)
            row[i * g + j] = Fraction(1)
            row[j * g + i] = Fraction(-1)
            rows.append(row)
    for rel in quadratic_relations_by_fractions(p.ring):
        row = [Fraction(0)] * (g * g)
        for (i, j), coeff in zip(sym2, rel):
            row[i * g + j] += coeff
        rows.append(row)
    return nullspace_by_fractions(rows, g * g)


def quadratic_dual_dims_by_fractions(p, max_weight, map_columns=60):
    """Weight-by-weight dimensions of T(V*)/(R_perp) with Fraction quotient
    maps, under the same width rule as the library: the first weight wider
    than ``map_columns`` is the last one computed."""
    g = p.generators
    dual_relations = dual_relation_space_by_fractions(p)
    dims = [1, g]
    # the library's entry rule: start only where weight 3 is reachable
    if max_weight < 3 or g * g > map_columns:
        return dims[: max_weight + 1]
    prev_dim, cur_dim = 1, g
    mult = [[[Fraction(int(r == i)) for r in range(g)]] for i in range(g)]
    for _ in range(2, max_weight + 1):
        ncols = cur_dim * g
        rows = []
        for b in range(prev_dim):
            for s in dual_relations:
                row = [Fraction(0)] * ncols
                for i in range(g):
                    for j in range(g):
                        c = s[i * g + j]
                        if c:
                            for u, x in enumerate(mult[i][b]):
                                row[u * g + j] += c * x
                rows.append(row)
        reduced, pivots = rref_by_fractions(rows) if rows else ([], [])
        free_cols = [c for c in range(ncols) if c not in pivots]

        def reduce_unit(col):
            if col in free_cols:
                return [Fraction(int(c == col)) for c in free_cols]
            row = reduced[pivots.index(col)]
            return [-row[c] for c in free_cols]

        mult = [[reduce_unit(u * g + j) for u in range(cur_dim)] for j in range(g)]
        prev_dim, cur_dim = cur_dim, len(free_cols)
        dims.append(cur_dim)
        if ncols > map_columns:
            break
    return dims


# ---------------------------------------------------------------------------
# Sullivan models: a reference model, and monomials by a recursive walk
# ---------------------------------------------------------------------------


def s2_model():
    """Minimal model of the 2-sphere: ``Lambda(a2, b3)`` with ``db = a^2``."""
    return make_sullivan_model([("a", 2), ("b", 3)], {"b": {(2, 0): 1}})


def monomial_basis_by_recursion(model, degree: int) -> list[tuple[int, ...]]:
    """All normal-form monomials of one degree: one recursion level per
    generator, exponents ascending, so exponent tuples come out in
    lexicographic order."""
    degrees = model.degrees
    n = len(degrees)
    out: list[tuple[int, ...]] = []

    def extend(i: int, remaining: int, current: list[int]) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(current))
            return
        max_e = 1 if degrees[i] % 2 == 1 else remaining // degrees[i]
        for e in range(min(max_e, remaining // degrees[i]) + 1):
            current.append(e)
            extend(i + 1, remaining - e * degrees[i], current)
            current.pop()

    extend(0, degree, [])
    return out


def d_monomial_by_words(model, mono: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """d of a monomial, one letter at a time: the monomial is written as a
    word of generator indices, d replaces one letter by each term of its
    differential with the sign ``(-1)^(degree before it)``, and each word is
    bubble-sorted back to normal form, one sign flip per swap of two odd
    letters, and dropped if an odd letter repeats."""
    degrees = model.degrees
    word = [i for i, e in enumerate(mono) for _ in range(e)]
    out: dict[tuple[int, ...], Fraction] = {}
    for k, letter in enumerate(word):
        before = sum(degrees[i] for i in word[:k])
        for target, coeff in model.d_of(model.names[letter]).items():
            image = [i for i, e in enumerate(target) for _ in range(e)]
            new = word[:k] + image + word[k + 1 :]
            sign = (-1) ** before
            for end in range(len(new) - 1, 0, -1):
                for j in range(end):
                    if new[j] > new[j + 1]:
                        new[j], new[j + 1] = new[j + 1], new[j]
                        if degrees[new[j]] % 2 and degrees[new[j + 1]] % 2:
                            sign = -sign
            if any(degrees[i] % 2 and new.count(i) > 1 for i in new):
                continue
            result = tuple(new.count(i) for i in range(len(degrees)))
            out[result] = out.get(result, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}
