"""Exact truncated power series and graded Lie dimension bookkeeping.

Everything here is exact: constructors store a coefficient as an ``int``
when it is integral and as a `fractions.Fraction` otherwise, so integral
input stays on Python integers throughout.  Equality of series means
coefficient-wise equality, which ``Fraction(n) == n`` makes type-blind.
Arithmetic truncates to the smaller cutoff of the operands, so mixing
series of different precision silently keeps only the degrees both sides
know about.  Every rational function ``num / den`` in the package -- a
reciprocal, a loop-homology series, a Koszul dual series, a tensor-algebra
series, the log-derivative of a letter series -- is expanded by the one
private :func:`_expand`, in time that follows the nonzero terms of ``den``.

The combinatorial entry points are

* :func:`lie_ring_weight_counts` -- Witt counts of the Hall basis of a
  free Lie ring by weight, for a weighted alphabet; the Hilton-Milnor
  expansion reads them off a closed-form letter series in O(cutoff),
* :func:`pbw_expand` / :func:`pbw_invert` -- the Poincare-Birkhoff-Witt
  dictionary between graded Lie algebra dimensions and the Hilbert series
  of the universal enveloping algebra, with the usual parity convention
  (odd degrees contribute exterior factors ``(1+t^n)``, even degrees
  polynomial factors ``1/(1-t^n)``).  Both directions read one identity on
  plain coefficient lists: the factors add up in ``c_m = m [t^m] log h``,
  and Newton's identity ``m h_m = sum_{k=1..m} c_k h_{m-k}`` links ``c``
  to ``h``, so no factor series is ever built or multiplied.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from ._record import Record
from .errors import InputError, _require_int

Rational = Union[int, Fraction]


class ZeroConstantTerm(InputError):
    """Reciprocal of a series whose constant term vanishes."""


class NegativeLieDimension(InputError):
    """PBW inversion produced a negative dimension; the input series is not
    the enveloping-algebra series of any graded Lie algebra."""


def _exact(x: Rational) -> Rational:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``; a
    bool, a float or anything else raises ``ValueError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise ValueError(f"expected an int or Fraction, got {type(x).__name__}")


class TruncatedSeries(Record):
    """A formal power series known exactly through degree ``cutoff``.

    ``coeffs[n]`` is the degree-n coefficient; ``len(coeffs) == cutoff + 1``.
    Each is an ``int`` or a ``Fraction``, as :func:`_exact` requires.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[Rational, ...]

    def __init__(self, coeffs) -> None:
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        for c in coeffs:
            if type(c) is not int and not isinstance(c, Fraction):
                raise ValueError(f"expected an int or Fraction, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coefficients(
        cls, values: Iterable[Rational], cutoff: int | None = None
    ) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to ``cutoff``."""
        _require_int(cutoff, "cutoff", optional=True, minimum=0)
        coeffs = [_exact(v) for v in values]
        if cutoff is not None:  # truncate or pad: a negative repeat gives []
            coeffs = coeffs[: cutoff + 1] + [0] * (cutoff + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, cutoff: int) -> "TruncatedSeries":
        return cls.from_coefficients([1], cutoff=cutoff)

    # -- basic queries ---------------------------------------------------

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, degree: int) -> Rational:
        if not 0 <= degree <= self.cutoff:
            raise IndexError(f"degree {degree} outside cutoff {self.cutoff}")
        return self.coeffs[degree]

    def integer_coefficients(self) -> tuple[int, ...]:
        """Coefficients as plain ints; raises if any is non-integral."""
        out = []
        for n, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ValueError(f"coefficient of degree {n} is not an integer: {c}")
            out.append(int(c))
        return tuple(out)

    # -- arithmetic (always truncates to the smaller cutoff) --------------
    # Tuples here and on the other hot paths are built from lists: CPython
    # builds tuple(<generator>) in a borrowed size-10 tuple and shrinks it, so
    # freed results pile up on the small-tuple free lists until a full gc.

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(_add(self.coeffs[:n], other.coeffs[:n]))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(_add(self.coeffs[:n], other.coeffs[:n], -1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries(_mul(self.coeffs, other.coeffs, n))

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated at ``min(a.cutoff, b.cutoff)``."""
    return a * b


_Poly = tuple[Rational, ...]  # coefficients, constant term first


def _add(a: _Poly, b: _Poly, scale: int = 1) -> _Poly:
    """``a + scale * b``; at ``scale == 1`` no term is multiplied."""
    out = list(a) + [0] * (len(b) - len(a))
    if scale == 1:
        for k, y in enumerate(b):
            out[k] += y
    else:
        for k, y in enumerate(b):
            out[k] += scale * y
    return tuple(out)


def _mul(a: _Poly, b: _Poly, cutoff: int) -> _Poly:
    """``a * b`` through degree ``cutoff``."""
    out = [0] * min(len(a) + len(b) - 1, cutoff + 1)
    for i, x in enumerate(a[: cutoff + 1]):
        if x:
            for j, y in enumerate(b[: cutoff + 1 - i]):
                out[i + j] += x * y
    return tuple(out)


def _expand(num: Sequence, den: Sequence, cutoff: int) -> list[Rational]:
    """The power series ``num / den`` through degree ``cutoff``, for
    ``den[0] == 1``: ``num = den * out`` solved degree by degree, one product
    per nonzero term of ``den`` and degree, so zeros -- padding to the cutoff
    or inside ``den`` -- cost nothing.  Integral input gives integral output."""
    out = list(num[: cutoff + 1]) + [0] * (cutoff + 1 - len(num))
    terms = [(k, c) for k, c in enumerate(den[1 : cutoff + 1], 1) if c]
    for n in range(1, cutoff + 1):
        x = out[n]
        for k, c in terms:
            if k > n:
                break
            x -= mul(c, out[n - k])
        out[n] = x
    return out


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """The multiplicative inverse of ``a`` through its cutoff.

    Requires an invertible constant term; ``series_mul(a, series_reciprocal(a))``
    is exactly 1 through the cutoff.
    """
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("series has zero constant term, no reciprocal")
    # a unit is its own inverse, which keeps integral input on ints
    inv0 = a0 if a0 in (1, -1) else Fraction(1) / a0
    out = _expand((inv0,), [inv0 * c for c in a.coeffs], a.cutoff)
    return TruncatedSeries(tuple([_exact(c) for c in out]))


# ---------------------------------------------------------------------------
# Witt counts
# ---------------------------------------------------------------------------


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """Factorization ``n = prod p_i^{r_i}`` as ``(p_i, p_i^{r_i})`` pairs,
    by increasing prime; empty for ``n <= 1``."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def _mobius_sieve(n: int) -> list[int]:
    """``mu(k)`` at index ``k`` for ``1 <= k <= n``, solved from
    ``sum_{d | k} mu(d) = [k = 1]`` in increasing ``k``."""
    mu = [0, 1] + [0] * (n - 1)
    for k in range(1, n + 1):
        if mu[k]:
            for m in range(2 * k, n + 1, k):
                mu[m] -= mu[k]
    return mu


def _multiset(
    items: Mapping[int, int] | Iterable[int], noun: str, grading: str, floor: int
) -> dict[int, int]:
    """``items`` -- a mapping item -> count, or a list of items -- as a dict
    item -> total count.  Each pair is checked before it is counted, zero
    counts included, so that a ``True`` never passes as a 1."""
    out: dict[int, int] = {}
    pairs = items.items() if isinstance(items, Mapping) else ((x, 1) for x in items)
    for item, count in pairs:
        _require_int(item, f"{noun} {grading}")
        _require_int(count, f"{noun} count")
        if item < floor:
            raise InputError(f"{noun} {grading}s must be >= {floor}")
        if count < 0:
            raise InputError(f"{noun} counts must be nonnegative")
        out[item] = out.get(item, 0) + count
    return out


def lie_ring_weight_counts(
    letter_counts: Mapping[int, int] | Iterable[int], cutoff: int
) -> list[int]:
    """Total Hall-basis counts by weight for a weighted alphabet.

    ``letter_counts[w]`` letters of weight ``w >= 1`` (or a list of weights,
    one per letter; exact ``int``s, counts >= 0) generate a free Lie ring;
    entry ``n-1`` of the result is the number of basic products of total
    weight ``n``, which is the number of Lyndon words of weight ``n`` over
    the alphabet.  Computed, without enumerating words, by
    :func:`_witt_counts` on the alphabet's generating polynomial ``f`` (the
    letter series ``f / 1``), in O(cutoff * distinct letter weights) steps.
    """
    _require_int(cutoff, "cutoff", minimum=0)
    f = [0] * (cutoff + 1)
    for weight, count in _multiset(letter_counts, "letter", "weight", 1).items():
        if weight <= cutoff:
            f[weight] = count
    return _witt_counts(f, (1,), cutoff)


def _witt_counts(num: Sequence[int], den: Sequence[int], cutoff: int) -> list[int]:
    """Hall-basis counts by weight ``1..cutoff`` for the letter series
    ``f = num / den`` of integer polynomials, ``den[0] == 1``: the power
    sums ``p_n = n [t^n] -log(1 - f)`` are the expansion of ``t (den num' -
    num den') / (den (den - num))``, O(cutoff) steps per nonzero term of its
    denominator, and ``sum_{d | n} mu(d) p_{n/d}`` is n times the count of n.
    """
    d_num, d_den = ([k * c for k, c in enumerate(p)][1:] for p in (num, den))
    top = _add(_mul(den, d_num, cutoff), _mul(num, d_den, cutoff), -1)
    power_sums = _expand((0, *top), _mul(den, _add(den, num, -1), cutoff), cutoff)
    sums = [0] * (cutoff + 1)  # sums[n] = sum_{d | n} mu(d) p_{n/d}
    for d, mu in enumerate(_mobius_sieve(cutoff)):
        if mu:
            for n in range(d, cutoff + 1, d):
                sums[n] += mu * power_sums[n // d]
    counts = []
    for n in range(1, cutoff + 1):
        value, rem = divmod(sums[n], n)
        if rem or value < 0:
            raise AssertionError(f"Witt inversion gave {sums[n]}/{n} at weight {n}")
        counts.append(value)
    return counts


# ---------------------------------------------------------------------------
# PBW dictionary
# ---------------------------------------------------------------------------


class GradedLieDims(Record):
    """Degree-wise dimensions of a graded Lie algebra.

    ``dims[i]`` is the dimension in degree ``i + 1`` (degrees are loop-space
    homological degrees, starting at 1).  All entries are nonnegative
    ``int``s.
    """

    __slots__ = ("dims",)
    dims: tuple[int, ...]

    def __init__(self, dims) -> None:
        for d in dims:
            if type(d) is not int:
                raise InputError("Lie dimensions must be integers")
            if d < 0:
                raise NegativeLieDimension(f"negative dimension in {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_dims(cls, dims: Iterable[int], cutoff: int | None = None) -> "GradedLieDims":
        _require_int(cutoff, "cutoff", optional=True, minimum=0)
        values = list(dims)
        if cutoff is not None:  # truncate or pad: a negative repeat gives []
            values = values[:cutoff] + [0] * (cutoff - len(values))
        return cls(tuple(values))

    @property
    def cutoff(self) -> int:
        return len(self.dims)

    def dim(self, degree: int) -> int:
        """Dimension in a given degree; zero beyond the cutoff."""
        if degree < 1:
            raise InputError("degrees start at 1")
        if degree > len(self.dims):
            return 0
        return self.dims[degree - 1]

    def truncate(self, cutoff: int) -> "GradedLieDims":
        return GradedLieDims.from_dims(self.dims, cutoff=cutoff)

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.dims) + ")"


def _add_log_factor(c: list, degree: int, dim: int) -> None:
    """Add ``dim`` classes of ``degree`` to ``c[m] = m [t^m] log h``.

    ``log(1+t^n)`` (odd ``n``) and ``-log(1-t^n)`` (even ``n``) put ``n`` at
    every multiple ``n j`` of the degree, negated at even ``j`` for odd ``n``.
    """
    for j, m in enumerate(range(degree, len(c), degree), 1):
        c[m] += -degree * dim if degree % 2 and j % 2 == 0 else degree * dim


def pbw_expand(dims: GradedLieDims, cutoff: int | None = None) -> TruncatedSeries:
    """Hilbert series of the universal enveloping algebra of a graded Lie
    algebra with the given degree-wise dimensions.

    Degrees beyond ``dims.cutoff`` are taken to be zero; pass an explicit
    ``cutoff`` to expand further than the dimension vector reaches.  With
    ``c_m = m [t^m] log h``, Newton's identity ``m h_m = sum_{k=1..m} c_k
    h_{m-k}`` gives ``h`` degree by degree, on integers throughout.
    """
    _require_int(cutoff, "cutoff", optional=True, minimum=0)
    n = dims.cutoff if cutoff is None else cutoff
    c = [0] * (n + 1)
    for degree, dim in enumerate(dims.dims[:n], 1):
        _add_log_factor(c, degree, dim)
    h = [1]
    for m in range(1, n + 1):
        h.append(sum(map(mul, c[1 : m + 1], h[::-1])) // m)
    return TruncatedSeries.from_coefficients(h, cutoff=n)


def pbw_invert(series: TruncatedSeries) -> GradedLieDims:
    """Recover graded Lie dimensions from an enveloping-algebra series.

    Runs :func:`pbw_expand`'s identity backwards: ``c_m = m h_m - sum_{k<m}
    h_k c_{m-k}``, and ``dim_m`` is what the lower degrees leave of ``c_m``,
    divided by ``m``; the solution is unique.  Raises
    :class:`NegativeLieDimension` if a solved dimension is negative (the
    series is not a PBW series) and ``ValueError`` if one is non-integral.
    """
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
        _add_log_factor(lower, degree, dim)
    return GradedLieDims(tuple(dims))
