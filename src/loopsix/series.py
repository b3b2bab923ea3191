"""Exact truncated power series and graded Lie dimension bookkeeping.

Everything here is exact: constructors store a coefficient as an ``int``
when it is integral and as a `fractions.Fraction` otherwise, so integral
input stays on Python integers throughout.  Equality of series means
coefficient-wise equality, which ``Fraction(n) == n`` makes type-blind.
Arithmetic truncates to the smaller cutoff of the operands, so mixing
series of different precision silently keeps only the degrees both sides
know about.

The combinatorial entry points are

* :func:`necklace_count` -- Witt/Moebius count of Hall basis elements of a
  fixed multidegree in a free Lie ring,
* :func:`lie_ring_weight_counts` -- the same counts aggregated by weight
  for a weighted alphabet (the form the Hilton-Milnor expansion needs),
* :func:`pbw_expand` / :func:`pbw_invert` -- the Poincare-Birkhoff-Witt
  dictionary between graded Lie algebra dimensions and the Hilbert series
  of the universal enveloping algebra, with the usual parity convention
  (odd degrees contribute exterior factors ``(1+t^n)``, even degrees
  polynomial factors ``1/(1-t^n)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from .errors import InputError

#: Default truncation degree for series constructors.
DEFAULT_CUTOFF = 16

Rational = Union[int, Fraction]


class ZeroConstantTerm(InputError):
    """Reciprocal of a series whose constant term vanishes."""


class NegativeLieDimension(InputError):
    """PBW inversion produced a negative dimension; the input series is not
    the enveloping-algebra series of any graded Lie algebra."""


def _exact(x: Rational) -> Rational:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class TruncatedSeries:
    """A formal power series known exactly through degree ``cutoff``.

    ``coeffs[n]`` is the degree-n coefficient; ``len(coeffs) == cutoff + 1``.
    """

    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coefficients(
        cls, values: Iterable[Rational], cutoff: int | None = None
    ) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to ``cutoff``."""
        coeffs = [_exact(v) for v in values]
        if cutoff is not None:
            if cutoff < 0:
                raise ValueError("cutoff must be nonnegative")
            if len(coeffs) > cutoff + 1:
                coeffs = coeffs[: cutoff + 1]
            else:
                coeffs += [0] * (cutoff + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls, cutoff: int = DEFAULT_CUTOFF) -> "TruncatedSeries":
        return cls.from_coefficients([], cutoff=cutoff)

    @classmethod
    def one(cls, cutoff: int = DEFAULT_CUTOFF) -> "TruncatedSeries":
        return cls.from_coefficients([1], cutoff=cutoff)

    @classmethod
    def monomial(
        cls, degree: int, coeff: Rational = 1, cutoff: int = DEFAULT_CUTOFF
    ) -> "TruncatedSeries":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if degree > cutoff:
            return cls.zero(cutoff)
        values = [0] * (degree + 1)
        values[degree] = coeff
        return cls.from_coefficients(values, cutoff=cutoff)

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

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if cutoff >= self.cutoff:
            return self
        return TruncatedSeries(self.coeffs[: cutoff + 1])

    # -- arithmetic (always truncates to the smaller cutoff) --------------
    # Tuples here and on the other hot paths are built from lists: CPython
    # builds tuple(<generator>) in a borrowed size-10 tuple and shrinks it, so
    # freed results pile up on the small-tuple free lists until a full gc.

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries(
            tuple([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries(
            tuple([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple([-c for c in self.coeffs]))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cutoff, other.cutoff)
        a, b_reversed = self.coeffs, other.coeffs[n::-1]
        return TruncatedSeries(
            tuple([sum(map(mul, a[: k + 1], b_reversed[n - k :])) for k in range(n + 1)])
        )

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            return series_reciprocal(self) ** (-exponent)
        result = TruncatedSeries.one(self.cutoff)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def alternate(self) -> "TruncatedSeries":
        """The series evaluated at ``-t``."""
        return TruncatedSeries(
            tuple([c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs)])
        )

    def divide_by_t(self) -> "TruncatedSeries":
        """Shift down one degree; the constant term must vanish."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self.cutoff == 0:
            raise ValueError("cannot divide by t: no degrees left")
        return TruncatedSeries(self.coeffs[1:])

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated at ``min(a.cutoff, b.cutoff)``."""
    return a * b


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
    tail = a.coeffs[1:]
    out = [inv0]
    for n in range(1, a.cutoff + 1):
        out.append(-inv0 * sum(map(mul, tail[:n], reversed(out))))
    return TruncatedSeries(tuple([_exact(c) for c in out]))


# ---------------------------------------------------------------------------
# Witt / necklace combinatorics
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


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius needs a positive integer")
    factors = _prime_powers(n)
    if any(p != q for p, q in factors):
        return 0
    return (-1) ** len(factors)


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def necklace_count(multidegree: Sequence[int]) -> int:
    """Number of Hall basis elements of the given letter content in a free
    Lie ring.

    For content ``m = (m_1, ..., m_q)`` with total size ``W = sum(m)`` this is
    the Witt formula ``(1/W) * sum_{e | gcd(m)} mu(e) * (W/e)! / prod (m_i/e)!``,
    equivalently the number of Lyndon words with that content.

    >>> necklace_count([1, 1])
    1
    >>> necklace_count([2, 0])
    0
    """
    m = [int(x) for x in multidegree]
    if any(x < 0 for x in m):
        raise ValueError("multidegree entries must be nonnegative")
    total = sum(m)
    if total == 0:
        raise ValueError("multidegree must have a positive entry")
    g = 0
    for x in m:
        g = gcd(g, x)
    acc = 0
    for e in _divisors(g):
        acc += _mobius(e) * factorial(total // e) // prod(
            factorial(x // e) for x in m
        )
    count, rem = divmod(acc, total)
    if rem:
        raise AssertionError(f"Witt formula gave a non-integer for {m}")
    return count


def lie_ring_weight_counts(
    letter_counts: Mapping[int, int], cutoff: int
) -> list[int]:
    """Total Hall-basis counts by weight for a weighted alphabet.

    ``letter_counts[w]`` letters of weight ``w >= 1`` generate a free Lie
    ring; entry ``n-1`` of the result is the number of basic products of
    total weight ``n`` (the sum of :func:`necklace_count` over all
    multidegrees of that weight).  Computed, without enumerating
    multidegrees, by Moebius inversion of the power sums
    ``p_n = n [t^n] -log(1 - f)`` of the alphabet's generating polynomial
    ``f``, which obey the integer recurrence ``p_n = n f_n + sum f_k p_{n-k}``.
    """
    f: dict[int, int] = {}
    for weight, count in letter_counts.items():
        if weight < 1:
            raise ValueError("letter weights must be >= 1")
        if count < 0:
            raise ValueError("letter counts must be nonnegative")
        if count and weight <= cutoff:
            f[weight] = count
    power_sums = [0] * (cutoff + 1)
    for n in range(1, cutoff + 1):
        power_sums[n] = n * f.get(n, 0) + sum(
            fk * power_sums[n - k] for k, fk in f.items() if k < n
        )
    counts = []
    for n in range(1, cutoff + 1):
        acc = sum(_mobius(d) * power_sums[n // d] for d in _divisors(n))
        value, rem = divmod(acc, n)
        if rem or value < 0:
            raise AssertionError(f"Witt inversion gave {acc}/{n} at weight {n}")
        counts.append(value)
    return counts


# ---------------------------------------------------------------------------
# PBW dictionary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedLieDims:
    """Degree-wise dimensions of a graded Lie algebra.

    ``dims[i]`` is the dimension in degree ``i + 1`` (degrees are loop-space
    homological degrees, starting at 1).  All entries are nonnegative.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.dims):
            raise NegativeLieDimension(f"negative dimension in {self.dims}")

    @classmethod
    def from_dims(cls, dims: Iterable[int], cutoff: int | None = None) -> "GradedLieDims":
        values = [int(d) for d in dims]
        if cutoff is not None:
            if len(values) > cutoff:
                values = values[:cutoff]
            else:
                values += [0] * (cutoff - len(values))
        return cls(tuple(values))

    @property
    def cutoff(self) -> int:
        return len(self.dims)

    def dim(self, degree: int) -> int:
        """Dimension in a given degree; zero beyond the cutoff."""
        if degree < 1:
            raise ValueError("degrees start at 1")
        if degree > len(self.dims):
            return 0
        return self.dims[degree - 1]

    def truncate(self, cutoff: int) -> "GradedLieDims":
        return GradedLieDims.from_dims(self.dims, cutoff=cutoff)

    def total(self) -> int:
        return sum(self.dims)

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.dims) + ")"


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


def pbw_factor(degree: int, dimension: int, cutoff: int) -> TruncatedSeries:
    """The enveloping-algebra factor of ``dimension`` classes in one degree:
    ``(1+t^n)^dim`` for odd ``n``, ``(1-t^n)^{-dim}`` for even ``n``."""
    if degree % 2 == 1:
        return _binomial_factor(degree, dimension, +1, cutoff)
    return _binomial_factor(degree, -dimension, -1, cutoff)


def pbw_expand(dims: GradedLieDims, cutoff: int | None = None) -> TruncatedSeries:
    """Hilbert series of the universal enveloping algebra of a graded Lie
    algebra with the given degree-wise dimensions.

    Degrees beyond ``dims.cutoff`` are taken to be zero; pass an explicit
    ``cutoff`` to expand further than the dimension vector reaches.
    """
    n = dims.cutoff if cutoff is None else cutoff
    result = TruncatedSeries.one(n)
    for degree in range(1, min(n, dims.cutoff) + 1):
        dim = dims.dim(degree)
        if dim:
            result = result * pbw_factor(degree, dim, n)
    return result


def pbw_invert(series: TruncatedSeries) -> GradedLieDims:
    """Recover graded Lie dimensions from an enveloping-algebra series.

    Solves degree by degree, dividing out each determined factor; the
    solution is unique.  Raises :class:`NegativeLieDimension` if a solved
    dimension is negative (the series is not a PBW series) and
    ``ValueError`` if one is non-integral.
    """
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
        # divide out the factor just determined
        if dim:
            if degree % 2 == 1:
                remainder = remainder * _binomial_factor(degree, -dim, +1, cutoff)
            else:
                remainder = remainder * _binomial_factor(degree, dim, -1, cutoff)
    return GradedLieDims(tuple(dims))
