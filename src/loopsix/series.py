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
  polynomial factors ``1/(1-t^n)``).  The factors add up in ``c_m = m
  [t^m] log h``: :func:`pbw_expand` gets ``h`` by Newton's identity ``m h_m
  = sum_{k=1..m} c_k h_{m-k}``, and every count inversion reads ``c`` off
  ``num / den`` by :func:`_log_derivative` and solves it by :func:`_sieve_dims`.
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
    per nonzero term of ``den`` and degree (one sum over two slices if ``den``
    has no zero to the cutoff).  Integral input gives integral output."""
    out = list(num[: cutoff + 1]) + [0] * (cutoff + 1 - len(num))
    tail = den[1 : cutoff + 1]
    if len(tail) == cutoff and all(tail):
        for n in range(1, cutoff + 1):
            out[n] -= sum(map(mul, tail, out[n - 1 :: -1]))
        return out
    terms = [(k, c) for k, c in enumerate(tail, 1) if c]
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
# Count inversion: one log-derivative kernel, one sieve; Witt counts
# ---------------------------------------------------------------------------


def _log_derivative(num: Sequence, den: Sequence, cutoff: int) -> list[Rational]:
    """``c[m] = m [t^m] log(num / den)``, ``m <= cutoff``, for polynomials with
    constant term 1: one :func:`_expand` of ``t (num' den - num den') / (num
    den)``, with no polynomial product when ``num`` or ``den`` is 1."""
    t_num = [k * c for k, c in enumerate(num)]  # t num'
    if len(den) == 1:
        return _expand(t_num, num, cutoff)
    t_den = [-k * c for k, c in enumerate(den)]  # -t den'
    if len(num) == 1:
        return _expand(t_den, den, cutoff)
    top = _add(_mul(t_num, den, cutoff), _mul(num, t_den, cutoff))
    return _expand(top, _mul(num, den, cutoff), cutoff)


def _add_log_factor(c: list, degree: int, dim: int, graded: bool = True) -> None:
    """Add ``dim`` classes of ``degree`` to ``c[m] = m [t^m] log h``:
    ``-log(1-t^n)`` puts ``n`` at every multiple ``n j``, and with ``graded``
    an odd ``n`` is an exterior factor ``log(1+t^n)``, negated at even ``j``."""
    step = degree * dim
    for m in range(degree, len(c), degree):
        c[m] += step
    if graded and degree % 2:
        for m in range(2 * degree, len(c), 2 * degree):
            c[m] -= 2 * step


def _sieve_dims(c: list, graded: bool) -> list[int]:
    """Dimensions ``dim_1..`` of the enveloping algebra with ``c[m] = m [t^m]
    log h`` (consumed): ``dim_n`` is what :func:`_add_log_factor` of the lower
    degrees leaves of ``c[n]``, divided by ``n``, which must be exact and >= 0."""
    dims = []
    for n in range(1, len(c)):
        dim, rem = divmod(c[n], n)
        if rem:
            raise ValueError(
                f"non-integer dimension {Fraction(c[n], n)} at degree {n}: "
                "not a PBW series"
            )
        if dim < 0:
            raise NegativeLieDimension(
                f"degree {n} solves to {dim}; the input is inconsistent "
                "(not the series of a graded Lie algebra)"
            )
        dims.append(dim)
        _add_log_factor(c, n, -dim, graded)
    return dims


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
    the alphabet, computed without enumerating words."""
    return _free_lie_dims(letter_counts, "letter", "weight", cutoff, False)


def _free_lie_dims(items, noun: str, grading: str, cutoff: int, graded: bool) -> list[int]:
    """Dimensions by degree ``1..cutoff`` of the free (``graded``) Lie algebra
    on generators of the degrees ``items``, read by :func:`_multiset`: the
    sieve on its enveloping algebra, the tensor algebra ``1 / (1 - f)``."""
    _require_int(cutoff, "cutoff", minimum=0)
    den = [1] + [0] * cutoff  # 1 - f
    for degree, count in _multiset(items, noun, grading, 1).items():
        if degree <= cutoff:
            den[degree] -= count
    return _sieve_dims(_log_derivative((1,), den, cutoff), graded)


def _witt_counts(num: Sequence[int], den: Sequence[int], cutoff: int) -> list[int]:
    """Hall-basis counts by weight ``1..cutoff`` for the letter series ``f =
    num / den`` of integer polynomials, ``den[0] == 1``: the ungraded sieve on
    the tensor algebra ``1 / (1 - f) = den / (den - num)``, whose PBW factors
    are all polynomial, in O(cutoff) per nonzero term of ``den (den - num)``."""
    return _sieve_dims(_log_derivative(den, _add(den, num, -1), cutoff), False)


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

    ``c_m = m [t^m] log h`` is the expansion of ``t h' / h``, and the graded
    sieve solves ``dim_m`` from ``c_m`` less what the lower degrees put
    there, divided by ``m``; the solution is unique.  Raises
    :class:`NegativeLieDimension` if a solved dimension is negative (the
    series is not a PBW series) and ``ValueError`` if one is non-integral.
    """
    h = series.coeffs
    if h[0] != 1:
        raise InputError("PBW inversion needs constant term 1")
    return GradedLieDims(tuple(_sieve_dims(_log_derivative(h, (1,), len(h) - 1), True)))
