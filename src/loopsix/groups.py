"""Finitely generated abelian groups, sphere homotopy tables, and the
assembly of pi_k of the 6-manifold from its loop-space factors.

The loop space is a product, so homotopy groups add up factor by factor:

* ``S^1`` contributes Z to pi_2(M) and nothing else,
* ``Loop(S^m)`` contributes pi_k(S^m) to pi_k(M),
* ``S^3{n}`` contributes Z/n to pi_3(M) and 0 to pi_2(M); its higher
  contributions depend on the action of degree maps on torsion and are
  deliberately not computed.

Sphere groups come from a shipped data file covering n, k <= 15 (see
``data/sphere_table.txt``); out-of-range queries raise instead of guessing.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType

from ._record import Frozen, Record
from .errors import InputError, UnsupportedError, _require_int
from .homotopy import LoopFactorMultiset
from .series import _prime_powers


class ParseError(InputError):
    """Malformed sphere-table file."""


class CoverageViolation(InputError):
    """A table entry contradicts pi_k(S^n) = 0 (k < n) or pi_n(S^n) = Z."""


class TableOutOfRange(UnsupportedError):
    """Query outside the table's (or the factor enumeration's) coverage."""


class UnsupportedDegree(UnsupportedError):
    """pi_k through an S^3{n} factor with k >= 4."""


class FGAbelianGroup(Record):
    """A finitely generated abelian group in primary decomposition.

    ``counts`` holds ``((p, q), n)``: the group has ``n > 0`` cyclic
    summands Z/q for the prime power ``q = p^r``, sorted by (prime, order),
    so the representation is canonical and equality is structural.  Sums
    add counts, so ``n`` copies of a group cost no more than one; the
    ``torsion`` tuple and the invariant factors are expanded on request.

    >>> FGAbelianGroup.from_orders(12, 2) == FGAbelianGroup.from_orders(4, 3, 2)
    True
    """

    __slots__ = ("free_rank", "counts")
    free_rank: int
    counts: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, free_rank, counts=()) -> None:
        if type(free_rank) is not int or free_rank < 0:
            raise InputError(f"free rank must be a non-negative int, got {free_rank!r}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_orders(cls, *orders: int, free_rank: int = 0) -> "FGAbelianGroup":
        if type(free_rank) is not int:
            raise InputError("group orders and free rank must be integers")
        counts: dict[tuple[int, int], int] = {}
        for n in orders:
            if type(n) is not int:
                raise InputError("group orders and free rank must be integers")
            n = abs(n)
            if n == 0:
                free_rank += 1
            for key in _prime_powers(n):
                counts[key] = counts.get(key, 0) + 1
        return cls(free_rank, tuple(sorted(counts.items())))

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.counts

    @property
    def torsion(self) -> tuple[int, ...]:
        """Prime-power orders of the cyclic summands, by (prime, order)."""
        return tuple(chain.from_iterable(repeat(q, n) for (_, q), n in self.counts))

    def summands(self) -> int:
        """Number of cyclic torsion summands, each of prime-power order."""
        return sum(n for _, n in self.counts)

    def _runs(self) -> list[tuple[int, int]]:
        """The invariant factors as ``[(order, length), ...]``, largest first.

        Each prime's powers, largest first, fill positions 0, 1, ... of the
        factor list, one run per power; merging the runs of all primes
        gives one run of equal orders wherever no prime's power changes.

        >>> FGAbelianGroup.from_orders(4, 4, 2, 3, 3)._runs()
        [(12, 2), (2, 1)]
        """
        # per prime: (where its run of a power ends, power), last run first
        runs: dict[int, list[tuple[int, int]]] = {}
        for (p, q), n in reversed(self.counts):
            prime_runs = runs.setdefault(p, [])
            prime_runs.insert(0, (n + (prime_runs[0][0] if prime_runs else 0), q))
        merged: list[tuple[int, int]] = []
        start = 0
        for end in sorted({end for prime_runs in runs.values() for end, _ in prime_runs}):
            order = 1
            for prime_runs in runs.values():
                if prime_runs:
                    run_end, q = prime_runs[-1]
                    order *= q
                    if run_end == end:
                        prime_runs.pop()
            merged.append((order, end - start))
            start = end
        return merged

    def invariant_factors(self) -> list[int]:
        """Cyclic orders n_1 >= n_2 >= ... with n_{i+1} | n_i; each run of
        equal orders is expanded by one ``repeat``, not summand by summand."""
        return list(chain.from_iterable(repeat(q, n) for q, n in self._runs()))

    def text(self) -> str:
        """Render as ``Z^a + Z/n1 + Z/n2 ...`` with invariant factors.

        Each run of equal orders is one string repetition, not one string
        per summand.

        >>> FGAbelianGroup.from_orders(4, 3, 2).text()
        'Z/12 + Z/2'
        >>> FGAbelianGroup.from_orders(4, 4, 2, free_rank=2).text()
        'Z^2 + Z/4 + Z/4 + Z/2'
        """
        rank = self.free_rank
        parts = [f"Z^{rank}"] if rank > 1 else ["Z"] * rank
        for order, n in self._runs():
            z = f"Z/{order}"
            parts.append(f"{z} + " * (n - 1) + z)
        return " + ".join(parts) or "0"


#: pi_k(S^n) below and on the diagonal; records are frozen, so shared
_ZERO = FGAbelianGroup(0)
_Z = FGAbelianGroup(1)


class SphereTable(Frozen):
    """Lookup table for pi_k(S^n) with explicit coverage bounds.

    ``entries`` is a read-only mapping: the shipped table is shared by every
    caller in the process.
    """

    __slots__ = ("entries", "max_n", "max_k", "source")
    entries: Mapping[tuple[int, int], FGAbelianGroup]
    max_n: int
    max_k: int
    source: str

    def __init__(self, entries, max_n, max_k, source) -> None:
        self._assign(entries, max_n, max_k, source)


def default_table_path() -> Path:
    # beside this module: importlib.resources adds start-up (and inspect, on 3.13)
    return Path(__file__).parent / "data" / "sphere_table.txt"


def load_table(path: str | Path | None = None) -> SphereTable:
    """Load a sphere table file (``n k free_rank [orders...]`` lines).

    Raises :class:`ParseError` with the offending line number on malformed
    input and :class:`CoverageViolation` when a stored entry contradicts
    pi_k(S^n) = 0 for k < n or pi_n(S^n) = Z.  With no ``path`` the shipped
    table is read once per process and the same object is returned; a given
    ``path`` is read on every call, since the file may change.
    """
    return _shipped_table() if path is None else _read_table(Path(path))


@cache
def _shipped_table() -> SphereTable:
    return _read_table(default_table_path())


def _read_table(file_path: Path) -> SphereTable:
    entries: dict[tuple[int, int], FGAbelianGroup] = {}
    max_n = 0
    max_k = 0
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read table file {file_path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            numbers = [int(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"{file_path}:{lineno}: non-integer field") from exc
        if len(numbers) < 3:
            raise ParseError(
                f"{file_path}:{lineno}: need at least 'n k free_rank'"
            )
        n, k, free_rank, *orders = numbers
        if n < 1 or k < 1 or free_rank < 0 or any(o < 2 for o in orders):
            raise ParseError(f"{file_path}:{lineno}: out-of-range values")
        group = FGAbelianGroup.from_orders(*orders, free_rank=free_rank)
        if k < n and not group.is_trivial():
            raise CoverageViolation(
                f"{file_path}:{lineno}: pi_{k}(S^{n}) must vanish for k < n"
            )
        if k == n and group != FGAbelianGroup.free(1):
            raise CoverageViolation(
                f"{file_path}:{lineno}: pi_{n}(S^{n}) must be Z"
            )
        if (n, k) in entries and entries[(n, k)] != group:
            raise ParseError(
                f"{file_path}:{lineno}: conflicting duplicate entry for ({n}, {k})"
            )
        entries[(n, k)] = group
        max_n = max(max_n, n)
        max_k = max(max_k, k)
    return SphereTable(
        MappingProxyType(entries), max_n=max_n, max_k=max_k, source=str(file_path)
    )


def pi_sphere(table: SphereTable, n: int, k: int) -> FGAbelianGroup:
    """pi_k(S^n): forced values below the diagonal, table lookup above.

    The forced groups 0 (k < n) and Z (k = n) are the shared records
    ``_ZERO`` and ``_Z``, and a table entry is the table's own record: no
    call builds a group.  Valid arguments pass one comparison chain; any
    other falls through to the checks that name the bad argument.
    """
    if not (type(n) is int is type(k) and n >= 1 and k >= 1):
        _require_int(n, "sphere dimension")
        _require_int(k, "degree")
        raise InputError("sphere dimension and degree must be >= 1")
    if k <= n:
        return _Z if k == n else _ZERO
    try:
        return table.entries[(n, k)]
    except KeyError:
        raise TableOutOfRange(
            f"pi_{k}(S^{n}) is outside the sphere table "
            f"(coverage n <= {table.max_n}, k <= {table.max_k})"
        ) from None


def pi_manifold(
    factors: LoopFactorMultiset, table: SphereTable, k: int
) -> FGAbelianGroup:
    """pi_k(M) = pi_{k-1}(Loop M), summed over the decomposition factors.

    Each ``Loop(S^m)`` factor with m <= k is one :func:`pi_sphere` lookup,
    whose summand counts are added ``multiplicity`` times in one pass; the
    S^1 / S^3{n} part is a group only at k <= 3, the degrees where it is
    nonzero.  The one group built at k >= 4 is the result.
    """
    _require_int(k, "k")
    if k < 2:
        raise InputError("pi_k of the manifold is assembled only for k >= 2")
    if factors.truncated and k > factors.cutoff + 1:
        raise TableOutOfRange(
            f"pi_{k} needs loop factors up to dimension {k}, but the "
            f"enumeration was truncated at {factors.cutoff + 1}"
        )
    if factors.mod_factors and k >= 4:
        raise UnsupportedDegree(
            f"pi_{k} through an S^3{{{factors.mod_factors[0]}}} factor depends "
            "on the degree map's action on sphere torsion and is not computed"
        )
    # S^1 and S^3{n} reach only pi_2 and pi_3; built (and checked) first
    rank = 0
    counts: dict[tuple[int, int], int] = {}
    if k <= 3:
        mods = factors.mod_factors if k == 3 else ()
        base = FGAbelianGroup.from_orders(*mods, free_rank=factors.circles if k == 2 else 0)
        rank, counts = base.free_rank, dict(base.counts)
    for m, mult in factors.sphere_loops:
        if m <= k:
            group = pi_sphere(table, m, k)
            rank += group.free_rank * mult
            for key, n in group.counts:
                counts[key] = counts.get(key, 0) + n * mult
    return FGAbelianGroup(rank, tuple(sorted([c for c in counts.items() if c[1]])))
