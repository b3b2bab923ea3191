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

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import InputError, UnsupportedError
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


@lru_cache(maxsize=1024)  # called once per torsion summand by every sort
def _prime_of(q: int) -> int:
    return _prime_powers(q)[0][0]


@dataclass(frozen=True)
class FGAbelianGroup:
    """A finitely generated abelian group in primary decomposition.

    ``torsion`` holds prime-power orders sorted by (prime, exponent), so the
    representation is canonical and equality is structural.

    >>> FGAbelianGroup.from_orders(12, 2) == FGAbelianGroup.from_orders(4, 3, 2)
    True
    """

    free_rank: int
    torsion: tuple[int, ...]

    @classmethod
    def from_orders(cls, *orders: int, free_rank: int = 0) -> "FGAbelianGroup":
        torsion: list[int] = []
        for n in orders:
            n = abs(int(n))
            if n == 0:
                free_rank += 1
            elif n == 1:
                continue
            else:
                torsion.extend(q for _, q in _prime_powers(n))
        torsion.sort(key=lambda q: (_prime_of(q), q))
        return cls(free_rank=free_rank, torsion=tuple(torsion))

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Order of the group, or None if infinite."""
        if self.free_rank:
            return None
        result = 1
        for q in self.torsion:
            result *= q
        return result

    def direct_sum(self, *others: "FGAbelianGroup") -> "FGAbelianGroup":
        rank = self.free_rank + sum(g.free_rank for g in others)
        torsion = list(self.torsion)
        for g in others:
            torsion.extend(g.torsion)
        torsion.sort(key=lambda q: (_prime_of(q), q))
        return FGAbelianGroup(rank, tuple(torsion))

    def invariant_factors(self) -> list[int]:
        """Cyclic orders n_1 >= n_2 >= ... with n_{i+1} | n_i."""
        by_prime: dict[int, list[int]] = {}
        for q in self.torsion:
            by_prime.setdefault(_prime_of(q), []).append(q)
        for qs in by_prime.values():
            qs.sort(reverse=True)
        depth = max((len(qs) for qs in by_prime.values()), default=0)
        factors = []
        for i in range(depth):
            f = 1
            for qs in by_prime.values():
                if i < len(qs):
                    f *= qs[i]
            factors.append(f)
        return factors

    def text(self) -> str:
        """Render as ``Z^a + Z/n1 + Z/n2 ...`` with invariant factors.

        >>> FGAbelianGroup.from_orders(4, 3, 2).text()
        'Z/12 + Z/2'
        """
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{n}" for n in self.invariant_factors())
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, eq=False)
class SphereTable:
    """Lookup table for pi_k(S^n) with explicit coverage bounds."""

    entries: dict
    max_n: int
    max_k: int
    source: str

    def coverage(self, n: int, k: int) -> bool:
        return k < n or k == n or (n, k) in self.entries


def default_table_path() -> Path:
    return Path(resources.files("loopsix").joinpath("data/sphere_table.txt"))


def load_table(path: str | Path | None = None) -> SphereTable:
    """Load a sphere table file (``n k free_rank [orders...]`` lines).

    Raises :class:`ParseError` with the offending line number on malformed
    input and :class:`CoverageViolation` when a stored entry contradicts
    pi_k(S^n) = 0 for k < n or pi_n(S^n) = Z.
    """
    file_path = Path(path) if path is not None else default_table_path()
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
        entries=entries, max_n=max_n, max_k=max_k, source=str(file_path)
    )


def pi_sphere(table: SphereTable, n: int, k: int) -> FGAbelianGroup:
    """pi_k(S^n): forced values below the diagonal, table lookup above."""
    if n < 1 or k < 1:
        raise InputError("sphere dimension and degree must be >= 1")
    if k < n:
        return FGAbelianGroup.trivial()
    if k == n:
        return FGAbelianGroup.free(1)
    try:
        return table.entries[(n, k)]
    except KeyError:
        raise TableOutOfRange(
            f"pi_{k}(S^{n}) is outside the shipped table "
            f"(coverage n <= {table.max_n}, k <= {table.max_k})"
        ) from None


def pi_manifold(
    factors: LoopFactorMultiset, table: SphereTable, k: int
) -> FGAbelianGroup:
    """pi_k(M) = pi_{k-1}(Loop M), summed over the decomposition factors."""
    if k < 2:
        raise InputError("pi_k of the manifold is assembled only for k >= 2")
    if factors.truncated and k > factors.cutoff + 1:
        raise TableOutOfRange(
            f"pi_{k} needs loop factors up to dimension {k}, but the "
            f"enumeration was truncated at {factors.cutoff + 1}"
        )
    parts = []
    if factors.circles and k == 2:
        parts.append(FGAbelianGroup.free(factors.circles))
    for order in factors.mod_factors:
        if k == 3:
            parts.append(FGAbelianGroup.from_orders(order))
        elif k >= 4:
            raise UnsupportedDegree(
                f"pi_{k} through an S^3{{{order}}} factor depends on the "
                "degree map's action on sphere torsion and is not computed"
            )
    for dim, mult in factors.sphere_loops:
        group = pi_sphere(table, dim, k)
        parts.append(FGAbelianGroup(group.free_rank * mult, group.torsion * mult))
    if not parts:
        return FGAbelianGroup.trivial()
    return parts[0].direct_sum(*parts[1:])
