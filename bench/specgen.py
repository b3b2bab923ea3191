"""Seeded manifold specs for the benchmark workloads.

A spec is the JSON document the ``loopsix`` CLI reads.  Valid forms are
built from a diagonal of +-1 entries (odd forms) or from hyperbolic blocks
(even forms) by random congruence moves ``Q -> P^T Q P`` with ``P`` an
elementary matrix, so they stay unimodular; ``(w2, p1)`` always satisfies
``p1 = w2^T Q w2 (mod 4)``.  Invalid variants break exactly one of those
two conditions.

Every spec carries the exit code each subcommand is expected to return on
it, derived from the rules in :func:`expected_exit`.  Serialisation is
``json.dumps(..., sort_keys=True)``, so the same seed gives byte-identical
files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

COMMANDS = ("describe", "decompose", "pi", "series", "rational", "koszul", "model")

#: Attaching numbers over the 4-sphere that the desk workload always covers.
D0_KS = (0, 1, 2, 4, 6, 8, 15)


@dataclass
class Spec:
    """One spec file's content and what the program must do with it."""

    data: dict
    d: int
    #: "valid", "bad_form" (not unimodular) or "bad_p1" (off the mod-4 congruence).
    kind: str = "valid"
    expect: dict = field(default_factory=dict)

    def text(self) -> str:
        return json.dumps(self.data, sort_keys=True) + "\n"


def d0_supported(k: int) -> bool:
    """Attaching numbers for which ``homotopy.decompose`` gives an answer."""
    if k in (0, 1) or k % 2 == 1:
        return True
    return k >= 8 and k & (k - 1) == 0


def expected_exit(spec: Spec, command: str) -> int:
    """Exit code of ``loopsix <command> <spec>`` at the default options.

    2 for an invalid spec; over the 4-sphere 3 wherever the decomposition is
    needed and unknown, 3 for ``koszul`` (no quadratic presentation) and 3
    for ``pi`` when an ``S^3{n}`` factor is present (pi_4 is refused).
    """
    if spec.kind != "valid":
        return 2
    if spec.d >= 1:
        return 0
    k = abs(spec.data["p1"]) // 4
    if command in ("describe", "model"):
        return 0
    if command == "koszul":
        return 3
    if not d0_supported(k):
        return 3
    if command == "pi" and k not in (0, 1):
        return 3
    return 0


def compare_exit(a: Spec, b: Spec) -> int:
    """Exit code of ``loopsix compare a b``: input errors first, then refusals."""
    if a.kind != "valid" or b.kind != "valid":
        return 2
    return max(expected_exit(a, "decompose"), expected_exit(b, "decompose"))


def _label(spec: Spec) -> Spec:
    spec.expect = {command: expected_exit(spec, command) for command in COMMANDS}
    return spec


def _pairing(form: list[list[int]], v: list[int]) -> int:
    d = len(form)
    return sum(v[i] * form[i][j] * v[j] for i in range(d) for j in range(d))


def random_form(rng: random.Random, d: int) -> list[list[int]]:
    """A unimodular symmetric form of rank ``d`` (even with probability 1/2
    when ``d`` is even), scrambled by ``d`` congruence moves."""
    q = [[0] * d for _ in range(d)]
    if d % 2 == 0 and rng.random() < 0.5:
        for i in range(0, d, 2):
            q[i][i + 1] = q[i + 1][i] = 1
    else:
        for i in range(d):
            q[i][i] = rng.choice((1, -1))
    for _ in range(d):
        i, j = rng.sample(range(d), 2) if d >= 2 else (0, 0)
        if i == j:
            continue
        s = rng.choice((1, -1))
        for r in range(d):
            q[r][j] += s * q[r][i]
        for c in range(d):
            q[j][c] += s * q[i][c]
    return q


def valid_spec(rng: random.Random, d: int, name: str) -> Spec:
    form = random_form(rng, d)
    w2 = [0] * d if rng.random() < 1 / 3 else [rng.randint(0, 1) for _ in range(d)]
    p1 = 4 * rng.randint(-3, 3) + _pairing(form, w2)
    data = {"intersection_form": form, "w2": w2, "p1": p1, "name": name}
    return _label(Spec(data, d))


def d0_spec(rng: random.Random, k: int, name: str) -> Spec:
    p1 = 4 * k * rng.choice((1, -1))
    data = {"intersection_form": [], "p1": p1, "name": name}
    return _label(Spec(data, 0))


def invalid_spec(rng: random.Random, d: int, kind: str, name: str) -> Spec:
    """A rank-``d`` spec that must be rejected with exit 2."""
    spec = valid_spec(rng, d, name)
    data = spec.data
    if kind == "bad_form":
        # scaling one basis vector by 2 multiplies the determinant by 4
        i = rng.randrange(d)
        form = data["intersection_form"]
        for r in range(d):
            form[r][i] *= 2
        for c in range(d):
            form[i][c] *= 2
        data["p1"] = 4 * rng.randint(-3, 3) + _pairing(form, data["w2"])
    elif kind == "bad_p1":
        data["p1"] += rng.choice((1, 2, 3))
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    spec.kind = kind
    return _label(spec)


def file_spec(path: Path) -> Spec:
    """Label a committed spec file (all of ``inputs/`` are valid)."""
    data = json.loads(path.read_text())
    d = len(data["intersection_form"])
    return _label(Spec(data, d))


def write_specs(specs: list[Spec], directory: Path) -> list[Path]:
    """Write generated specs as ``specNN.json``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(specs):
        path = directory / f"spec{i:02d}.json"
        path.write_text(spec.text())
        paths.append(path)
    return paths
