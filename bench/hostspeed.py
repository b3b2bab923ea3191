"""The host's speed, from a fixed reference kernel timed between the ops.

The benchmark runs on a guest with a few cores of a shared machine.  Its
speed swings by up to 1.8x, in spells from a second to several minutes,
with CPU time and wall time alike (so it is not waiting for a core).  The
timed run therefore also times :func:`kernel` after every op in its place,
and scales each op's time by how fast the kernel ran next to it
(:meth:`HostSpeed.scale`).  The kernel is stdlib-only Python of the same
kind as loopsix's work (argparse, json, exact Fraction elimination) and
calls nothing in loopsix, so a change to loopsix moves the op times and
not the kernel's.  In ten runs of each workload on a 2-vCPU Xeon guest,
the middle half of the wall-clock ``ops_per_s``, ``op_ms.p50`` and
``op_ms.tail`` spread by 6-26% of their median, and of the scaled ones by
1-6%.
"""

from __future__ import annotations

import argparse
import bisect
import json
from array import array
from fractions import Fraction
from time import perf_counter

#: Kernel time (s) that scaled times refer to: about its fastest on the
#: 2-vCPU Xeon guest the bounds were set on, so scaled times read close to
#: that host's wall-clock times in its fast spells.
REF_S = 0.0012
#: Kernel samples taken on each side of an op to judge the speed there.
NEIGHBOURS = 2

_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
    for i in range(6)
]
_SPEC = {"intersection_form": [[1, 0, 2], [0, -1, 1], [2, 1, 3]], "w2": [1, 0, 1], "p1": 12}


def kernel() -> tuple[str, int, Fraction]:
    """Build and use a small CLI parser, round-trip a spec through JSON and
    row-reduce a 6x7 Fraction matrix; the result is fixed."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("describe", "decompose", "pi", "series"):
        command = commands.add_parser(name)
        command.add_argument("spec")
        command.add_argument("--format", choices=("text", "json"), default="text")
        command.add_argument("--cutoff", type=int, default=10)
    args = parser.parse_args(["decompose", "spec.json", "--format", "json"])
    spec = json.loads(json.dumps(_SPEC, sort_keys=True))
    rows = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inverse = 1 / rows[r][c]
        rows[r] = [x * inverse for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return args.command, spec["p1"], rows[-1][-1]


class HostSpeed:
    """Kernel timings in the order they were taken."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def scale(self, t: float) -> float:
        """Factor that takes a time measured at ``t`` to the reference speed:
        ``REF_S`` over the kernel's fastest time among the ``NEIGHBOURS``
        samples on either side of ``t``.  The fastest, since other tenants'
        load only ever adds time to a sample."""
        b = bisect.bisect_left(self.starts, t)
        near = self.durations[max(0, b - NEIGHBOURS) : b + NEIGHBOURS]
        return REF_S / min(near)
