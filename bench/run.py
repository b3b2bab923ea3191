"""Benchmark of the loopsix CLI and library: one client, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload desk|survey --seed N --seconds S --trace 0|1

The workload's ops (see ``workloads.py``) make one pass; the run repeats
whole passes, at least three, until ``S`` seconds have gone by.  Ops that
take under ``LIGHT_S`` run ``LIGHT_REPEATS`` times per pass from the second
pass on, spread over the pass.  Only the calls into ``loopsix`` are timed.
After every op in its place a fixed reference kernel is timed as well, and
each op's time is scaled to the reference speed by how fast the kernel ran
next to it (``hostspeed.py``): the host's own speed swings by up to 1.8x
for minutes at a time.  Each op's time is the ``LOW_QUANTILE`` of its
scaled samples: other tenants' load only ever adds time.  Throughput and
percentiles are computed from these per-op times; the wall-clock figures
are printed beside them.  After each call, outside the timed region, its
output is checked: exit code against the spec's label, the workload's
identity (two-path agreement, Milnor-Moore), and the digest of its output
bytes recorded at the seed commit (``digests.json``; seeds are taken
modulo ``SEED_CYCLE``).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over fresh interpreters started at even intervals during the run, of the
time to ``import loopsix.cli`` and make the first ``groups.load_table()``,
with interpreter start excluded.  It is not scaled: the fresh interpreter
may run on another core than the kernel, and its times were found
uncorrelated with the kernel's.

``--trace 1`` makes the same untraced run, then a traced run (``tracer.py``)
of whole passes for half as long, and reports the per-layer metrics,
``import.<module>.ms`` from ``-X importtime`` in the set-up child, and
``trace.overhead_ratio`` (untraced over traced ``ops_per_s``, both
scaled).  Spans are written to ``.bench_run/trace-<workload>-<seed>.json``.

Human-readable lines go to standard output; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("desk", "survey")

MIN_PASSES = 3
#: Ops faster than this (s, scaled) in the first pass run ``LIGHT_REPEATS``
#: times per pass, so that a millisecond op has more than one sample per
#: pass of several seconds.  It lies in a gap between the scaled op times
#: of both workloads (desk: 6 and 19 ms; survey: 12 and 19 ms).  An op on
#: the wrong side only gets fewer or more samples: the quantile that is
#: kept does not move with their number.
LIGHT_S = 0.015
LIGHT_REPEATS = 4
#: Quantile of an op's scaled samples taken as its time, interpolated
#: between samples: a heavy op has only 5-8 samples, and rounding to the
#: nearest one would jump between the fastest and the second fastest with
#: the number of passes a run fits.
LOW_QUANTILE = 0.1
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
#: Sets up loopsix in a fresh interpreter; prints the seconds it took.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t = time.perf_counter()\n"
    "import loopsix.cli\n"
    "from loopsix import groups\n"
    "groups.load_table()\n"
    "print(time.perf_counter() - t)\n"
)


def digest(text: str) -> str:
    """First 8 hex digits of the SHA-256 of the output, checkout path removed."""
    normal = text.replace(str(ROOT), "<root>")
    return hashlib.sha256(normal.encode()).hexdigest()[:8]


def build_ops(workload: str, seed: int):
    """The op list of one pass for ``seed``, and the input set it maps to."""
    import workloads

    input_set = seed % workloads.SEED_CYCLE
    rng = random.Random(f"{workload}-{input_set}")
    spec_dir = RUN_DIR / f"{workload}-{input_set}"
    return workloads.MAKE_PASS[workload](rng, ROOT, spec_dir), input_set


def evaluate(op, raw, error, expected_digest: str | None):
    """``(digest, problem)`` for one op's result; problem is None if correct."""
    if error is not None:
        return None, f"raised {type(error).__name__}: {error}"
    code, text = op.render(raw)
    got = digest(text)
    if code != op.expect:
        return got, f"exit {code}, expected {op.expect}"
    problem = op.check(code, text) if op.check else None
    if problem:
        return got, problem
    if expected_digest is not None and got != expected_digest:
        return got, f"output digest {got}, recorded {expected_digest}"
    return got, None


@dataclass
class Samples:
    """Every timed call of a run, in the order made, and the output digests
    of the first pass.  Arrays keep the run's own memory, which
    ``peak_rss_mb`` includes, from growing with the number of samples."""

    starts: array = field(default_factory=lambda: array("d"))
    durations: array = field(default_factory=lambda: array("d"))
    index: array = field(default_factory=lambda: array("l"))
    digests: list[str | None] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    passes: int = 0

    def scaled(self, speed: HostSpeed) -> list[float]:
        return [d * speed.scale(t) for t, d in zip(self.starts, self.durations)]

    def per_op(self, ops: int, durations: list[float]) -> list[float]:
        """Each op's ``LOW_QUANTILE`` of ``durations`` (one per sample)."""
        by_op: list[list[float]] = [[] for _ in range(ops)]
        for d, i in zip(durations, self.index):
            by_op[i].append(d)
        return [low_quantile(sorted(v)) for v in by_op]


def low_quantile(ordered: list[float]) -> float:
    position = LOW_QUANTILE * (len(ordered) - 1)
    i = int(position)
    upper = ordered[min(i + 1, len(ordered) - 1)]
    return ordered[i] + (upper - ordered[i]) * (position - i)


def run_passes(ops, seconds, min_passes, expected, *, tracer=None, speed=None,
               between_ops=None, light_repeats=1) -> Samples:
    """Run whole passes of ``ops``; with ``speed``, time the reference
    kernel after each op in its place.

    With ``light_repeats`` > 1 (needs ``speed``), each op that took under
    ``LIGHT_S`` in the first pass runs that many times per pass from the
    second pass on: once in its place and the rest spread evenly between
    the other ops, in pass order.  ``between_ops`` is called after each op
    in its place, outside the timed region."""
    run = Samples()

    def one(i: int) -> None:
        op = ops[i]
        op_id = len(run.durations)
        raw = error = None
        with tracer.op(op_id, op.kind) if tracer else nullcontext():
            t0 = perf_counter()
            try:
                raw = op.call()
            except Exception as exc:  # a crashing op is a failed op
                error = exc
            elapsed = perf_counter() - t0
        run.starts.append(t0)
        run.durations.append(elapsed)
        run.index.append(i)
        try:
            got, problem = evaluate(op, raw, error, expected[i])
        except Exception as exc:  # a broken output is a failed op
            got, problem = None, f"check raised {type(exc).__name__}: {exc}"
        if run.passes == 0:
            run.digests.append(got)
        if problem:
            run.problems.append(f"op {i} ({op.kind}): {problem}")

    light: list[int] = []
    start = perf_counter()
    while run.passes < min_passes or perf_counter() - start < seconds:
        extra = (light_repeats - 1) * len(light)
        done = 0
        for i in range(len(ops)):
            one(i)
            if speed:
                speed.sample()
            if between_ops:
                between_ops()
            while done < extra * (i + 1) // len(ops):
                one(light[done % len(light)])
                done += 1
        if run.passes == 0 and light_repeats > 1:
            first = run.scaled(speed)
            light = [i for i in range(len(ops)) if first[i] < LIGHT_S]
        run.passes += 1
    return run


class SetupSampler:
    """Times set-up in fresh interpreters, spread evenly over the run.

    Set-up takes about 50 ms, but a fifth of the samples come out 50% slower
    and they bunch together in time, so samples taken back to back can all
    land in one slow spell."""

    def __init__(self, seconds: float) -> None:
        self.interval = seconds / SETUP_REPEATS
        self.samples: list[float] = []
        self.next_at = perf_counter()

    def __call__(self) -> None:
        if perf_counter() >= self.next_at:
            self.sample()
            self.next_at = perf_counter() + self.interval

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def import_times() -> dict[str, float]:
    """Median cumulative import time (ms) per module under ``-X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            samples.setdefault(name.strip(), []).append(int(cumulative) / 1000)
    return {name: statistics.median(v) for name, v in samples.items()}


def latency(per_op: list[float]) -> tuple[float, float, float]:
    """Median and tail (ms) of the per-op times, and the tail's percentile:
    the highest one with ten samples beyond it, each op counted as the
    ``MIN_PASSES`` samples every run has.  Counting the passes a run happened
    to fit instead would move the tail from one op to another."""
    ms = sorted(d * 1000 for d in per_op for _ in range(MIN_PASSES))
    n = len(ms)
    if n < 11:
        return statistics.median(ms), ms[-1], 100.0
    return statistics.median(ms), ms[n - 11], 100 * (n - 10) / n


def end_to_end(run: Samples, ops: int, speed: HostSpeed, setups: SetupSampler):
    per_op = run.per_op(ops, run.scaled(speed))
    wall = run.per_op(ops, run.durations)
    p50, tail, pct = latency(per_op)
    wall_p50, wall_tail, _ = latency(wall)
    values = {
        "ops_per_s": ops / sum(per_op),
        "op_ms.p50": p50,
        "op_ms.tail": tail,
        "setup_s": setups.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed = len(run.durations), len(run.problems)
    kernel_ms = sorted(d * 1000 for d in speed.durations)
    notes = [
        f"op_ms.tail is p{pct:.2f} of {ops * MIN_PASSES} samples "
        f"({ops} ops x {MIN_PASSES} passes; the run made {run.passes})",
        f"setup_s is the median of {len(setups.samples)} fresh interpreters",
        f"wall clock: ops_per_s {ops / sum(wall):.4g}  op_ms.p50 {wall_p50:.4g}  "
        f"op_ms.tail {wall_tail:.4g}",
        f"reference kernel: {len(kernel_ms)} samples, fastest {kernel_ms[0]:.4g} ms, "
        f"median {statistics.median(kernel_ms):.4g} ms",
        f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)",
    ]
    return values, notes


FACT_FUNCTIONS = (
    "groups.load_table",
    "homotopy.loop_factors",
    "rational.coformality_check",
    "rational.lie_dims",
    "rational.quadratic_dual_dims",
    "linalg.rref",
)


def traced_metrics(ops, seconds, untraced_rate, untraced_digests, workload, seed):
    from tracer import Tracer

    tracer = Tracer()
    speed = HostSpeed()
    tracer.install()
    try:
        # the traced ops must reproduce the untraced outputs exactly
        run = run_passes(ops, seconds / 2, 1, untraced_digests, tracer=tracer, speed=speed)
    finally:
        tracer.uninstall()
    values = tracer.summary(len(run.durations))
    traced_rate = len(ops) / sum(run.per_op(len(ops), run.scaled(speed)))
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    for module, ms in import_times().items():
        values[f"import.{module}.ms"] = ms
    by_kind = tracer.calls_by_op_kind({i: ops[k].kind for i, k in enumerate(run.index)})
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump(
            {"metrics": values, "calls_per_op_by_kind": by_kind, "spans": tracer.spans},
            fh,
        )
    notes = [f"traced {len(run.durations)} ops in {run.passes} passes"]
    for kind, calls in by_kind.items():
        shown = {
            name: round(n, 3)
            for name, n in calls.items()
            if name in FACT_FUNCTIONS
        }
        notes.append(f"per {kind} op: {shown}")
    return values, len(run.durations), run.problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loopsix" / "cli.py").is_file() or not (ROOT / "inputs").is_dir():
        print(f"error: no loopsix sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    ops, input_set = build_ops(args.workload, args.seed)
    recorded = json.loads((HERE / "digests.json").read_text())[args.workload][str(input_set)]
    if len(recorded) != 8 * len(ops):
        print("error: digests.json does not match the workload's ops", file=sys.stderr)
        return 2
    expected = [recorded[8 * i : 8 * i + 8] for i in range(len(ops))]

    speed = HostSpeed()
    setups = None if args.trace else SetupSampler(args.seconds)
    run = run_passes(
        ops, args.seconds, MIN_PASSES, expected, speed=speed, between_ops=setups,
        light_repeats=LIGHT_REPEATS,
    )
    attempted, problems = len(run.durations), run.problems
    print(f"workload {args.workload}  seed {args.seed}  input set {input_set}  "
          f"{len(ops)} ops per pass  {run.passes} passes")
    if args.trace:
        rate = len(ops) / sum(run.per_op(len(ops), run.scaled(speed)))
        values, traced, traced_problems, notes = traced_metrics(
            ops, args.seconds, rate, run.digests, args.workload, args.seed
        )
        attempted += traced
        problems += traced_problems
    else:
        values, notes = end_to_end(run, len(ops), speed, setups)

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        # a module that site or an earlier import already loaded takes no time
        value = values.get(name, 0.0) if name.startswith("import.") else values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:>14.6g} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
