"""Record the machine context of the benchmark in ``context.json``.

Interpreter start-up is reported here, apart from ``setup_s``, because its
run-to-run spread is too wide to gate on: the median of ``python -c pass``
and of a cold ``python -m loopsix.cli describe inputs/d1.json``, with the
Python version and the processor count.  Run from the repository root::

    python3 bench/context.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import run

REPEATS = 11


def median_wall_ms(argv: list[str], env: dict[str, str]) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, cwd=run.ROOT, env=env, capture_output=True, timeout=60, check=True)
        samples.append((perf_counter() - t0) * 1000)
    return statistics.median(samples)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    python = sys.executable
    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "python_c_pass_ms": median_wall_ms([python, "-c", "pass"], env),
        "cold_describe_d1_ms": median_wall_ms(
            [python, "-m", "loopsix.cli", "describe", "inputs/d1.json"], env
        ),
    }
    (run.HERE / "context.json").write_text(json.dumps(context, indent=2) + "\n")
    print(json.dumps(context))
    return 0


if __name__ == "__main__":
    sys.exit(main())
