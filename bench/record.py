"""Record the output digests that ``run.py`` checks every op against.

Runs one pass of every workload for every input set and writes
``digests.json``: per workload and input set, the concatenated 8-hex-digit
digests of the ops' outputs in pass order.  It refuses to record an op that
fails its exit-code label or its identity check.  Run it from the
repository root at the commit whose outputs are the reference::

    python3 bench/record.py
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    os.chdir(run.ROOT)
    table: dict[str, dict[str, str]] = {}
    for workload in run.WORKLOADS:
        table[workload] = {}
        for input_set in range(workloads.SEED_CYCLE):
            ops, _ = run.build_ops(workload, input_set)
            samples = run.run_passes(ops, 0, 1, [None] * len(ops))
            if samples.problems:
                print("\n".join(samples.problems), file=sys.stderr)
                return 1
            table[workload][str(input_set)] = "".join(samples.digests)
            print(f"{workload} {input_set}: {len(ops)} ops", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
