"""List the functions in ``src/loopsix`` that no command, acceptance test or
benchmark op runs, and fail on any that ``ALLOWED`` does not name.

Run from the repository root (pytest does not collect this file)::

    PYTHONPATH=src python tests/reach_probe.py

Under ``sys.setprofile`` it runs, after the package is imported:

* every one-spec command on every ``inputs/*.json`` in text and JSON, two
  ``compare`` runs and one usage error, through ``cli.run`` and
  ``cli.main``;
* ``tests/test_acceptance.py`` (A1-A9), through pytest;
* one desk pass and one survey pass built by ``bench/run.py`` from
  ``bench/workloads.py`` (seed 1), each op's output checked against its
  recorded digest as the benchmark checks it.  It reads ``bench/`` and
  edits nothing there; the specs go where the benchmark writes them.

A function is reached when its code object ran.  Calls made while the
package is imported do not count, so a function that only builds a module
constant is listed too.  The script exits 1 when a command, an acceptance
test or a bench op fails, when an unreached function is not in
``ALLOWED``, or when an entry of ``ALLOWED`` names a function that ran or
that no longer exists.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "loopsix"

#: Functions that none of the runs reaches, each with the reason it stays.
ALLOWED = {
    "_record.Frozen.__setattr__": "immutability: raises on assignment",
    "_record.Frozen.__delattr__": "immutability: raises on deletion",
    "_record.Frozen.__reduce__": "pickling and copying of records",
    "_record.Record.__hash__": "records are hashable values (tests/test_records.py)",
    "cli._one_spec": "a decorator: it runs while cli is imported",
    "groups.FGAbelianGroup.is_trivial": "checks a --table file's entries below the diagonal",
    "series.TruncatedSeries.one": "the test references compute with it",
    "series.TruncatedSeries.__add__": "the test references compute with it",
    "series.TruncatedSeries.__sub__": "the test references compute with it",
}

FORMATS = ([], ["--format", "json"])


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> name`` of every function and method in the
    package; the first line of a decorated function is its first decorator's,
    as in its code object."""
    found = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            else:
                walk(child, prefix, path)

    for source in sorted(SRC.glob("*.py")):
        module = "" if source.stem == "__init__" else f"{source.stem}."
        walk(ast.parse(source.read_text()), module, os.path.realpath(source))
    return found


def run_commands(cli) -> list[str]:
    """Every one-spec command on every committed spec in both formats, two
    compares and one usage error; the failures, if any."""
    specs = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "inputs").glob("*.json"))]
    commands = sorted(set(cli._build_parser().commands) - {"compare"})
    argvs = [[c, s, *f] for c in commands for s in specs for f in FORMATS]
    argvs += [
        ["compare", specs[0], specs[-1]],
        ["compare", specs[-1], specs[-1], "--format", "json"],
    ]
    failures = []
    for argv in argvs:
        code, _ = cli.run(argv)
        if code not in (0, 2, 3):
            failures.append(f"{' '.join(argv)}: exit {code}")
    with contextlib.redirect_stderr(io.StringIO()) as usage:
        code = cli.main(["pi", specs[0], "--max", "1"])
    if code != 1 or not usage.getvalue().startswith("usage error:"):
        failures.append(f"usage error: exit {code}")
    return failures


def run_bench(workload: str) -> list[str]:
    """One pass of ``workload`` at seed 1, each op checked; the failures."""
    import run as bench

    ops, input_set = bench.build_ops(workload, 1)
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())
    digests = recorded[workload][str(input_set)]
    failures = []
    for i, op in enumerate(ops):
        raw = error = None
        try:
            raw = op.call()
        except Exception as exc:  # a crashing op is a failed op, as in the bench
            error = exc
        _, problem = bench.evaluate(op, raw, error, digests[8 * i : 8 * i + 8])
        if problem:
            failures.append(f"{workload} op {i} ({op.kind}): {problem}")
    return failures


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import loopsix
    import pytest

    for info in pkgutil.iter_modules(loopsix.__path__):
        importlib.import_module(f"loopsix.{info.name}")
    from loopsix import cli

    ran: set = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        failures = run_commands(cli)
        if pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"]):
            failures.append("tests/test_acceptance.py failed")
        for workload in ("desk", "survey"):
            failures += run_bench(workload)
    finally:
        sys.setprofile(None)

    defined = defined_functions()
    reached = {defined.get((os.path.realpath(c.co_filename), c.co_firstlineno)) for c in ran}
    unreached = sorted(set(defined.values()) - reached)
    for name in unreached:
        print(f"unreached: {name}" + (f" ({ALLOWED[name]})" if name in ALLOWED else ""))
    failures += [f"{name} is reached by nothing" for name in unreached if name not in ALLOWED]
    failures += [
        f"ALLOWED lists {name}, which " + ("ran" if name in reached else "is not defined")
        for name in ALLOWED
        if name not in unreached
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{len(defined)} functions, {len(unreached)} unreached, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
