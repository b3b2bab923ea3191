"""Mutation census: change one operator at a time in a module of
``src/loopsix`` and report each mutant that its tests do not kill; or,
with ``--listed``, check that each mutant of ``tests/data/mutants.json``
fails each of the tests it names.

Run from the repository root (pytest does not collect this file)::

    python tests/mutation_census.py src/loopsix/rational.py
    python tests/mutation_census.py src/loopsix/rational.py \\
        --function _mono_mul --function _d_monomial
    python tests/mutation_census.py --listed

The operators are those of the census in ROADMAP item 18: ``+`` and ``-``
swap, ``*`` becomes ``+``, ``//`` becomes ``*`` and ``%`` becomes ``//``
(in expressions and augmented assignments), and each comparison moves by
one (``<`` and ``<=``, ``>`` and ``>=``) or is negated (``==`` and
``!=``).  ``--function`` keeps the sites inside the named functions or
methods only.  The census runs ``JOBS`` mutants at once, each in its own
copy of the tree: a whole module takes about 25 minutes on 2 cores.

Each mutant is written into a copy of the tree in a temporary directory,
never into this checkout, and the copy's source is restored in a
``finally`` whatever the run did.  Every pytest run has ``-x`` and lasts
at most ``TIMEOUT`` seconds; past it, its process group is killed.

A census mutant first runs the module's own test file,
``tests/test_cli.py`` and A1-A9 (``tests/test_acceptance.py``); a survivor
is then run against the whole of tier-1.  It names no test, so any
failure kills it: exit 1, exit 2 (a collection error, as when the mutant
breaks an import) or a hang, as in ``m //= 2`` -> ``m *= 2``.  The script
lists every mutant, then the survivors.

A listed mutant replaces one exact source line, which must occur once,
and each test it names must exit 1, a test failure.  Exit 2 there means
that the test never ran, so it does not count as a kill.

The script exits 1 when a census mutant does not parse back to its
intended tree or a census run gives no verdict (exit 3 or more), or when
a listed mutant is not killed as it says.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds per pytest run.  A survivor's second run is the whole of
#: tier-1, about 25 s, so this stays well above that, or a slow run would
#: read as a hang and kill the mutant.
TIMEOUT = 120.0
#: Census mutants run at once, each in its own copy of the tree.
JOBS = 2

#: Each operator's mutant, and (below) each operator's source token.
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
TOKENS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _sites(tree: ast.Module):
    """``(node, index, left, right, function)`` for every operator in SWAPS:
    the operator sits between the ``left`` and ``right`` nodes and is
    ``node.op``, or ``node.ops[index]`` in a comparison."""

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node, None, node.left, node.right, function
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield node, None, node.target, node.value, function
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, k, operands[k], operands[k + 1], function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, None)


def mutants(source: str, functions: set[str] | None):
    """``(line, function, description, mutated source)`` for each site.

    The operator is found among the tokens between its operands, or in the
    text between them inside an f-string, which tokenizes as one string.
    An expression is put in parentheses, so that a mutant keeps its
    operands whatever the new operator binds."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(row: int, byte_col: int) -> int:
        return starts[row - 1] + len(lines[row - 1].encode()[:byte_col].decode())

    tokens = {
        starts[t.start[0] - 1] + t.start[1]: t.string
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type == tokenize.OP
    }
    for node, index, left, right, function in _sites(tree):
        if functions is not None and function not in functions:
            continue

        def swap(op):
            if index is None:
                node.op = op
            else:
                node.ops[index] = op

        old = node.op if index is None else node.ops[index]
        new = SWAPS[type(old)]()
        suffix = "=" if isinstance(node, ast.AugAssign) else ""
        token, replacement = TOKENS[type(old)] + suffix, TOKENS[type(new)] + suffix
        after = offset(left.end_lineno, left.end_col_offset)
        before = offset(right.lineno, right.col_offset)
        at = next(
            (k for k in range(after, before) if tokens.get(k) == token),
            source.find(token, after, before),
        )
        row = source.count("\n", 0, at) + 1
        mutated = source[:at] + replacement + source[at + len(token):]
        if not suffix:
            a = offset(node.lineno, node.col_offset)
            b = offset(node.end_lineno, node.end_col_offset) + len(replacement) - len(token)
            mutated = f"{mutated[:a]}({mutated[a:b]}){mutated[b:]}"
        # the mutant must parse to the original tree with this one operator changed
        swap(new)
        expected = ast.dump(tree)
        swap(old)
        if at < 0 or ast.dump(ast.parse(mutated)) != expected:
            raise SystemExit(f"line {row}: {token} -> {replacement} does not parse as intended")
        yield row, function, f"{token} -> {replacement}", mutated


def _pytest(tree: Path, argv: list[str]) -> int | None:
    """pytest's exit code for one run in ``tree``, or None past ``TIMEOUT``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *argv]
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


@contextmanager
def _trees(n: int):
    """A queue of ``n`` copies of the tree in a temporary directory."""
    with tempfile.TemporaryDirectory() as scratch:
        trees: queue.Queue[Path] = queue.Queue()
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        for k in range(n):
            trees.put(shutil.copytree(ROOT, Path(scratch) / str(k), ignore=ignore))
        yield trees


def _mutated(trees: queue.Queue[Path], path: Path, text: str, run):
    """``run(tree)`` on a copy of the tree in which ``path`` reads ``text``."""
    tree = trees.get()
    target = tree / path
    original = target.read_text()
    try:
        target.write_text(text)
        return run(tree)
    finally:
        target.write_text(original)
        trees.put(tree)


def census(module: Path, functions: set[str] | None) -> int:
    source = (ROOT / module).read_text()
    own = (f"tests/test_{module.stem}.py", "tests/test_cli.py", "tests/test_acceptance.py")
    first = [test for test in own if (ROOT / test).exists()]
    found = list(mutants(source, functions))
    print(f"{module}: {len(found)} mutants", flush=True)

    def run(tree: Path) -> str:
        for argv in (first, []):
            code = _pytest(tree, argv)
            if code is None:
                return "timeout"
            if code not in (0, 1, 2):
                raise SystemExit(f"pytest {' '.join(argv)} exits {code}: no verdict")
            if code:
                return "killed"
        return "survived"

    with _trees(JOBS) as trees:

        def verdict(mutant):
            row, function, change, mutated = mutant
            result = _mutated(trees, module, mutated, run)
            print(f"{module}:{row} {change} in {function}: {result}", flush=True)
            return row, function, change, result

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(verdict, found))
    survivors = [r for r in results if r[3] == "survived"]
    hangs = sum(r[3] == "timeout" for r in results)
    print(f"\n{len(results)} mutants: {len(results) - len(survivors)} killed "
          f"({hangs} by timeout), {len(survivors)} survived")
    for row, function, change, _ in sorted(survivors):
        print(f"  survivor {module}:{row} {change} in {function}")
    return 0


def listed() -> int:
    faults = []
    with _trees(1) as trees:
        for mutant in json.loads((ROOT / "tests/data/mutants.json").read_text()):
            name = mutant["name"]
            lines = (ROOT / mutant["file"]).read_text().split("\n")
            if lines.count(mutant["line"]) != 1:
                faults.append(f"{name}: {mutant['line']!r} is not one line of {mutant['file']}")
                continue
            lines[lines.index(mutant["line"])] = mutant["replacement"]

            def run(tree: Path) -> None:
                for test in mutant["tests"]:
                    code = _pytest(tree, [test])
                    print(f"{name}: {test}: pytest exit {code}", flush=True)
                    if code != 1:  # 0: the mutant survives; None: a hang; 2-5: no verdict
                        faults.append(f"{name}: {test} exits {code}, not 1")

            _mutated(trees, Path(mutant["file"]), "\n".join(lines), run)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("module", nargs="?", help="a file under src/loopsix, from the repository root")
    which.add_argument("--listed", action="store_true", help="run tests/data/mutants.json")
    parser.add_argument("--function", action="append", help="keep this function's sites")
    args = parser.parse_args(argv)
    if args.listed:
        if args.function:
            parser.error("--function keeps census sites; --listed takes none")
        return listed()
    return census(Path(args.module), set(args.function) if args.function else None)


if __name__ == "__main__":
    sys.exit(main())
