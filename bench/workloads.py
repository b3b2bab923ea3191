"""The two benchmark workloads, each a seeded list of ops making one pass.

An op is one timed call into ``loopsix``: a ``cli.run(argv)`` call or a
public library call.  Calls go through module attributes (``cli.run``,
``homotopy.decompose``, ...) so that the tracer's wrappers see them.  Each
op also knows how to turn its result into output text outside the timed
region, which exit code it must give, and which identity its output must
satisfy.

* ``desk``: an interactive CLI user.  All 8 subcommands, each in text or
  JSON as the seed picks, on ``inputs/*.json`` plus generated specs with d
  in {0, 1, 2, 3} at the default cutoffs; about 10% of specs are invalid
  (exit 2), and the unresolved attaching numbers over the 4-sphere exit 3.
  Most ops take 1-3 ms in cli/groups, so ``op_ms.p50`` follows those
  layers; the d >= 2 ``describe``/``rational``/``koszul``/``model`` ops
  dominate the time, so ``ops_per_s`` follows rational/linalg.
* ``survey``: a library user sweeping specs with d in {0, 0, 1, 2, 3, 6, 10}
  (at d = 0 the trivial bundle and a supported attaching number k >= 1).
  Three ops per spec: ``loop_homology_series(decompose(N, b), 40)``, then
  ``loop_factors`` + ``ranks_from_decomposition`` at cutoff 40, then
  ``pi_manifold`` over a degree range.  Pure series arithmetic; it never
  builds a parser and never reaches the Koszul route or linalg, so it is
  the bypass for changes there.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from loopsix import cli, groups, homotopy, rational, series
from loopsix.errors import UnsupportedError

from specgen import (
    COMMANDS,
    D0_KS,
    compare_exit,
    d0_spec,
    file_spec,
    invalid_spec,
    valid_spec,
    write_specs,
)

#: Seed of the d >= 2 specs that desk runs in every pass.  The cost
#: of exact elimination over the cup-product relations varies 2-6x with the
#: form and bundle (even under a permutation of the basis), so seeding
#: them would make passes of different seeds incomparable.  ``--seed``
#: varies everything else: the d <= 1 and invalid specs, the compare pairs,
#: formats and the order of the ops.
POOL_SEED = "heavy specs"

#: Seeds are taken modulo this, so that every op's output has a digest
#: recorded at the seed commit (see record.py).
SEED_CYCLE = 16

SURVEY_DS = (1, 2, 3, 6, 10)
#: Two specs over the 4-sphere per pass, so that every pass does the same
#: series work: the trivial bundle (S^1 x Loop(S^3) x Loop(S^4)), and one
#: with loop space S^1 x Loop(S^7), with ``S^3{n}`` factors unless k = 1
#: (pi_k is then refused from k = 4).
SURVEY_KS = ((0,), (1, 3, 5, 7, 8, 9, 15, 16))
SURVEY_CUTOFF = 40
#: Highest pi_k per rank.  ``pi_manifold`` adds one summand per loop
#: factor, and the Hilton-Milnor factor count grows exponentially in the
#: degree, so the range stops where it passes about 10^5 summands.
PI_MAX = {0: 15, 1: 15, 2: 15, 3: 12, 6: 8, 10: 6}


@dataclass
class Op:
    """One timed call.

    ``call`` is timed; ``render`` turns its result into ``(exit code,
    output text)`` untimed; ``check`` returns a problem description or
    None, given the rendered output.
    """

    kind: str
    call: Callable[[], Any]
    render: Callable[[Any], tuple[int, str]]
    expect: int = 0
    check: Callable[[int, str], str | None] | None = None


def _two_path_check(code: int, text: str) -> str | None:
    """``two_path_agreement`` must be reported and true (d >= 2 rational)."""
    if code != 0:
        return None
    if text.startswith("{"):
        agreed = json.loads(text)["result"].get("two_path_agreement")
    else:
        line = "two-path agreement: true"
        agreed = True if line in text.splitlines() else None
    if agreed is not True:
        return "two_path_agreement is not true"
    return None


def _cli_op(kind: str, argv: list[str], expect: int, two_path: bool = False) -> Op:
    return Op(
        kind=kind,
        call=lambda: cli.run(argv),
        render=lambda result: result,
        expect=expect,
        check=_two_path_check if two_path and expect == 0 else None,
    )


FORMATS = ("text", "json")


def _format_args(fmt: str) -> list[str]:
    return [] if fmt == "text" else ["--format", fmt]


def desk(rng: random.Random, root: Path, spec_dir: Path) -> list[Op]:
    committed = sorted((root / "inputs").glob("*.json"))
    specs = [file_spec(p) for p in committed]
    paths = [str(p.relative_to(root)) for p in committed]
    pool = random.Random(POOL_SEED)
    generated = [valid_spec(pool, d, f"desk d{d} #{i}") for d in (2, 3) for i in range(2)]
    generated += [d0_spec(rng, k, f"desk d0 k{k}") for k in D0_KS]
    generated += [valid_spec(rng, 1, f"desk d1 #{i}") for i in range(2)]
    generated += [
        invalid_spec(rng, rng.randint(1, 3), kind, f"desk invalid #{i}")
        for i, kind in enumerate(("bad_form", "bad_p1", "bad_p1"))
    ]
    specs += generated
    paths += [str(p.relative_to(root)) for p in write_specs(generated, spec_dir)]

    ops = []
    for spec, path in zip(specs, paths):
        suffix = f"d{spec.d}" if spec.kind == "valid" else "invalid"
        for command in COMMANDS:
            ops.append(
                _cli_op(
                    f"{command} {suffix}",
                    [command, path, *_format_args(rng.choice(FORMATS))],
                    spec.expect[command],
                    two_path=command == "rational" and spec.d >= 2,
                )
            )
    order = list(zip(specs, paths))
    rng.shuffle(order)
    for (a, pa), (b, pb) in zip(order, order[1:] + order[:1]):
        argv = ["compare", pa, pb, *_format_args(rng.choice(FORMATS))]
        ops.append(_cli_op("compare", argv, compare_exit(a, b)))
    rng.shuffle(ops)
    return ops


def _survey_ops(spec_path: Path, d: int, table, milnor_moore) -> list[Op]:
    """series of the decomposition -> factors + ranks -> pi, for one spec."""
    N, b, _ = cli.load_manifold_spec(spec_path)
    state: dict[str, Any] = {}
    c = SURVEY_CUTOFF

    def do_series():
        expr = homotopy.decompose(N, b)
        state["series"] = homotopy.loop_homology_series(expr, c)
        return expr, state["series"]

    def do_factors():
        factors = homotopy.loop_factors(N, b, c)
        state["ranks"] = rational.ranks_from_decomposition(factors, c)
        return factors, state["ranks"]

    def do_pi():
        factors = homotopy.loop_factors(N, b, PI_MAX[d] - 1)
        out = []
        for k in range(2, PI_MAX[d] + 1):
            try:
                out.append(groups.pi_manifold(factors, table, k).text())
            except UnsupportedError as exc:
                out.append(f"refused: {type(exc).__name__}")
                break
        return out

    return [
        Op(
            f"series d{d}",
            do_series,
            lambda r: (0, f"{homotopy.render(r[0])}\n{r[1]}\n"),
        ),
        Op(
            f"factors d{d}",
            do_factors,
            lambda r: (0, f"{r[0]}\nranks {r[1]}\n"),
            check=lambda code, text: milnor_moore(state["series"], state["ranks"]),
        ),
        Op(f"pi d{d}", do_pi, lambda lines: (0, "\n".join(lines) + "\n")),
    ]


def survey(rng: random.Random, root: Path, spec_dir: Path) -> list[Op]:
    specs = [d0_spec(rng, rng.choice(ks), f"survey d0 k{i}") for i, ks in enumerate(SURVEY_KS)]
    specs += [valid_spec(rng, d, f"survey d{d}") for d in SURVEY_DS]
    table = groups.load_table()
    expanded: dict[tuple[int, ...], Any] = {}

    def milnor_moore(loop_series, ranks) -> str | None:
        """Milnor-Moore: the loop homology is the PBW series of the ranks."""
        if ranks.dims not in expanded:
            expanded[ranks.dims] = series.pbw_expand(ranks, SURVEY_CUTOFF)
        if expanded[ranks.dims] != loop_series:
            return "pbw_expand(ranks) differs from loop_homology_series"
        return None

    chains = [
        _survey_ops(path.relative_to(root), spec.d, table, milnor_moore)
        for spec, path in zip(specs, write_specs(specs, spec_dir))
    ]
    rng.shuffle(chains)
    return [op for chain in chains for op in chain]


MAKE_PASS = {"desk": desk, "survey": survey}
