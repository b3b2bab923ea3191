"""Command-line front end.

Input files are JSON manifold specs, with these keys and no other::

    {"intersection_form": [[0, 1], [1, 0]], "w2": [0, 0], "p1": 8, "name": "..."}

The empty matrix ``[]`` means the base is the 4-sphere, in which case ``w2``
may be omitted and ``p1`` alone determines the bundle.  Reports are emitted
as deterministic text (default) or JSON (``--format json``, schema version
1).  Exit codes: 0 success, 1 usage error, 2 invalid input, 3 valid input
whose case is outside the supported range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import homotopy, rational
from .errors import InputError, LoopSixError, UnsupportedError
from .groups import load_table, pi_manifold
from .manifold import (
    BundleData,
    FourManifold,
    bundle_from_classes,
    cohomology_ring,
    is_spin,
    new_four_manifold,
)

SCHEMA_VERSION = 1

#: Most torsion summands (cyclic, of prime-power order, counted with
#: multiplicity) that ``pi`` renders over pi_2..pi_max.  The 1,267,838 of
#: d = 4 at ``--max 14`` take 0.014-0.017 s as text, 1.14-1.17 s as pure-
#: Python indented JSON (best of 3, 2-vCPU Xeon, Python 3.11): JSON sets it.
MAX_PI_SUMMANDS = 10**6


class TooManySummands(UnsupportedError):
    """pi_2..pi_max have more torsion summands than MAX_PI_SUMMANDS."""


#: Largest rank d of an intersection form.  Loading costs O(d^3) (the
#: determinant); at 192 the slowest command takes about 1 s (README).
MAX_RANK = 192


class RankTooLarge(UnsupportedError):
    """The intersection form has rank above MAX_RANK."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    #: on the top-level parser: each subcommand's name and parser
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A spec's JSON object, refused if a key repeats (``json.loads`` alone
    would keep the last value)."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise InputError(f"duplicate key {key!r}")
        data[key] = value
    return data


#: One decoder for every spec: ``json.loads`` with a hook builds one per call.
_SPEC_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_manifold_spec(path: str | Path) -> tuple[FourManifold, BundleData, str]:
    """Read and validate a manifold spec file; returns (N, bundle, name).

    A key given twice, at any level, and a top-level key other than
    ``intersection_form``, ``w2``, ``p1`` and ``name`` are invalid.
    """
    try:
        with open(path, "rb") as file:  # CR LF and CR read as LF, as in text mode
            text = file.read().decode().replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads' check, which decode lacks
            message = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise json.JSONDecodeError(message, text, 0)
        data = _SPEC_DECODER.decode(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # also non-UTF-8 bytes, integers past Python's digit limit for str
        # conversion, and nesting past the recursion limit
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in data:
        if key not in ("intersection_form", "w2", "p1", "name"):
            raise InputError(f"{path}: unknown key {key!r}")
    if "intersection_form" not in data:
        raise InputError(f"{path}: missing 'intersection_form'")
    # exact types: JSON true, 1.7 and "1" are not integers, 3 is not a w2 bit
    if "p1" not in data or type(data["p1"]) is not int:
        raise InputError(f"{path}: missing integer 'p1'")
    form = data["intersection_form"]
    if not isinstance(form, list) or any(not isinstance(r, list) for r in form):
        raise InputError(f"{path}: 'intersection_form' must be a matrix")
    if any(type(x) is not int for row in form for x in row):
        raise InputError(f"{path}: 'intersection_form' entries must be integers")
    if len(form) > MAX_RANK:
        raise RankTooLarge(f"{path}: the form has rank {len(form)}, above {MAX_RANK}")
    N = new_four_manifold(form)
    w2 = data.get("w2", [])
    if not isinstance(w2, list) or any(type(x) is not int or x not in (0, 1) for x in w2):
        raise InputError(f"{path}: 'w2' must be a list of 0/1")
    if N.d == 0 and w2 not in ([],):
        raise InputError(f"{path}: 'w2' must be empty when the form is empty")
    bundle = bundle_from_classes(N, w2, data["p1"])
    name = data["name"] if "name" in data else Path(path).stem
    if type(name) is not str:
        raise InputError(f"{path}: 'name' must be a string")
    return N, bundle, name


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _text(value: bool | Sequence[int]) -> str:
    """A bool or an int list in a text line, spelled as JSON spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"[{', '.join(map(str, value))}]"


# What a command body returns: its JSON result, its text lines, its warnings.
Output = tuple[dict[str, Any], list[str], list[str]]


def _one_spec(body: Callable[..., Output]):
    """A command on the spec ``args.manifold``: report and text open with
    its input block, whose attaching number ``k`` (d = 0) or Y-space report
    (d >= 1) goes on to ``body(args, N, b, case)``."""

    def command(args) -> tuple[dict[str, Any], list[str]]:
        N, b, name = load_manifold_spec(args.manifold)
        spin, w2, alpha = is_spin(b), list(b.w2), list(b.alpha)
        block = {
            "name": name,
            "d": N.d,
            "spin": spin,
            "w2": w2,
            "p1": b.p1,
            "alpha": alpha,
            "ell": b.ell,
        }
        lines = [
            f"name: {name}",
            f"d: {N.d}",
            f"spin: {_text(spin)}",
            f"w2: {_text(w2)}  p1: {b.p1}  alpha: {_text(alpha)}  ell: {b.ell}",
        ]
        if N.d == 0:
            case = block["k"] = abs(b.ell)
            lines.append(f"k: {case}")
        else:
            case = homotopy.y_space_report(N, b)
            block["case"], block["beta"] = case.case, list(case.beta)
            lines.append(f"case: {case.case} (beta = {_text(block['beta'])})")
        result, more, warnings = body(args, N, b, case)
        return {"input": block, "result": result, "warnings": warnings}, lines + more

    return command


def _d0_type(b: BundleData) -> tuple[str, str]:
    """(rational type, coformality) over the 4-sphere: CP^3 unless ell = 0."""
    return ("CP^3", "not_coformal") if b.ell else ("S^2 x S^4", "coformal")


@_one_spec
def _describe(args, N: FourManifold, b: BundleData, case) -> Output:
    elliptic = rational.is_rationally_elliptic(N, b)
    result: dict[str, Any] = {
        "betti": [1, N.d + 1, N.d + 1, 1],
        "form_determinant": N.determinant,
        "rationally_elliptic": elliptic,
    }
    if N.d == 0:
        rational_type, coformal = _d0_type(b)
        cells = f"S^2 u_[{case} eta] e^4 u e^6"
        circle = homotopy.analyze_circle_bundle(b)
        result["cell_structure"], result["rational_type"] = cells, rational_type
        result["circle_bundle_total_space"] = circle
        more = [
            f"cell structure: {cells}",
            f"rational type: {rational_type}",
            f"circle bundle total space: {circle['cells']}",
        ]
    else:
        coformal = rational.coformality_check(N, b).status
        result["y_space"] = {
            "beta": list(case.beta),
            "parity": case.parity,
            "case": case.case,
            "cells": case.y_cells,
            "route": case.route,
        }
        more = [
            f"Y-space: {case.y_cells} (pairing {case.parity}, case {case.case})",
            f"route: {case.route}",
        ]
    result["coformal"] = coformal
    lines = [
        f"betti: {_text(result['betti'])}",
        f"form determinant: {N.determinant}",
        f"rationally elliptic: {_text(elliptic)}",
        f"coformal: {coformal}",
    ]
    return result, lines + more, []


@_one_spec
def _decompose(args, N: FourManifold, b: BundleData, case) -> Output:
    expr = homotopy.decompose(N, b)
    expression = homotopy.render(expr)
    return (
        {"expression": expression, "ast": homotopy.ast_to_json(expr)},
        [f"decomposition: {expression}"],
        list(homotopy.extension_notes(N, b)),
    )


@_one_spec
def _pi(args, N: FourManifold, b: BundleData, case) -> Output:
    table = load_table(args.table)
    # Every spec has a loop-sphere factor of dimension <= 7, and the table
    # nothing past max_k, so pi_k fails by k = max(max_k, 7) + 1 at the
    # latest: no factor above that dimension is ever read.
    factors = homotopy.loop_factors(N, b, min(args.max, max(table.max_k, 7) + 1) - 1)
    groups = [pi_manifold(factors, table, k) for k in range(2, args.max + 1)]
    summands = sum(group.summands() for group in groups)
    if summands > MAX_PI_SUMMANDS:
        raise TooManySummands(
            f"pi_2..pi_{args.max} have {summands} torsion summands, more than "
            f"the {MAX_PI_SUMMANDS} that are rendered"
        )
    payloads, lines = [], []
    for k, group in enumerate(groups, start=2):
        text = group.text()
        if args.format == "json":  # one entry per summand: only JSON prints it
            payload = {
                "free_rank": group.free_rank,
                "invariant_factors": group.invariant_factors(),
                "text": text,
                "torsion": list(group.torsion),
            }
            payloads.append({"k": k, "group": payload})
        lines.append(f"pi_{k}(M) = {text}")
    cut = f"loop factor enumeration truncated at dimension {factors.cutoff + 1}"
    warnings = [cut] if factors.truncated else []
    result = {"max": args.max, "table": str(table.source), "groups": payloads}
    return result, lines, warnings


@_one_spec
def _series(args, N: FourManifold, b: BundleData, case) -> Output:
    series = homotopy.loop_homology_series(homotopy.decompose(N, b), args.cutoff)
    coeffs = list(series.integer_coefficients())
    text = ", ".join(str(c) for c in coeffs)
    return (
        {"cutoff": args.cutoff, "coefficients": coeffs, "series": text},
        [f"loop homology series (cutoff {args.cutoff}):", text],
        list(homotopy.extension_notes(N, b)),
    )


@_one_spec
def _rational(args, N: FourManifold, b: BundleData, case) -> Output:
    factors = homotopy.loop_factors(N, b, args.cutoff)
    ranks = rational.ranks_from_decomposition(factors, args.cutoff)
    elliptic = rational.is_rationally_elliptic(N, b)
    result: dict[str, Any] = {
        "cutoff": args.cutoff,
        "ranks": list(ranks.dims),
        "rationally_elliptic": elliptic,
    }
    warnings = list(homotopy.extension_notes(N, b))
    more = []
    if N.d == 0:
        coformal = _d0_type(b)[1]
    else:
        if N.d == 1:
            report = rational.coformality_check(N, b)
        else:
            # one Koszul check at the full cutoff, compared in every degree
            presentation = rational.quadratic_presentation(cohomology_ring(N, b))
            dual_ranks = rational.lie_dims(presentation, args.cutoff)
            report = rational._coformal_report(dual_ranks, ranks)
            result["koszul_ranks"] = list(dual_ranks.dims)
            result["two_path_agreement"] = True
            more = [
                f"koszul ranks: {_text(result['koszul_ranks'])}",
                "two-path agreement: true",
            ]
        coformal = report.status
        result["coformality_witness"] = report.witness
    result["coformal"] = coformal
    lines = [
        f"homotopy ranks (degrees 1..{args.cutoff}):",
        _text(result["ranks"]),
        f"rationally elliptic: {_text(elliptic)}",
        f"coformal: {coformal}",
    ]
    return result, lines + more, warnings


@_one_spec
def _koszul(args, N: FourManifold, b: BundleData, case) -> Output:
    presentation = rational.quadratic_presentation(cohomology_ring(N, b))
    hilbert = rational.hilbert_series(presentation, args.cutoff)
    result: dict[str, Any] = {
        "cutoff": args.cutoff,
        "generators": presentation.generators,
        "relation_count": presentation.relation_count,
        "hilbert": list(hilbert.integer_coefficients()),
    }
    lines = [
        f"generators: {presentation.generators}  "
        f"relations: {presentation.relation_count}",
        f"hilbert: {_text(result['hilbert'])}",
    ]
    warnings: list[str] = []
    if N.d == 1:
        naive = rational.koszul_dual_series(presentation, args.cutoff, check=False)
        result["naive_dual"] = list(naive.integer_coefficients())
        lines.append(f"naive dual: {_text(result['naive_dual'])}")
        warnings.append(
            "d = 1: the cohomology is not Koszul, so the naive dual series "
            "does not compute homotopy ranks (first divergence in degree 3)"
        )
    else:
        dual = rational.koszul_dual_series(presentation, args.cutoff)
        result["dual"] = list(dual.integer_coefficients())
        result["lie_dims"] = list(rational._koszul_ranks(presentation, args.cutoff).dims)
        lines.append(f"dual: {_text(result['dual'])}")
        lines.append(f"lie dims: {_text(result['lie_dims'])}")
    return result, lines, warnings


# Minimal models of the two rational types over the 4-sphere
_D0_MODELS = {
    "CP^3": ([("c", 2), ("z", 7)], {"z": {(4, 0): 1}}),
    "S^2 x S^4": (
        [("a", 2), ("b", 3), ("u", 4), ("v", 7)],
        {"b": {(2, 0, 0, 0): 1}, "v": {(0, 0, 2, 0): 1}},
    ),
}


def _render_model_term(term: dict[str, Any]) -> str:
    coeff = term["coefficient"]
    body = "*".join(
        (name if e == 1 else f"{name}^{e}")
        for name, e in sorted(term["exponents"].items())
    )
    if coeff == "1":
        return body
    return f"({coeff})*{body}"


@_one_spec
def _model(args, N: FourManifold, b: BundleData, case) -> Output:
    if N.d >= 2:
        presentation = rational.quadratic_presentation(cohomology_ring(N, b))
        dims = rational.lie_dims(presentation, args.cutoff)
        generators = {
            str(degree + 1): dims.dim(degree)
            for degree in range(1, args.cutoff + 1)
            if dims.dim(degree)
        }
        note = (
            "coformal: a purely quadratic model dual to the homotopy Lie "
            "algebra exists; only generator counts are computed here"
        )
        result: dict[str, Any] = {
            "quadratic": True,
            "generators_by_cohomological_degree": generators,
            "note": note,
        }
        pairs = ", ".join(f"deg {deg}: {count}" for deg, count in generators.items())
        lines = [f"generator counts: {pairs}", f"note: {note}"]
        hyperbolic = (
            f"hyperbolic range (d = {N.d} >= 3): generator counts grow; "
            f"listed through cohomological degree {args.cutoff + 1}"
        )
        return result, lines, [] if rational.is_rationally_elliptic(N, b) else [hyperbolic]
    if N.d == 1:
        k = rational.d1_model_parameter(b)
        model = rational.d1_model(k)
        note = "the cubic term dx=c^3 obstructs coformality"
        result = {"parameter_k": str(k), "quadratic": False, "note": note}
    else:
        rational_type = _d0_type(b)[0]
        model = rational.make_sullivan_model(*_D0_MODELS[rational_type])
        result = {"rational_type": rational_type}
    result["model"] = model_json = rational.model_to_json(model)
    result["cohomology"] = cohomology = rational.cdga_cohomology(model, 6)
    result["minimal"] = True
    gens = ", ".join(f"{g['name']}({g['degree']})" for g in model_json["generators"])
    lines = [f"generators: {gens}"]
    for name, terms in model_json["differential"].items():
        rendered = " + ".join(_render_model_term(t) for t in terms)
        lines.append(f"d({name}) = {rendered}")
    lines.append(f"cohomology: {_text(cohomology)}")
    if N.d == 1:
        lines.append(f"note: {note}")
    return result, lines, []


def _compare(args) -> tuple[dict[str, Any], list[str]]:
    Na, ba, name_a = load_manifold_spec(args.manifold_a)
    Nb, bb, name_b = load_manifold_spec(args.manifold_b)
    expr_a = homotopy.decompose(Na, ba)
    expr_b = homotopy.decompose(Nb, bb)
    structural = expr_a == expr_b
    # at d >= 1 the decomposition is a function of d: this is loop rigidity
    if Na.d >= 1 and Nb.d >= 1:
        criterion = "rank of H^2 (loop rigidity)"
    else:
        criterion = "normalized decomposition comparison"
    text_a, text_b = homotopy.render(expr_a), homotopy.render(expr_b)
    result = {
        "a": {"name": name_a, "d": Na.d, "expression": text_a},
        "b": {"name": name_b, "d": Nb.d, "expression": text_b},
        "structural_match": structural,
        "equivalent": structural,
        "criterion": criterion,
    }
    warnings = [*homotopy.extension_notes(Na, ba), *homotopy.extension_notes(Nb, bb)]
    lines = [
        f"A: {name_a} (d={Na.d}) -> {text_a}",
        f"B: {name_b} (d={Nb.d}) -> {text_b}",
        f"loop spaces equivalent: {_text(structural)}",
        f"criterion: {criterion}",
    ]
    return {"result": result, "warnings": warnings}, lines


def _int_in(lower: int, upper: int | None = None):
    """An argparse type: an integer from ``lower`` to ``upper`` (if given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
        if upper is not None and value > upper:
            raise argparse.ArgumentTypeError(f"must be at most {upper}, got {value}")
        return value

    return parse


@functools.cache  # one parser per process; parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="loopsix",
        description=(
            "Loop-space decompositions and rational homotopy of sphere-bundle "
            "6-manifolds over simply connected 4-manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, two_files: bool = False):
        p = sub.add_parser(name, help=help_text)
        if two_files:
            p.add_argument("manifold_a", help="JSON manifold spec")
            p.add_argument("manifold_b", help="JSON manifold spec")
        else:
            p.add_argument("manifold", help="JSON manifold spec")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="format"
        )
        p.set_defaults(handler=handler)
        return p

    add("describe", _describe, "input summary, ring data, case analysis")
    add("decompose", _decompose, "loop-space decomposition of the 6-manifold")
    p_pi = add("pi", _pi, "homotopy groups pi_2..pi_K assembled from sphere tables")
    p_pi.add_argument(
        "--max", type=_int_in(2), default=6, help="largest degree K (>= 2)"
    )
    p_pi.add_argument("--table", default=None, help="override the sphere table file")
    # --cutoff upper bounds (README, "Size bounds of --cutoff"): about 0.2 s
    # in process for the three Koszul-route commands, output size for series
    p_series = add("series", _series, "rational loop-homology series of the decomposition")
    p_series.add_argument("--cutoff", type=_int_in(0, 500), default=12)
    p_rational = add("rational", _rational, "rational homotopy ranks and coformality")
    p_rational.add_argument("--cutoff", type=_int_in(1, 150), default=10)
    p_koszul = add("koszul", _koszul, "Hilbert series and Koszul dual of the cohomology")
    p_koszul.add_argument("--cutoff", type=_int_in(0, 150), default=10)
    p_model = add("model", _model, "Sullivan model data")
    p_model.add_argument("--cutoff", type=_int_in(0, 150), default=8)
    add("compare", _compare, "loop-space equivalence of two inputs", two_files=True)
    parser.commands = sub.choices
    return parser


def emit_report(report: dict[str, Any], fmt: str, lines: Sequence[str] = ()) -> str:
    """Deterministic serialization of a report: its JSON, or its text lines."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "\n".join(lines) + "\n"


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)`` in one argparse pass: when
    ``argv[0]`` names a command, the rest goes straight to its parser."""
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:  # reported by the top-level parser, as parse_args does
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Run a command; returns (exit code, rendered report)."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        return 1, f"usage error: {exc}\n"
    try:
        fields, lines = args.handler(args)
        lines += [f"warning: {warning}" for warning in fields["warnings"]]
        code = 0
    except LoopSixError as exc:
        fields = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        lines = [f"error: {type(exc).__name__}: {exc}"]
        code = 3 if isinstance(exc, UnsupportedError) else 2
    report = {"schema": SCHEMA_VERSION, "command": args.command, **fields}
    return code, emit_report(report, args.format, [f"command: {args.command}", *lines])


def main(argv: list[str] | None = None) -> int:
    code, output = run(argv)
    stream = sys.stderr if code == 1 else sys.stdout
    stream.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
