"""Command-line front end.

Input files are JSON manifold specs::

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
from typing import Any

from . import homotopy, rational
from .errors import InputError, LoopSixError, UnsupportedError
from .groups import load_table, pi_manifold
from .manifold import (
    BundleData,
    FourManifold,
    bundle_from_classes,
    cohomology_ring,
    d0_cell_structure,
    is_spin,
    loop_rigidity_equivalent,
    new_four_manifold,
)
from .series import pbw_invert

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def load_manifold_spec(path: str | Path) -> tuple[FourManifold, BundleData, str]:
    """Read and validate a manifold spec file; returns (N, bundle, name)."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
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
    N = new_four_manifold(form)
    w2 = data.get("w2", [])
    if not isinstance(w2, list) or any(type(x) is not int or x not in (0, 1) for x in w2):
        raise InputError(f"{path}: 'w2' must be a list of 0/1")
    if N.d == 0 and w2 not in ([],):
        raise InputError(f"{path}: 'w2' must be empty when the form is empty")
    bundle = bundle_from_classes(N, w2, data["p1"])
    name = str(data.get("name", Path(path).stem))
    return N, bundle, name


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _input_block(N: FourManifold, b: BundleData, name: str) -> dict[str, Any]:
    block: dict[str, Any] = {
        "name": name,
        "d": N.d,
        "spin": is_spin(b),
        "w2": list(b.w2),
        "p1": b.p1,
        "alpha": list(b.alpha),
        "ell": b.ell,
    }
    if N.d == 0:
        block["k"] = d0_cell_structure(b).k
    else:
        y = homotopy.y_space_report(N, b)
        block["case"] = y.case
        block["beta"] = list(y.beta)
    return block


def _new_report(command: str, **fields: Any) -> dict[str, Any]:
    report: dict[str, Any] = {"schema": SCHEMA_VERSION, "command": command}
    report.update(fields)
    report.setdefault("warnings", [])
    return report


def _group_payload(group) -> dict[str, Any]:
    return {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "invariant_factors": group.invariant_factors(),
        "text": group.text(),
    }


def _cmd_describe(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    result: dict[str, Any] = {
        "betti": [1, N.d + 1, N.d + 1, 1],
        "form_determinant": N.determinant,
        "rationally_elliptic": rational.is_rationally_elliptic(N, b),
    }
    warnings: list[str] = []
    if N.d == 0:
        k = d0_cell_structure(b).k
        result["cell_structure"] = f"S^2 u_[{k} eta] e^4 u e^6"
        result["rational_type"] = "CP^3" if k != 0 else "S^2 x S^4"
        result["coformal"] = "coformal" if k == 0 else "not_coformal"
        result["circle_bundle_total_space"] = homotopy.analyze_circle_bundle(b)
    else:
        y = homotopy.y_space_report(N, b)
        result["y_space"] = {
            "beta": list(y.beta),
            "parity": y.parity,
            "case": y.case,
            "cells": y.y_cells,
            "route": y.route,
        }
        result["coformal"] = rational.coformality_check(N, b).status
    return _new_report(
        "describe",
        input=_input_block(N, b, name),
        result=result,
        warnings=warnings,
    )


def _cmd_decompose(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    expr = homotopy.decompose(N, b)
    result = {
        "expression": homotopy.render(expr),
        "ast": homotopy.ast_to_json(expr),
    }
    return _new_report(
        "decompose",
        input=_input_block(N, b, name),
        result=result,
        warnings=list(homotopy.extension_notes(N, b)),
    )


def _cmd_pi(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    table = load_table(args.table)
    cutoff = max(args.max - 1, 1)
    factors = homotopy.loop_factors(N, b, cutoff)
    groups = []
    for k in range(2, args.max + 1):
        group = pi_manifold(factors, table, k)
        groups.append({"k": k, "group": _group_payload(group)})
    warnings = []
    if factors.truncated:
        warnings.append(
            f"loop factor enumeration truncated at dimension {factors.cutoff + 1}"
        )
    return _new_report(
        "pi",
        input=_input_block(N, b, name),
        result={"max": args.max, "table": str(table.source), "groups": groups},
        warnings=warnings,
    )


def _cmd_series(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    expr = homotopy.decompose(N, b)
    series = homotopy.loop_homology_series(expr, args.cutoff)
    coeffs = series.integer_coefficients()
    return _new_report(
        "series",
        input=_input_block(N, b, name),
        result={
            "cutoff": args.cutoff,
            "coefficients": list(coeffs),
            "series": ", ".join(str(c) for c in coeffs),
        },
        warnings=list(homotopy.extension_notes(N, b)),
    )


def _cmd_rational(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    factors = homotopy.loop_factors(N, b, args.cutoff)
    ranks = rational.ranks_from_decomposition(factors, args.cutoff)
    result: dict[str, Any] = {
        "cutoff": args.cutoff,
        "ranks": list(ranks.dims),
        "rationally_elliptic": rational.is_rationally_elliptic(N, b),
    }
    warnings = list(homotopy.extension_notes(N, b))
    checked = min(args.cutoff, 8)
    if N.d == 0:
        result["coformal"] = "coformal" if b.ell == 0 else "not_coformal"
    else:
        if N.d == 1:
            report = rational.coformality_check(N, b, cutoff=checked)
        else:
            # one Koszul check at the full cutoff; the witness reuses it
            presentation = rational.quadratic_presentation(cohomology_ring(N, b))
            dual_ranks = rational.lie_dims(presentation, args.cutoff)
            report = rational._coformal_report(
                dual_ranks.truncate(checked), ranks.truncate(checked), checked
            )
            result["koszul_ranks"] = list(dual_ranks.dims)
            result["two_path_agreement"] = dual_ranks == ranks
        result["coformal"] = report.status
        result["coformality_witness"] = report.witness
    return _new_report(
        "rational",
        input=_input_block(N, b, name),
        result=result,
        warnings=warnings,
    )


def _cmd_koszul(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    presentation = rational.quadratic_presentation(cohomology_ring(N, b))
    hilbert = rational.hilbert_series(presentation, args.cutoff)
    result: dict[str, Any] = {
        "cutoff": args.cutoff,
        "generators": presentation.generators,
        "relation_count": presentation.relation_count,
        "hilbert": list(hilbert.integer_coefficients()),
    }
    warnings: list[str] = []
    if N.d == 1:
        naive = rational.koszul_dual_series(presentation, args.cutoff, check=False)
        result["naive_dual"] = list(naive.integer_coefficients())
        warnings.append(
            "d = 1: the cohomology is not Koszul, so the naive dual series "
            "does not compute homotopy ranks (first divergence in degree 3)"
        )
    else:
        dual = rational.koszul_dual_series(presentation, args.cutoff)
        dims = pbw_invert(dual)
        result["dual"] = list(dual.integer_coefficients())
        result["lie_dims"] = list(dims.dims)
    return _new_report(
        "koszul",
        input=_input_block(N, b, name),
        result=result,
        warnings=warnings,
    )


def _cp3_model() -> rational.SullivanModel:
    return rational.make_sullivan_model(
        [("c", 2), ("z", 7)], {"z": {(4, 0): 1}}
    )


def _s2xs4_model() -> rational.SullivanModel:
    return rational.make_sullivan_model(
        [("a", 2), ("b", 3), ("u", 4), ("v", 7)],
        {"b": {(2, 0, 0, 0): 1}, "v": {(0, 0, 2, 0): 1}},
    )


def _cmd_model(args) -> dict[str, Any]:
    N, b, name = load_manifold_spec(args.manifold)
    warnings: list[str] = []
    if N.d == 1:
        k = rational.d1_model_parameter(b)
        model = rational.d1_model(k)
        result = {
            "model": rational.model_to_json(model),
            "parameter_k": str(k),
            "cohomology": rational.cdga_cohomology(model, 6),
            "minimal": True,
            "quadratic": False,
            "note": "the cubic term dx=c^3 obstructs coformality",
        }
    elif N.d == 0:
        model = _cp3_model() if b.ell != 0 else _s2xs4_model()
        result = {
            "model": rational.model_to_json(model),
            "rational_type": "CP^3" if b.ell != 0 else "S^2 x S^4",
            "cohomology": rational.cdga_cohomology(model, 6),
            "minimal": True,
        }
    else:
        presentation = rational.quadratic_presentation(cohomology_ring(N, b))
        dims = rational.lie_dims(presentation, args.cutoff)
        generators = {
            str(degree + 1): dims.dim(degree)
            for degree in range(1, args.cutoff + 1)
            if dims.dim(degree)
        }
        result = {
            "quadratic": True,
            "generators_by_cohomological_degree": generators,
            "note": (
                "coformal: a purely quadratic model dual to the homotopy Lie "
                "algebra exists; only generator counts are computed here"
            ),
        }
        if not rational.is_rationally_elliptic(N, b):
            warnings.append(
                f"hyperbolic range (d = {N.d} >= 3): generator counts grow; "
                f"listed through cohomological degree {args.cutoff + 1}"
            )
    return _new_report(
        "model",
        input=_input_block(N, b, name),
        result=result,
        warnings=warnings,
    )


def _cmd_compare(args) -> dict[str, Any]:
    Na, ba, name_a = load_manifold_spec(args.manifold_a)
    Nb, bb, name_b = load_manifold_spec(args.manifold_b)
    expr_a = homotopy.decompose(Na, ba)
    expr_b = homotopy.decompose(Nb, bb)
    structural = expr_a == expr_b
    result: dict[str, Any] = {
        "a": {"name": name_a, "d": Na.d, "expression": homotopy.render(expr_a)},
        "b": {"name": name_b, "d": Nb.d, "expression": homotopy.render(expr_b)},
        "structural_match": structural,
    }
    if Na.d >= 1 and Nb.d >= 1:
        by_rank = loop_rigidity_equivalent((Na, ba), (Nb, bb))
        result["equivalent"] = by_rank
        result["criterion"] = "rank of H^2 (loop rigidity)"
        if by_rank != structural:
            raise LoopSixError(
                "rigidity criterion disagrees with structural comparison"
            )
    else:
        result["equivalent"] = structural
        result["criterion"] = "normalized decomposition comparison"
    warnings = list(homotopy.extension_notes(Na, ba)) + list(
        homotopy.extension_notes(Nb, bb)
    )
    return _new_report("compare", result=result, warnings=warnings)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def emit_report(report: dict[str, Any], fmt: str) -> str:
    """Deterministic serialization of a report."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "\n".join(_text_lines(report)) + "\n"


def _fmt_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return str(value)


def _text_lines(report: dict[str, Any]) -> list[str]:
    lines = [f"command: {report['command']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err['type']}: {err['message']}")
        return lines
    if "input" in report:
        block = report["input"]
        lines.append(f"name: {block['name']}")
        lines.append(f"d: {block['d']}")
        lines.append(f"spin: {_fmt_scalar(block['spin'])}")
        lines.append(
            f"w2: {_fmt_scalar(block['w2'])}  p1: {block['p1']}  "
            f"alpha: {_fmt_scalar(block['alpha'])}  ell: {block['ell']}"
        )
        if "k" in block:
            lines.append(f"k: {block['k']}")
        if "case" in block:
            lines.append(f"case: {block['case']} (beta = {_fmt_scalar(block['beta'])})")
    command = report["command"]
    result = report.get("result", {})
    if command == "describe":
        lines.append(f"betti: {_fmt_scalar(result['betti'])}")
        lines.append(f"form determinant: {result['form_determinant']}")
        lines.append(
            f"rationally elliptic: {_fmt_scalar(result['rationally_elliptic'])}"
        )
        lines.append(f"coformal: {result['coformal']}")
        if "cell_structure" in result:
            lines.append(f"cell structure: {result['cell_structure']}")
            lines.append(f"rational type: {result['rational_type']}")
            lines.append(
                f"circle bundle total space: {result['circle_bundle_total_space']['cells']}"
            )
        if "y_space" in result:
            y = result["y_space"]
            lines.append(
                f"Y-space: {y['cells']} (pairing {y['parity']}, case {y['case']})"
            )
            lines.append(f"route: {y['route']}")
    elif command == "decompose":
        lines.append(f"decomposition: {result['expression']}")
    elif command == "pi":
        for entry in result["groups"]:
            lines.append(f"pi_{entry['k']}(M) = {entry['group']['text']}")
    elif command == "series":
        lines.append(f"loop homology series (cutoff {result['cutoff']}):")
        lines.append(result["series"])
    elif command == "rational":
        lines.append(f"homotopy ranks (degrees 1..{result['cutoff']}):")
        lines.append(_fmt_scalar(result["ranks"]))
        lines.append(
            f"rationally elliptic: {_fmt_scalar(result['rationally_elliptic'])}"
        )
        lines.append(f"coformal: {result['coformal']}")
        if "koszul_ranks" in result:
            lines.append(f"koszul ranks: {_fmt_scalar(result['koszul_ranks'])}")
            lines.append(
                f"two-path agreement: {_fmt_scalar(result['two_path_agreement'])}"
            )
    elif command == "koszul":
        lines.append(
            f"generators: {result['generators']}  relations: {result['relation_count']}"
        )
        lines.append(f"hilbert: {_fmt_scalar(result['hilbert'])}")
        if "dual" in result:
            lines.append(f"dual: {_fmt_scalar(result['dual'])}")
            lines.append(f"lie dims: {_fmt_scalar(result['lie_dims'])}")
        if "naive_dual" in result:
            lines.append(f"naive dual: {_fmt_scalar(result['naive_dual'])}")
    elif command == "model":
        if "model" in result:
            gens = ", ".join(
                f"{g['name']}({g['degree']})" for g in result["model"]["generators"]
            )
            lines.append(f"generators: {gens}")
            for name, terms in result["model"]["differential"].items():
                rendered = " + ".join(
                    _render_model_term(t) for t in terms
                )
                lines.append(f"d({name}) = {rendered}")
            lines.append(f"cohomology: {_fmt_scalar(result['cohomology'])}")
        if "generators_by_cohomological_degree" in result:
            pairs = ", ".join(
                f"deg {deg}: {count}"
                for deg, count in sorted(
                    result["generators_by_cohomological_degree"].items(),
                    key=lambda kv: int(kv[0]),
                )
            )
            lines.append(f"generator counts: {pairs}")
        if "note" in result:
            lines.append(f"note: {result['note']}")
    elif command == "compare":
        lines.append(
            f"A: {result['a']['name']} (d={result['a']['d']}) -> {result['a']['expression']}"
        )
        lines.append(
            f"B: {result['b']['name']} (d={result['b']['d']}) -> {result['b']['expression']}"
        )
        lines.append(f"loop spaces equivalent: {_fmt_scalar(result['equivalent'])}")
        lines.append(f"criterion: {result['criterion']}")
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    return lines


def _render_model_term(term: dict[str, Any]) -> str:
    coeff = term["coefficient"]
    body = "*".join(
        (name if e == 1 else f"{name}^{e}")
        for name, e in sorted(term["exponents"].items())
    )
    if coeff == "1":
        return body
    return f"({coeff})*{body}"


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _int_at_least(lower: int):
    """An argparse type: an integer that is at least ``lower``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
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

    def add(name: str, help_text: str, two_files: bool = False):
        p = sub.add_parser(name, help=help_text)
        if two_files:
            p.add_argument("manifold_a", help="JSON manifold spec")
            p.add_argument("manifold_b", help="JSON manifold spec")
        else:
            p.add_argument("manifold", help="JSON manifold spec")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="format"
        )
        return p

    add("describe", "input summary, ring data, case analysis")
    add("decompose", "loop-space decomposition of the 6-manifold")
    p_pi = add("pi", "homotopy groups pi_2..pi_K assembled from sphere tables")
    p_pi.add_argument(
        "--max", type=_int_at_least(2), default=6, help="largest degree K (>= 2)"
    )
    p_pi.add_argument("--table", default=None, help="override the sphere table file")
    p_series = add("series", "rational loop-homology series of the decomposition")
    p_series.add_argument("--cutoff", type=_int_at_least(0), default=12)
    p_rational = add("rational", "rational homotopy ranks and coformality")
    p_rational.add_argument("--cutoff", type=_int_at_least(1), default=10)
    p_koszul = add("koszul", "Hilbert series and Koszul dual of the cohomology")
    p_koszul.add_argument("--cutoff", type=_int_at_least(0), default=10)
    p_model = add("model", "Sullivan model data")
    p_model.add_argument("--cutoff", type=_int_at_least(0), default=8)
    add("compare", "loop-space equivalence of two inputs", two_files=True)
    return parser


_DISPATCH = {
    "describe": _cmd_describe,
    "decompose": _cmd_decompose,
    "pi": _cmd_pi,
    "series": _cmd_series,
    "rational": _cmd_rational,
    "koszul": _cmd_koszul,
    "model": _cmd_model,
    "compare": _cmd_compare,
}


def _error_report(command: str, exc: LoopSixError) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Run a command; returns (exit code, rendered report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return 1, f"usage error: {exc}\n"
    fmt = getattr(args, "format", "text")
    try:
        report = _DISPATCH[args.command](args)
    except UnsupportedError as exc:
        return 3, emit_report(_error_report(args.command, exc), fmt)
    except InputError as exc:
        return 2, emit_report(_error_report(args.command, exc), fmt)
    except LoopSixError as exc:
        return 2, emit_report(_error_report(args.command, exc), fmt)
    return 0, emit_report(report, fmt)


def main(argv: list[str] | None = None) -> int:
    code, output = run(argv)
    stream = sys.stderr if code == 1 else sys.stdout
    stream.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
