"""Outside-in tracer: spans and exact counters around ``loopsix`` layers.

Each layer is one module of the package.  :meth:`Tracer.install` wraps the
public functions of every layer, plus ``TruncatedSeries.__mul__``, and
rebinds each wrapper in every ``loopsix`` module namespace that holds the
original (``rational`` imports ``rref`` and ``pbw_invert`` directly, ``cli``
imports ``cohomology_ring``, and so on).  Nothing in the package is edited.

Spans ``[name, start, end, parent, op_id]`` are kept in memory and only
while an op is open (:meth:`Tracer.op`), so set-up and output checks are not
traced.  A span's self time is its duration minus that of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "manifold", "linalg", "series", "homotopy", "groups", "rational")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Open the root span of one op; layer spans nest under it."""
        self._op_id = op_id
        rec = [f"op.{kind}", perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._op_id = None

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1], tracer._op_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from loopsix import linalg, rational, series

        counts = {
            linalg.rref: _count_rref,
            rational.quadratic_dual_dims: _count_dual_check(rational.quadratic_dual_dims),
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"loopsix.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, counts.get(fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "loopsix" and not mod_name.startswith("loopsix."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        mul = series.TruncatedSeries.__mul__
        self._patch(series.TruncatedSeries, "__mul__", self._wrap("series.mul", mul, _count_mul))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, times in ms per op and counts per op."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        incl_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_ms[layer] += (end - start - child_time[i]) * 1000
            calls[name] += 1
            if not self._inside_same(i):
                incl_ms[name] += (end - start) * 1000
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms[layer] / ops
        out["manifold.calls"] = (
            sum(n for name, n in calls.items() if name.startswith("manifold.")) / ops
        )
        for name in (
            "linalg.rref",
            "series.mul",
            "homotopy.loop_factors",
            "groups.load_table",
            "rational.quadratic_dual_dims",
            "rational.lie_dims",
            "rational.coformality_check",
        ):
            out[f"{name}.calls"] = calls[name] / ops
        for name in (
            "cli.load_manifold_spec",
            "cli.emit_report",
            "series.pbw_invert",
            "series.series_reciprocal",
            "series.lie_ring_weight_counts",
            "homotopy.loop_factors",
            "homotopy.loop_homology_series",
            "homotopy.hilton_milnor",
            "groups.pi_manifold",
            "rational.quadratic_presentation",
            "rational.quadratic_dual_dims",
        ):
            out[f"{name}.ms"] = incl_ms[name] / ops
        c = self.counters
        out["linalg.rref.cells"] = c["linalg.rref.cells"] / ops
        out["linalg.max_cols"] = c["linalg.max_cols"]
        out["series.coeff_ops"] = c["series.coeff_ops"] / ops
        requested = c["rational.dual_check.requested"]
        out["rational.dual_check.coverage"] = (
            c["rational.dual_check.returned"] / requested if requested else 0.0
        )
        return out

    def _inside_same(self, i: int) -> bool:
        """Whether span ``i`` is nested in another span of the same name
        (recursion), so inclusive times are not counted twice."""
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def calls_by_op_kind(self, kinds: dict[int, str]) -> dict[str, dict[str, float]]:
        """Calls of each traced function per op, grouped by op kind."""
        per_kind: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        ops_of_kind: dict[str, int] = defaultdict(int)
        for op_id, kind in kinds.items():
            ops_of_kind[kind] += 1
        for name, _, _, parent, op_id in self.spans:
            if parent >= 0:
                per_kind[kinds[op_id]][name] += 1
        return {
            kind: {name: n / ops_of_kind[kind] for name, n in sorted(per_kind[kind].items())}
            for kind in sorted(ops_of_kind)
        }


def _count_rref(counters, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    cols = len(rows[0]) if rows else 0
    counters["linalg.rref.cells"] += len(rows) * cols
    counters["linalg.max_cols"] = max(counters["linalg.max_cols"], cols)


def _count_dual_check(fn):
    signature = inspect.signature(fn)

    def count(counters, args, kwargs, result) -> None:
        requested = signature.bind(*args, **kwargs).arguments["max_weight"]
        counters["rational.dual_check.requested"] += requested
        counters["rational.dual_check.returned"] += len(result) - 1

    return count


def _count_mul(counters, args, kwargs, result) -> None:
    n = result.cutoff
    counters["series.coeff_ops"] += (n + 1) * (n + 2) // 2
