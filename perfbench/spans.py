"""Per-layer spans recorded from outside the library.

The library calls its layers through module-level names (``trp`` calls
``strip_two_opt``, which calls ``tsp.two_opt``; ``harness`` calls
``sample_points``, ``ktsp_grid_scheme`` and so on).  :class:`Tracer` swaps
each traced function, wherever a ``routebench`` module binds it, for a shim
that records a span and restores the originals afterwards.  Spans stay in
memory until :meth:`Tracer.write`.

A layer's self time is its span's duration minus the time its child spans
occupy in it, shim bookkeeping included, so the tracer's own cost lands in
no layer.  Only the calling process is traced: spans inside pool workers,
and anything inside a function (2-opt moves, whether the move cap was hit),
cannot be seen from here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from time import perf_counter

import routebench
from routebench import core, fairness, harness, ktsp, trp, tsp


def _two_opt(args, result):
    ps, start = args
    return {"points": len(start), "in_len": core.route_length(start, ps), "out_len": result.length}


def _dp_states(n: int) -> int:
    return n * 2**n


def _ktsp_exact_states(args, result):
    ps, k = args
    return {"states": _dp_states(len(ps)) if k >= 4 else 0}  # k = 2, 3 are closed form


# (module, function, observer): the observer turns a call's positional
# arguments and result into exact counts, outside the timed span.
LAYERS = (
    (tsp, "two_opt", _two_opt),
    (tsp, "strip_tour", lambda a, r: {"points": len(a[0])}),
    (trp, "trp_apriori_scheme", lambda a, r: {"cells": len(r.cell_order)}),
    (ktsp, "ktsp_grid_scheme", lambda a, r: {"alpha": r.alpha_used}),
    (core, "cell_ids", None),
    (core, "sample_points", None),
    (fairness, "fair_ktsp_sample", lambda a, r: {"augmented": int(bool(r.augmented_cells))}),
    (fairness, "fairness_lp", lambda a, r: {"support": len(r.support)}),
    (tsp, "tsp_exact", lambda a, r: {"states": _dp_states(len(a[0]))}),
    (ktsp, "ktsp_exact", _ktsp_exact_states),
    (trp, "trp_exact", lambda a, r: {"states": _dp_states(len(a[0]))}),
    (harness, "run_experiment", None),
)

_MODULES = (routebench, core, tsp, ktsp, trp, fairness, harness)


def layer_name(module, func: str) -> str:
    return f"{module.__name__.rpartition('.')[2]}.{func}"


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into the span list, -1 at top level
    start: float = 0.0
    end: float = 0.0
    outer: float = 0.0  # time the shim held the caller, bookkeeping included
    counts: dict | None = None


class Tracer:
    """Records spans for :data:`LAYERS` while used as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, func, observe in LAYERS:
            original = getattr(module, func)
            shim = self._shim(layer_name(module, func), original, observe)
            for mod in _MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, shim)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _shim(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            entered = perf_counter()
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                span.counts = observe(args, result)
            span.outer = perf_counter() - entered
            return result

        return shim

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _mean(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


def _percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], batches: int) -> dict[str, float]:
    """Per-layer metrics, per batch: calls, self time and each layer's counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.outer
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    durations: dict[str, list[float]] = {}
    for span, children in zip(spans, child_time):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + (span.end - span.start) - children
        durations.setdefault(span.name, []).append(span.end - span.start)
        acc = counts.setdefault(span.name, {})
        for key, value in (span.counts or {}).items():
            acc[key] = acc.get(key, 0) + value

    out: dict[str, float] = {}
    for module, func, _ in LAYERS:
        name = layer_name(module, func)
        n_calls = calls.get(name, 0)
        c = counts.get(name, {})
        out[f"{name}.calls"] = n_calls / batches
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / batches
        if func == "two_opt":
            out[f"{name}.p50_ms"] = _percentile_ms(durations.get(name, []), 0.5)
            out[f"{name}.p90_ms"] = _percentile_ms(durations.get(name, []), 0.9)
            out[f"{name}.points_per_call"] = _mean(c.get("points", 0), n_calls)
            in_len = c.get("in_len", 0.0)
            out[f"{name}.gain"] = 1.0 - c.get("out_len", 0.0) / in_len if in_len else 0.0
        elif func == "strip_tour":
            out[f"{name}.points_per_call"] = _mean(c.get("points", 0), n_calls)
        elif func == "trp_apriori_scheme":
            out[f"{name}.cells_per_call"] = _mean(c.get("cells", 0), n_calls)
        elif func == "ktsp_grid_scheme":
            out[f"{name}.alpha_mean"] = _mean(c.get("alpha", 0), n_calls)
        elif func == "fair_ktsp_sample":
            out[f"{name}.augmented_frac"] = _mean(c.get("augmented", 0), n_calls)
        elif func == "fairness_lp":
            out[f"{name}.support"] = _mean(c.get("support", 0), n_calls)
        elif func.endswith("_exact"):
            out[f"{name}.states"] = c.get("states", 0) / batches
    return out
