"""Per-layer tracing from outside the package.

Wrappers replace each layer function in every linkedkde namespace that
binds it (``from .x import y`` copies the reference, so patching only the
defining module would hide callers behind ``cli.main``). A span wrapper
records name, start, end, parent span and op id; its self time is its
duration minus the outer intervals of its child spans. Work counts come
from the arguments and results after the span ends. An allocation wrapper,
used on separate ops so its cost never reaches a self time, records the
``tracemalloc`` peak of the functions marked for it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PACKAGE = "linkedkde"


def _size(a) -> int:
    return int(np.size(a))


def _series_counts(a, res):
    from linkedkde.series_solver import truncation_bound

    carried = a["tr"].n_modes
    return {
        "point_modes": _size(a["x"]) * carried,
        "needed_modes": truncation_bound(a["t"], a["cfg"].truncation.tol),
        "carried_modes": carried,
    }


def _transform_counts(a, res):
    return {"sample_modes": _size(getattr(a["samples"], "values", a["samples"])) * (int(a["N"]) + 1)}


def _binned_steps(a, res):
    return {"steps": max(math.ceil(a["T"] / a["u"].grid.dt), 1)}


def _route(a, res):
    return {"route." + name: float(res.meta.get("propagator") == name) for name in ROUTES}


def _kde_pairs(a, res):
    grid = a["grid"]
    n = _size(getattr(a["samples"], "values", a["samples"]))
    return {"pairs": n * (1001 if grid is None else _size(grid.points))}


ROUTES = ("spectral", "symmetric", "expm_fallback")


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    counters: tuple[str, ...] = ()
    count: Callable | None = None
    alloc: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("series_solver", "eval_series_solution", ("point_modes", "mode_use_ratio"), _series_counts, alloc=True),
    Layer("series_solver", "empirical_transforms", ("sample_modes",), _transform_counts),
    Layer("bandwidth", "lscv_bandwidth", ("candidates",), lambda a, res: {"candidates": _size(a["t_grid"])}),
    Layer("bandwidth", "estimate_r"),
    Layer("bandwidth", "silverman_bandwidth"),
    Layer("heat_kernels", "eval_K1", ("points",), lambda a, res: {"points": _size(a["x"])}),
    Layer("heat_kernels", "eval_K1_dx", ("points",), lambda a, res: {"points": _size(a["x"])}),
    Layer("linked_kernel", "eval_linked_kernel", ("pairs",),
          lambda a, res: {"pairs": _size(np.broadcast(np.asarray(a["x"]), np.asarray(a["y"])))}),
    Layer("linked_kernel", "estimate_density", alloc=True),
    Layer("binned_solver", "backward_euler_evolve", ("steps",), _binned_steps),
    Layer("binned_solver", "bin_samples"),
    Layer("binned_solver", "matrix_exponential_evolve", tuple("route." + r for r in ROUTES), _route, alloc=True),
    Layer("binned_solver", "spectral_data"),
    Layer("targets", "sample_synthetic", ("samples",), lambda a, res: {"samples": int(a["n"])}),
    Layer("baselines", "gaussian_kde_baseline", ("pairs",), _kde_pairs),
    Layer("baselines", "cosine_kde"),
    Layer("metrics", "error_metrics"),
    Layer("experiments", "run_mise_experiment"),
    Layer("experiments", "linked_series_estimate"),
    Layer("cli", "main"),
)

# Whole-run figures reported next to the layers in a traced run.
TRACE_METRICS = (
    ("trace.op_wall_s", "s/op"),
    ("trace.overhead_s", "s/op"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("trace.absent_layers", "count"),
    ("trace.counter_failures", "count"),
)


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for layer in LAYERS:
        out[layer.name + ".calls"] = ("1/op", "lower")
        out[layer.name + ".self_s"] = ("s/op", "lower")
        out[layer.name + ".errors"] = ("1/op", "lower")
        for c in layer.counters:
            out[f"{layer.name}.{c}"] = ("ratio", "higher") if c == "mode_use_ratio" else ("1/op", "lower")
        if layer.alloc:
            out[layer.name + ".peak_alloc_mb"] = ("MB", "lower")
    for name, unit in TRACE_METRICS:
        out[name] = (unit, "lower")
    return out


@dataclass
class _Frame:
    span_id: int
    child_s: float = 0.0


@dataclass
class _AllocFrame:
    base: int
    peak: int = 0


@dataclass
class _Totals:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)
    peak_alloc: int = 0


class Tracer:
    """Installs and removes layer wrappers and keeps spans in memory."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.spans: list[tuple] = []
        self.totals = {layer.name: _Totals() for layer in layers}
        self.absent: list[str] = []
        self.counter_failures: dict[str, str] = {}
        self.op_id = -1
        self.op_self_s: dict[int, float] = {}
        self._stack: list[_Frame] = []
        self._alloc_stack: list[_AllocFrame] = []
        self._origin = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, Callable] = {}
        self._signatures: dict[str, inspect.Signature] = {}
        for layer in layers:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer.module}")
            except ImportError:
                mod = None
            fn = getattr(mod, layer.function, None)
            if callable(fn):
                self._originals[layer.name] = fn
                self._signatures[layer.name] = inspect.signature(fn)
            else:
                self.absent.append(layer.name)

    def install(self, mode: str) -> None:
        """Rebind wrappers everywhere the package binds a layer; mode is 'spans' or 'alloc'."""
        namespaces = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in self.layers:
            orig = self._originals.get(layer.name)
            if orig is None or (mode == "alloc" and not layer.alloc):
                continue
            wrapper = self._span_wrapper(layer, orig) if mode == "spans" else self._alloc_wrapper(layer, orig)
            for mod in namespaces:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _count(self, layer: Layer, args, kwargs, result) -> None:
        if layer.count is None:
            return
        try:
            bound = self._signatures[layer.name].bind(*args, **kwargs)
            bound.apply_defaults()
            counts = layer.count(bound.arguments, result)
        except Exception as exc:  # a refactored signature must not stop the run
            self.counter_failures[layer.name] = repr(exc)
            return
        acc = self.totals[layer.name].counts
        for key, val in counts.items():
            acc[key] = acc.get(key, 0) + val

    def _span_wrapper(self, layer: Layer, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            outer = time.perf_counter()
            parent = self._stack[-1].span_id if self._stack else -1
            frame = _Frame(span_id=len(self.spans))
            self.spans.append(None)  # reserve the id; filled in when the span ends
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end_span(layer, frame, parent, start, outer, failed=True)
                raise
            self._end_span(layer, frame, parent, start, outer, failed=False, call=(args, kwargs, result))
            return result

        return wrapper

    def _end_span(self, layer, frame, parent, start, outer, failed, call=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        own = (end - start) - frame.child_s
        totals = self.totals[layer.name]
        totals.calls += 1
        totals.self_s += own
        totals.errors += failed
        self.op_self_s[self.op_id] = self.op_self_s.get(self.op_id, 0.0) + own
        self.spans[frame.span_id] = (frame.span_id, layer.name, start - self._origin, end - self._origin, parent, self.op_id)
        if call is not None:
            self._count(layer, *call)
        if self._stack:
            self._stack[-1].child_s += time.perf_counter() - outer

    def _alloc_wrapper(self, layer: Layer, fn: Callable) -> Callable:
        totals = self.totals[layer.name]

        def wrapper(*args, **kwargs):
            frame = _AllocFrame(base=tracemalloc.get_traced_memory()[0])
            self._alloc_stack.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self._alloc_stack.pop()
                frame.peak = max(frame.peak, peak)
                totals.peak_alloc = max(totals.peak_alloc, frame.peak - frame.base)
                if self._alloc_stack:
                    outer = self._alloc_stack[-1]
                    outer.peak = max(outer.peak, frame.peak)

        return wrapper

    def metrics(self, traced_ops: int) -> dict[str, float]:
        """Per-op layer figures, averaged over the span-traced ops."""
        per_op = 1.0 / max(traced_ops, 1)
        out = {}
        for layer in self.layers:
            tot = self.totals[layer.name]
            out[layer.name + ".calls"] = tot.calls * per_op
            out[layer.name + ".self_s"] = tot.self_s * per_op
            out[layer.name + ".errors"] = tot.errors * per_op
            for c in layer.counters:
                if c == "mode_use_ratio":
                    carried = tot.counts.get("carried_modes", 0)
                    out[f"{layer.name}.{c}"] = tot.counts.get("needed_modes", 0) / carried if carried else 0.0
                else:
                    out[f"{layer.name}.{c}"] = tot.counts.get(c, 0) * per_op
            if layer.alloc:
                out[layer.name + ".peak_alloc_mb"] = tot.peak_alloc / 2**20
        return out
