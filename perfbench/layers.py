"""Span tracing of isoflow's layers from outside the package.

:class:`Tracer` swaps each traced function for a wrapper in every
``isoflow`` module namespace that binds it.  The program looks these
names up at call time, so calls between modules and within a module both
pass through the wrappers; nothing in ``src/`` changes.  Each call
becomes one span (name, start, end, parent) kept in flat arrays while
the run goes on and written out once it ends.

Private code cannot be wrapped: the banded step's time is the part of
``run_modified_flow`` that no child span covers, and the cell sweep's
time is the self time of ``measure_components``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# traced public functions per layer; None = every public function and
# method of the module
LAYERS = {
    "runner": ("run_plan",),
    "flow_levelset": ("run_modified_flow", "freeze_sweep", "reinitialize", "cfl_time_step"),
    "measure": ("measure_components", "label_regions", "mean_curvature_field"),
    "flow_ode": ("run_symmetric_flow", "step"),
    "metric": None,
    "profile": None,
    "mass": None,
}


def _layer_targets(layer: str, module) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for each function the layer traces.

    Owners are the module itself or one of its classes; methods keep
    their descriptor (classmethod, staticmethod) when wrapped.
    """
    names = LAYERS[layer]
    out = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and (names is None or name in names):
            out.append((module, name, value))
        elif inspect.isclass(value) and names is None:
            for attr, desc in vars(value).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(desc) or isinstance(desc, (classmethod, staticmethod)):
                    out.append((value, attr, desc))
    return out


@dataclass
class Counters:
    """Exact work counts gathered at layer boundaries during one run."""

    levelset_steps: int = 0
    levelset_dt: float = 0.0
    cfl_bound: float = math.nan
    sweeps_useful: int = 0
    mixed_cells: int = 0
    components: int = 0


def levelset_dt(dt: float | None, sample_interval: float, cfl_bound: float) -> float:
    """The step ``run_modified_flow`` takes: ``dt`` when set, else the CFL
    bound snapped so that the sample interval is a whole number of steps."""
    if dt is not None:
        return dt
    return sample_interval / math.ceil(sample_interval / cfl_bound)


def _mixed_cells(values: np.ndarray) -> int:
    inside = (values < 0.0).astype(np.int8)
    corners = inside[:-1, :-1] + inside[1:, :-1] + inside[:-1, 1:] + inside[1:, 1:]
    return int(np.count_nonzero((corners > 0) & (corners < 4)))


def _observe(name: str, traced, tracer: "Tracer"):
    """Wrap a traced function with the counting its layer needs."""
    counters = tracer.counters
    if name == "flow_levelset.cfl_time_step":

        def observed(*args, **kwargs):
            bound = traced(*args, **kwargs)
            counters.cfl_bound = bound
            return bound

    elif name == "flow_levelset.run_modified_flow":

        def observed(config):
            trace = traced(config)
            dt = levelset_dt(config.dt, config.sample_interval, counters.cfl_bound)
            counters.levelset_dt = dt
            # every run ends with a sample at its last step, t = steps * dt
            counters.levelset_steps += round(trace.samples[-1].t / dt)
            return trace

    elif name == "flow_levelset.freeze_sweep":

        def observed(state, *args, **kwargs):
            out = traced(state, *args, **kwargs)
            if len(out.components) != len(state.components) or out.frozen_count != state.frozen_count:
                counters.sweeps_useful += 1
            return out

    elif name == "measure.measure_components":

        def observed(metric, grid):
            # a whole-grid pass: its own span keeps it out of the caller's self time
            with tracer.aside():
                counters.mixed_cells += _mixed_cells(grid.values)
            out = traced(metric, grid)
            counters.components += len(out)
            return out

    else:
        return traced
    return functools.wraps(traced)(observed)


class Tracer:
    """Records a span for every call into the traced layers.

    Use as a context manager around one ``run_plan`` call; the wrappers
    are removed on exit, even when the run raises.
    """

    def __init__(self):
        self.names: list[str] = ["trace.observe"]  # id 0: the tracer's own counting
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counters()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    @contextlib.contextmanager
    def aside(self):
        """Time the tracer's own counting as a ``trace.observe`` span, so
        that it comes out of the enclosing span's self time."""
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "isoflow" or n.startswith("isoflow.")]
        for layer in LAYERS:
            module = sys.modules[f"isoflow.{layer}"]
            for owner, attr, original in _layer_targets(layer, module):
                qual = attr if owner is module else f"{owner.__name__}.{attr}"
                name = f"{layer}.{qual}"
                if isinstance(original, (classmethod, staticmethod)):
                    inner = _observe(name, self._span(name, original.__func__), self)
                    self._patch(owner, attr, type(original)(inner))
                    continue
                wrapped = _observe(name, self._span(name, original), self)
                if owner is not module:
                    self._patch(owner, attr, wrapped)
                    continue
                # every namespace that imported the function by name
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading the spans

    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total (inclusive) and self seconds per span name, and as
        ``layer:<name>`` per layer, whose total counts only its outermost
        spans, so that a layer calling into itself is not counted twice."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        layers = sorted({name.split(".", 1)[0] for name in self.names})
        name_layer = [layers.index(name.split(".", 1)[0]) for name in self.names]
        span_layer = [name_layer[k] for k in self.name_id]
        # bit mask of the layers among each span's ancestors; a parent is
        # always recorded before its children
        ancestors = [0] * len(span_layer)
        for i, p in enumerate(self.parent):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << span_layer[p])
        outermost = np.array([not (a >> b) & 1 for a, b in zip(ancestors, span_layer)], dtype=bool)
        span_layer = np.array(span_layer, dtype=np.int64)

        def entry(sel, total_sel) -> dict[str, float]:
            return {
                "calls": int(sel.sum()),
                "total_s": float(dur[total_sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }

        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = entry(sel, sel)
        for k, layer in enumerate(layers):
            sel = span_layer == k
            out[f"layer:{layer}"] = entry(sel, sel & outermost)
        return out

    def write_spans(self, path: str, origin: float) -> None:
        """One CSV row per span: name, start and end (s after ``origin``),
        and the parent's row index (-1 for none)."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("index,name,start_s,end_s,parent\n")
            names, nid, par, start, end = self.names, self.name_id, self.parent, self.start, self.end
            for i in range(len(start)):
                f.write(f"{i},{names[nid[i]]},{start[i] - origin:.9f},{end[i] - origin:.9f},{par[i]}\n")
