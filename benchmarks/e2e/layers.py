"""Outside-in per-layer timing of one simulator run.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` wraps, for
the duration of one run, the engine's event scheduling and a fixed list of
public calls (:data:`TIMED_METHODS`).  Every event callback and every
wrapped call becomes a span; a span's *self time* (its duration minus the
time its child spans cover) is credited to the layer of the module that
defines the code, so the self times of all spans under one root span sum
exactly to the root's wall time.

Event callbacks from a module outside :data:`LAYER_OF_MODULE` are credited
to ``other:<module>.<name>``; the worker fails the traced run when those
exceed 2 % of its wall time, so a refactor cannot silently move time out of
the per-layer account.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer; the longest matching prefix wins.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.workload": "workload",
    "repro.server": "server",
    "repro.cpu": "cpu",
    "repro.core.thread_controller": "controller",
    "repro.cluster.batch": "controller",
    "repro.core": "drl",
    "repro.rl": "drl",
    "repro.nn": "drl",
    "repro.cluster.dispatch": "dispatch",
    "repro.cluster.powercap": "powercap",
    "repro.hier": "hier",
    "repro.cluster.lifecycle": "lifecycle",
    "repro.faults": "lifecycle",
    "repro.obs": "obs",
    "repro.cluster.sim": "run",
    "repro.experiments": "run",
}

#: Every layer, in report order.  ``run`` also holds the root span's self
#: time: the benchmark's own code and whatever no other span covers.
LAYERS: Tuple[str, ...] = (
    "sim", "workload", "server", "cpu", "controller", "drl", "dispatch",
    "powercap", "hier", "lifecycle", "obs", "run",
)

#: Public calls timed as spans: (module, class, method).  The span is
#: credited to the layer of the class's module.
TIMED_METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Engine", "run_until"),
    ("repro.sim.engine", "Engine", "step"),
    ("repro.server.server", "Server", "submit"),
    ("repro.cluster.dispatch", "Dispatcher", "submit"),
    ("repro.cpu.topology", "Cpu", "set_frequencies"),
    ("repro.core.agent", "DeepPowerAgent", "act"),
    ("repro.core.agent", "DeepPowerAgent", "update"),
    ("repro.hier.agent", "FleetAgent", "act"),
    ("repro.hier.agent", "FleetAgent", "update"),
    ("repro.cluster.powercap", "PowerCapCoordinator", "apportion"),
    ("repro.hier.coordinator", "LearnedBudgetCoordinator", "apportion"),
    ("repro.obs.trace", "TraceWriter", "emit"),
    ("repro.server.metrics", "LatencyRecorder", "summarize"),
)

#: Public functions timed as spans, patched on the package that exports
#: them; generator functions are drained inside the span.
TIMED_FUNCTIONS: Tuple[Tuple[str, str, bool], ...] = (
    ("repro.obs", "summarize_fleet_trace", False),
    ("repro.obs", "trace_query", True),
)

#: Spans whose raw durations are kept, for percentiles and per-call totals.
SAMPLED_SPANS: Tuple[str, ...] = (
    "DeepPowerAgent.act",
    "DeepPowerAgent.update",
    "FleetAgent.act",
    "FleetAgent.update",
    "LatencyRecorder.summarize",
    "summarize_fleet_trace",
    "trace_query",
)

#: Engine events whose spans go into the span log.
LOG_EVENTS = 10_000


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module belongs to, or None when the map has no entry."""
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return None if best is None else best[1]


class LayerTracer:
    """Span stack with per-layer self-time accounting.

    ``clock`` is injectable so tests can check the arithmetic on a
    synthetic call tree.  :meth:`install` patches the simulator until
    :meth:`uninstall`; :meth:`span` can also be used directly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Layer -> accumulated self time (s).
        self.self_s: Dict[str, float] = {}
        #: Span name -> raw durations (s), only for :data:`SAMPLED_SPANS`.
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED_SPANS}
        #: Event callbacks run, events scheduled, ``Core.set_frequency`` calls.
        self.events = 0
        self.scheduled = 0
        self.dvfs_writes = 0
        #: Span log rows: [name, layer, start, end, parent row, request id].
        self.log: List[list] = []
        self._stack: List[list] = []
        self._callbacks: Dict[Any, Tuple[str, str]] = {}
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._periodic_fire: Any = None

    def clear_times(self) -> None:
        """Drop span times taken so far (set-up), keeping the counters."""
        self.self_s.clear()
        for samples in self.samples.values():
            samples.clear()
        self.log.clear()

    # ------------------------------------------------------------------ spans

    def span(self, layer: str, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """Call ``fn(*args, **kwargs)`` as a span credited to ``layer``."""
        clock = self.clock
        stack = self._stack
        row = -1
        t0 = clock()
        if self.events <= LOG_EVENTS:
            row = len(self.log)
            parent = stack[-1][1] if stack else -1
            req = next(
                (a.req_id for a in args if hasattr(a, "req_id")), None
            )
            self.log.append([name, layer, t0, None, parent, req])
        frame = [0.0, row]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            dur = t1 - t0
            stack.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[0]
            if stack:
                stack[-1][0] += dur
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(dur)
            if row >= 0:
                self.log[row][3] = t1

    def _run_event(self, layer: str, name: str, callback: Callable, *args: Any):
        self.events += 1
        return self.span(layer, name, callback, *args)

    def callback_layer(self, callback: Callable) -> Tuple[str, str]:
        """``(layer, name)`` for an event callback, by its defining module.

        A periodic task's ``_fire`` is unwrapped to the callback it drives.
        """
        func = getattr(callback, "__func__", None)
        if func is not None and func is self._periodic_fire:
            return self.callback_layer(callback.__self__._callback)
        code = func if func is not None else callback
        key = getattr(code, "__code__", code)
        hit = self._callbacks.get(key)
        if hit is None:
            module = getattr(code, "__module__", None) or "?"
            name = f"{module}.{getattr(code, '__qualname__', type(code).__name__)}"
            hit = (layer_of_module(module) or f"other:{name}", name)
            self._callbacks[key] = hit
        return hit

    # ----------------------------------------------------------------- report

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, with every unmapped callback summed in
        ``other``."""
        out = {layer: 0.0 for layer in LAYERS}
        out["other"] = 0.0
        for layer, secs in self.self_s.items():
            key = "other" if layer.startswith("other:") else layer
            out[key] = out.get(key, 0.0) + secs
        return out

    def other_callbacks(self) -> Dict[str, float]:
        """Self time of each callback outside the layer map, by name."""
        return {
            layer[len("other:"):]: secs
            for layer, secs in self.self_s.items()
            if layer.startswith("other:")
        }

    def write_log(self, path: str) -> None:
        """Write the span log as JSON lines, times relative to the first span."""
        origin = self.log[0][2] if self.log else 0.0
        with open(path, "w") as f:
            for i, (name, layer, start, end, parent, req) in enumerate(self.log):
                f.write(json.dumps({
                    "id": i,
                    "name": name,
                    "layer": layer,
                    "start": start - origin,
                    "end": None if end is None else end - origin,
                    "parent": None if parent < 0 else parent,
                    "req": req,
                }) + "\n")

    # ---------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap engine scheduling, :data:`TIMED_METHODS` and :data:`TIMED_FUNCTIONS`.

        Call before the run's objects are built: bound methods captured at
        construction (an arrival source's sink) must already be wrapped.
        """
        from repro.cpu.core import Core
        from repro.sim.engine import Engine, PeriodicTask

        tracer = self
        self._periodic_fire = PeriodicTask._fire
        schedule_at = Engine.schedule_at

        @functools.wraps(schedule_at)
        def traced_schedule_at(engine, at, callback, *args, **kwargs):
            tracer.scheduled += 1
            layer, name = tracer.callback_layer(callback)
            return schedule_at(
                engine, at, tracer._run_event, layer, name, callback, *args,
                **kwargs,
            )

        set_frequency = Core.set_frequency

        @functools.wraps(set_frequency)
        def counted_set_frequency(core, freq, *, quantize=True):
            tracer.dvfs_writes += 1
            return set_frequency(core, freq, quantize=quantize)

        self._patch(Engine, "schedule_at", traced_schedule_at)
        self._patch(Core, "set_frequency", counted_set_frequency)
        for module, cls_name, method in TIMED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._timed(
                getattr(cls, method), layer_of_module(module),
                f"{cls_name}.{method}",
            ))
        for module, func, drain in TIMED_FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, func, self._timed(
                getattr(owner, func), layer_of_module(module), func, drain,
            ))

    def uninstall(self) -> None:
        """Restore everything :meth:`install` patched (idempotent)."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _timed(self, fn: Callable, layer: str, name: str, drain: bool = False):
        span = self.span
        target = (lambda *a, **k: list(fn(*a, **k))) if drain else fn

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return span(layer, name, target, *args, **kwargs)

        return timed
