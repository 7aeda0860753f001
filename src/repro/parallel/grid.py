"""Picklable run descriptions + the cached, fan-out grid executor.

A :class:`RunSpec` captures *everything* that determines one
``run_policy`` cell — app, policy, trace content, seed, core/worker
counts, policy kwargs, (for DeepPower) the training cell of its agent,
and the fault plan armed on the node — so the cell can execute in any
process and its result can be addressed by content.  :func:`run_grid` executes a list of specs through a
:class:`~repro.parallel.pool.ParallelMap` with an optional
:class:`~repro.parallel.cache.RunResultCache` in front; it is the only
code that reads or writes that store.

Because every cell builds its own engine/RNG stack from the spec alone,
``run_grid(specs, jobs=8)`` is bitwise identical to
``run_grid(specs, jobs=1)`` — the determinism test in
``tests/test_parallel_grid.py`` asserts exactly that.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..server.metrics import RunMetrics
from ..sim.events import PRIORITY_LATE
from ..workload.apps import get_app
from ..workload.trace import WorkloadTrace
from .cache import RunResultCache, plan_digest, resolve_cache
from .cells import GRID_POLICIES, grid_policy, policy_modules
from .pool import ParallelMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.training import TrainSpec
    from ..faults.plan import FaultPlan

__all__ = [
    "RunSpec",
    "GridOutcome",
    "execute_run_spec",
    "run_grid",
    "grid_trace_path",
    "EXTRAS_COLLECTORS",
    "GRID_POLICIES",
]


# --------------------------------------------------------------------- extras
#
# A collector is called with the run's ``ctx`` once the policy is built and
# the fault plan armed, before anything starts, and returns the reader that
# the end of the run calls with the driver.  A reader returns picklable
# arrays and numbers only: a cell's extras are stored.


def _worker_completed(ctx):
    """Per-worker completed-request counts (a fine-grained determinism probe)."""
    return lambda driver: np.array([w.completed_count for w in ctx.server.workers])


def _final_frequencies(ctx):
    """Per-core frequencies at run end."""
    return lambda driver: ctx.cpu.frequencies()


def _event_count(ctx):
    """Total simulation events processed (whole-trajectory fingerprint)."""
    return lambda driver: ctx.engine.processed_events


def _step_series(ctx):
    """A DeepPower run's per-DRL-step series (Fig 8)."""

    def read(driver):
        recs = driver.records
        return {
            "time": np.array([r.time for r in recs]),
            "rps": np.array([r.rps for r in recs]),
            "power": np.array([r.power_watts for r in recs]),
            "actions": np.stack([r.action for r in recs]) if recs else np.zeros((0, 2)),
            "avg_frequency": np.array([r.avg_frequency for r in recs]),
        }

    return read


def _every_tick(ctx, read) -> Callable:
    """A reader of ``(times, rows)``: ``read()`` every ShortTime from t = 0,
    each taken after every same-time event (so after the controller's
    tick), through the drain tail."""
    times, rows = [], []

    def sample():
        times.append(ctx.engine.now)
        rows.append(read())

    ctx.engine.every(ctx.app.short_time, sample, start_delay=0.0, priority=PRIORITY_LATE)
    return lambda driver: (np.array(times), np.stack(rows) if rows else np.zeros((0, 0)))


def _freq_samples(ctx):
    """``(times, freqs)``: the worker cores' frequencies every ShortTime."""
    workers = ctx.server.num_workers
    return _every_tick(ctx, lambda: ctx.cpu.frequencies()[:workers])


def _begin_samples(ctx):
    """``(times, begins)``: the workers' in-flight request arrival times
    (Algorithm 1's BeginTimes, NaN while idle) every ShortTime."""
    return _every_tick(ctx, lambda: ctx.server.begin_times().copy())


def _request_spans(ctx):
    """Core, start and finish time of every completed request, in
    completion order (the server keeps its requests for this)."""
    ctx.server.metrics.keep_requests = True

    def read(driver):
        reqs = ctx.server.metrics.requests
        return {
            "core": np.array([r.core_id for r in reqs], dtype=int),
            "start": np.array([r.start_time for r in reqs], dtype=float),
            "finish": np.array([r.finish_time for r in reqs], dtype=float),
        }

    return read


def _fault_counts(ctx):
    """Faults the cell's plan delivered, and the watchdog's trips,
    recoveries, fallback steps and anomalies (0 without a watchdog)."""

    def read(driver):
        watchdog = getattr(driver, "watchdog", None)
        stats = watchdog.stats() if watchdog is not None else {}
        return {
            "injected": ctx.faults.total_injected if ctx.faults is not None else 0,
            "trips": stats.get("trips", 0),
            "recoveries": stats.get("recoveries", 0),
            "fallback_steps": stats.get("fallback_steps", 0),
            "anomalies": stats.get("total_anomalies", 0),
        }

    return read


#: Name -> ``collector(ctx) -> reader(driver)``.  Specs name the collectors
#: they want; everything here must be cheap and deterministic.
EXTRAS_COLLECTORS: Dict[str, Callable] = {
    "worker_completed": _worker_completed,
    "final_frequencies": _final_frequencies,
    "event_count": _event_count,
    "step_series": _step_series,
    "freq_samples": _freq_samples,
    "begin_samples": _begin_samples,
    "request_spans": _request_spans,
    "fault_counts": _fault_counts,
}


# ----------------------------------------------------------------------- spec

@dataclass(frozen=True)
class RunSpec:
    """One (app, policy, trace, seed) cell of an experiment grid.

    Parameters
    ----------
    app:
        App name from the catalog (``get_app``).
    policy:
        A :data:`GRID_POLICIES` name or ``"deeppower"``.
    trace:
        The exact workload trace to play (content enters the cache key).
    num_cores, seed, num_workers:
        Forwarded to ``run_policy``.
    policy_kwargs:
        Sorted ``(name, value)`` pairs for the policy constructor
        (e.g. ``(("use_turbo", False),)`` for Table 3's no-turbo baseline,
        or a ``controller``'s ``base_freq``/``scaling_coef``/``retune``);
        for DeepPower, overrides of the training cell's ``DeepPowerConfig``.
    training:
        DeepPower only: the :class:`~repro.core.training.TrainSpec` of the
        agent, with its trained arrays.  Its recipe enters the cache key,
        so a different agent never reuses a stored evaluation.
    extras:
        Names from :data:`EXTRAS_COLLECTORS` to attach to the run.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` armed on the node (sensor,
        actuator and telemetry) once the policy is built, before the run
        starts.  It enters the cache key by content; an empty plan keys
        like ``None``, since arming it changes nothing.
    label:
        Free-form tag folded into the cache key (profile name etc.).
    trace_out:
        Write a JSONL observability trace of the cell here.  Deliberately
        *excluded* from the cache key — the trace is a side artifact of
        executing the cell, not part of its result — but a traced cell
        always executes (a cache hit would produce no trace file).
    """

    app: str
    policy: str
    trace: WorkloadTrace
    num_cores: int
    seed: int
    num_workers: Optional[int] = None
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    training: Optional["TrainSpec"] = None
    extras: Tuple[str, ...] = ()
    fault_plan: Optional["FaultPlan"] = None
    label: str = ""
    trace_out: Optional[str] = None

    def execute(self) -> Tuple[RunMetrics, Dict[str, Any]]:
        """Run this cell from scratch (the generic spec protocol).

        ``run_grid`` accepts *any* spec object exposing ``execute()`` (which
        returns ``(result, extras)``) / ``imports()`` / ``cache_payload()`` /
        ``label`` / ``trace_out`` — e.g. ``FleetSpec``, ``CalibrationSpec``
        or ``TrainSpec`` — so new grid shapes reuse the pool + cache
        machinery without touching it.
        """
        return execute_run_spec(self)

    def imports(self) -> Tuple[str, ...]:
        """Modules executing this cell imports (see :func:`run_grid`)."""
        return ("repro.experiments.runner", *policy_modules(self.policy))

    def cache_payload(self) -> dict:
        """Content entering the cache key (the agent by its recipe)."""
        return {
            "kind": "run-spec",
            "app": self.app,
            "policy": self.policy,
            "trace_edges": self.trace.edges,
            "trace_rates": self.trace.rates,
            "num_cores": self.num_cores,
            "seed": self.seed,
            "num_workers": self.num_workers,
            "policy_kwargs": list(self.policy_kwargs),
            "training": self.training and self.training.cache_payload(),
            "extras": list(self.extras),
            "fault_plan": plan_digest(self.fault_plan),
            "label": self.label,
        }


@dataclass
class GridOutcome:
    """Result of one grid cell (result + extras, or a captured error);
    ``metrics`` holds the first value the spec's ``execute()`` returned."""

    spec: RunSpec
    metrics: Optional[RunMetrics] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> RunMetrics:
        if self.error is not None:
            raise RuntimeError(
                f"grid cell ({self.spec.app}, {self.spec.policy}, "
                f"seed={self.spec.seed}) failed:\n{self.error}"
            )
        assert self.metrics is not None
        return self.metrics


# ------------------------------------------------------------------ execution

def _policy_factory(spec: RunSpec) -> Callable:
    """``factory(ctx) -> driver`` of the spec's policy; DeepPower runs its
    trained agent frozen, with ``policy_kwargs`` overriding its config."""
    kwargs = dict(spec.policy_kwargs)
    if spec.policy == "deeppower":
        if spec.training is None:
            raise ValueError("deeppower spec needs its training cell")
        from ..core.runtime import DeepPowerRuntime

        agent = spec.training.agent()
        config = replace(spec.training.config, **kwargs, train=False)
        return lambda ctx: DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, agent, config, obs=ctx.obs
        )
    try:
        policy_cls = grid_policy(spec.policy)
    except KeyError:
        raise KeyError(
            f"unknown grid policy {spec.policy!r}; "
            f"available: {sorted(GRID_POLICIES) + ['deeppower']}"
        ) from None
    return lambda ctx: policy_cls(ctx, **kwargs)


def execute_run_spec(spec: RunSpec) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Run one grid cell from scratch (fresh engine + RNGs) and summarise.

    This is the module-level worker function the process pool invokes; it
    must stay picklable and must derive *everything* from the spec.
    """
    from ..experiments.runner import run_policy
    from ..obs import Observability

    for name in spec.extras:
        if name not in EXTRAS_COLLECTORS:
            raise KeyError(
                f"unknown extras collector {name!r}; "
                f"available: {sorted(EXTRAS_COLLECTORS)}"
            )
    make_policy = _policy_factory(spec)
    readers: Dict[str, Callable] = {}

    def driver_factory(ctx):
        driver = make_policy(ctx)
        if spec.fault_plan is not None:
            from ..faults.injectors import FaultHarness

            ctx.faults = FaultHarness(
                spec.fault_plan, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
                telemetry=ctx.server.telemetry,
            ).arm()
        readers.update((name, EXTRAS_COLLECTORS[name](ctx)) for name in spec.extras)
        return driver

    obs = None
    if spec.trace_out:
        obs = Observability.from_paths(
            trace_out=spec.trace_out,
            meta={
                "app": spec.app,
                "policy": spec.policy,
                "seed": spec.seed,
                "num_cores": spec.num_cores,
                "label": spec.label,
            },
        )
    try:
        res = run_policy(
            driver_factory,
            get_app(spec.app),
            spec.trace,
            spec.num_cores,
            seed=spec.seed,
            num_workers=spec.num_workers,
            extras_fn=lambda ctx, driver: {
                name: read(driver) for name, read in readers.items()
            },
            obs=obs,
        )
        return res.metrics, res.extras
    finally:
        if obs is not None:
            obs.close()


def _cell_worker(spec) -> Tuple[Any, Dict[str, Any]]:
    # Dispatch through the spec protocol so non-RunSpec cells (FleetSpec)
    # execute themselves; must stay module-level for pickling.
    return spec.execute()


def grid_trace_path(trace_dir: str, spec: RunSpec, index: int) -> str:
    """Canonical per-cell trace filename inside a grid ``trace_dir``."""
    tag = spec.label or spec.policy
    name = f"{index:03d}-{tag}-{spec.app}-seed{spec.seed}.trace.jsonl"
    return os.path.join(trace_dir, name.replace(os.sep, "_"))


def run_grid(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: "bool | RunResultCache | None" = None,
    trace_dir: Optional[str] = None,
) -> List[GridOutcome]:
    """Execute a grid of specs, in parallel and through the result cache.

    ``cache`` is a store, ``True`` for the store under ``REPRO_CACHE``, or
    ``None``/``False`` to read and write nothing.

    Cache hits never enter the pool; misses are executed (fanned out over
    ``jobs`` forked workers) and each is written back as soon as it
    finishes, so a grid killed part-way keeps every cell it completed.
    Failed cells produce :class:`GridOutcome` objects carrying the worker
    traceback — sibling results are unaffected and *not* cached-poisoned
    (errors are never stored).

    With ``trace_dir`` set, every cell writes a JSONL observability trace
    to ``grid_trace_path(trace_dir, spec, i)``.  Traced cells skip the
    cache *read* (a hit would skip execution and leave no trace file) but
    their results are still written back for untraced reruns.

    Before it forks, the parent imports every module the pending cells
    name in ``imports()``, so the workers inherit them compiled.

    Outcomes are returned in spec order regardless of completion order.
    """
    specs = list(specs)
    cache = resolve_cache(cache)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        specs = [
            spec if spec.trace_out
            else replace(spec, trace_out=grid_trace_path(trace_dir, spec, i))
            for i, spec in enumerate(specs)
        ]
    outcomes: List[Optional[GridOutcome]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec, Optional[str]]] = []

    for i, spec in enumerate(specs):
        key = cache.key(spec.cache_payload()) if cache is not None else None
        if key is not None and not spec.trace_out:
            hit = cache.get(key)
            if hit is not None:
                metrics, extras = hit
                outcomes[i] = GridOutcome(
                    spec=spec, metrics=metrics, extras=extras, from_cache=True
                )
                continue
        pending.append((i, spec, key))

    pool = ParallelMap(jobs=jobs)
    if pending and not pool.is_serial:
        # Forked workers inherit the parent's modules: import what the
        # cells execute here, once, rather than once in every worker.
        modules = {name for _, spec, _ in pending for name in spec.imports()}
        for name in sorted(modules):
            importlib.import_module(name)
    # Completion order varies with --jobs; the index places each cell.
    for item in pool.imap(_cell_worker, [spec for _, spec, _ in pending]):
        i, spec, key = pending[item.index]
        if item.ok:
            metrics, extras = item.value
            outcomes[i] = GridOutcome(spec=spec, metrics=metrics, extras=extras)
            if key is not None:
                cache.put(key, (metrics, extras))
        else:
            outcomes[i] = GridOutcome(spec=spec, error=item.error)

    return outcomes  # type: ignore[return-value]
