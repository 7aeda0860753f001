"""Picklable run descriptions + the cached, fan-out grid executor.

A :class:`RunSpec` captures *everything* that determines one
``run_policy`` cell — app, policy, trace content, seed, core/worker
counts, policy kwargs, and (for DeepPower) the trained-agent artifact —
so the cell can execute in any process and its result can be addressed
by content.  :func:`run_grid` executes a list of specs through a
:class:`~repro.parallel.pool.ParallelMap` with an optional
:class:`~repro.parallel.cache.RunResultCache` in front.

Because every cell builds its own engine/RNG stack from the spec alone,
``run_grid(specs, jobs=8)`` is bitwise identical to
``run_grid(specs, jobs=1)`` — the determinism test in
``tests/test_parallel_grid.py`` asserts exactly that.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..server.metrics import RunMetrics
from ..workload.apps import get_app
from ..workload.trace import WorkloadTrace
from .cache import RunResultCache, file_digest
from .cells import GRID_POLICIES, grid_policy, policy_modules
from .pool import ParallelMap

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

def _extras_worker_completed(ctx, driver) -> np.ndarray:
    """Per-worker completed-request counts (a fine-grained determinism probe)."""
    return np.array([w.completed_count for w in ctx.server.workers])


def _extras_final_frequencies(ctx, driver) -> np.ndarray:
    """Per-core frequencies at run end."""
    return ctx.cpu.frequencies()


def _extras_event_count(ctx, driver) -> int:
    """Total simulation events processed (whole-trajectory fingerprint)."""
    return ctx.engine.processed_events


#: Name -> ``fn(ctx, driver)`` returning a *picklable* artifact.  Specs name
#: the collectors they want; everything here must be cheap and deterministic.
EXTRAS_COLLECTORS: Dict[str, Callable] = {
    "worker_completed": _extras_worker_completed,
    "final_frequencies": _extras_final_frequencies,
    "event_count": _extras_event_count,
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
        ``"baseline"`` / ``"retail"`` / ``"gemini"`` / ``"deeppower"``.
    trace:
        The exact workload trace to play (content enters the cache key).
    num_cores, seed, num_workers:
        Forwarded to ``run_policy``.
    policy_kwargs:
        Sorted ``(name, value)`` pairs for the policy constructor
        (e.g. ``(("use_turbo", False),)`` for Table 3's no-turbo baseline).
    agent_path, agent_seed:
        DeepPower only: the trained-agent ``.npz`` to load and the seed its
        config was tuned with.  The *file digest* enters the cache key, so
        retraining invalidates dependent cached evaluations.
    extras:
        Names from :data:`EXTRAS_COLLECTORS` to evaluate on the finished run.
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
    agent_path: Optional[str] = None
    agent_seed: int = 7
    extras: Tuple[str, ...] = ()
    label: str = ""
    trace_out: Optional[str] = None

    def execute(self) -> Tuple[RunMetrics, Dict[str, Any]]:
        """Run this cell from scratch (the generic spec protocol).

        ``run_grid`` accepts *any* spec object exposing ``execute()`` /
        ``imports()`` / ``cache_payload()`` / ``label`` / ``trace_out`` —
        e.g. the fleet's :class:`~repro.cluster.sim.FleetSpec` — so new
        grid shapes reuse the pool + cache machinery without touching it.
        """
        return execute_run_spec(self)

    def imports(self) -> Tuple[str, ...]:
        """Modules executing this cell imports (see :func:`run_grid`)."""
        return ("repro.experiments.runner", *policy_modules(self.policy))

    def cache_payload(self) -> dict:
        """Content entering the cache key (agent folded in by digest)."""
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
            "agent_digest": file_digest(self.agent_path) if self.agent_path else None,
            "agent_seed": self.agent_seed if self.agent_path else None,
            "extras": list(self.extras),
            "label": self.label,
        }


@dataclass
class GridOutcome:
    """Result of one grid cell (metrics + extras, or a captured error)."""

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

def _make_extras_fn(names: Sequence[str]):
    if not names:
        return None
    for name in names:
        if name not in EXTRAS_COLLECTORS:
            raise KeyError(
                f"unknown extras collector {name!r}; "
                f"available: {sorted(EXTRAS_COLLECTORS)}"
            )

    def extras_fn(ctx, driver):
        return {name: EXTRAS_COLLECTORS[name](ctx, driver) for name in names}

    return extras_fn


def execute_run_spec(spec: RunSpec) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Run one grid cell from scratch (fresh engine + RNGs) and summarise.

    This is the module-level worker function the process pool invokes; it
    must stay picklable and must derive *everything* from the spec.
    """
    from ..experiments.runner import run_policy
    from ..obs import Observability

    app = get_app(spec.app)
    kwargs = dict(spec.policy_kwargs)
    extras_fn = _make_extras_fn(spec.extras)
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
        if spec.policy == "deeppower":
            if spec.agent_path is None:
                raise ValueError("deeppower spec needs agent_path")
            from ..core.training import evaluate_deeppower
            from ..experiments.fig7_main import tuned_agent_setup

            agent, cfg = tuned_agent_setup(spec.agent_seed, app=app)
            agent.load(spec.agent_path)
            res = evaluate_deeppower(
                agent,
                app,
                spec.trace,
                num_cores=spec.num_cores,
                seed=spec.seed,
                config=cfg,
                num_workers=spec.num_workers,
                obs=obs,
            )
            # evaluate_deeppower's extras hold live runtime objects (engine,
            # controller); re-derive only the picklable collectors requested.
            extras: Dict[str, Any] = {}
            if extras_fn is not None:
                runtime = res.extras["runtime"]
                ctx = _RuntimeCtx(runtime)
                extras = extras_fn(ctx, runtime)
            return res.metrics, extras

        try:
            policy_cls = grid_policy(spec.policy)
        except KeyError:
            raise KeyError(
                f"unknown grid policy {spec.policy!r}; "
                f"available: {sorted(GRID_POLICIES) + ['deeppower']}"
            ) from None

        def driver_factory(ctx):
            return policy_cls(ctx, **kwargs)

        res = run_policy(
            driver_factory,
            app,
            spec.trace,
            spec.num_cores,
            seed=spec.seed,
            num_workers=spec.num_workers,
            extras_fn=extras_fn,
            obs=obs,
        )
        return res.metrics, res.extras
    finally:
        if obs is not None:
            obs.close()


class _RuntimeCtx:
    """Adapter exposing the ``ctx``-shaped attributes extras collectors use."""

    def __init__(self, runtime) -> None:
        self.server = runtime.server
        self.cpu = runtime.server.cpu
        self.engine = runtime.engine


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
    cache: Optional[RunResultCache] = None,
    trace_dir: Optional[str] = None,
) -> List[GridOutcome]:
    """Execute a grid of specs, in parallel and through the result cache.

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
