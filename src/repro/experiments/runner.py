"""Generic experiment runner: (app x policy x workload) -> metrics.

Every evaluation in the paper is a run of one latency-critical application
under one power-management policy against one RPS trace, summarised by
power and latency statistics.  :func:`run_policy` builds the full simulated
stack (engine, socket, server, RAPL monitor, open-loop source), attaches a
policy driver, plays the trace, and returns a :class:`RunResult`.

A *policy driver* is any object with ``start()`` (and optionally ``stop()``)
created by a factory receiving the :class:`RunContext` — DeepPower's
runtime, every baseline in :mod:`repro.baselines`, and the plain cpufreq
governors all fit this shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..cpu.rapl import PowerMonitor
from ..cpu.topology import Cpu
from ..server.metrics import RunMetrics
from ..server.server import Server
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..workload.apps import AppSpec
from ..workload.arrivals import OpenLoopSource
from ..workload.trace import WorkloadTrace

__all__ = ["RunContext", "RunResult", "build_context", "run_policy"]


@dataclass
class RunContext:
    """Everything a policy driver may need to wire itself up."""

    engine: Engine
    cpu: Cpu
    server: Server
    monitor: PowerMonitor
    source: OpenLoopSource
    rngs: RngRegistry
    app: AppSpec
    trace: WorkloadTrace
    num_cores: int
    #: Optional :class:`~repro.obs.Observability` handle for this run.
    obs: Any = None
    #: The :class:`~repro.faults.injectors.FaultHarness` armed on this run.
    faults: Any = None


@dataclass
class RunResult:
    """Outcome of one run."""

    metrics: RunMetrics
    #: Driver-specific artifacts (step records, frequency traces, ...).
    extras: Dict[str, Any] = field(default_factory=dict)


def build_context(
    app: AppSpec,
    trace: WorkloadTrace,
    num_cores: int,
    seed: int,
    *,
    num_workers: Optional[int] = None,
    keep_requests: bool = False,
    obs: Any = None,
) -> RunContext:
    """Construct the simulated stack for one run (no policy attached)."""
    engine = Engine()
    rngs = RngRegistry(seed)
    cpu = Cpu(engine, num_cores)
    server = Server(
        engine, cpu, app, num_workers=num_workers, keep_requests=keep_requests
    )
    monitor = PowerMonitor(engine, cpu)
    source = OpenLoopSource(
        engine, trace, app.service, app.sla, server.submit, rngs.get("arrivals")
    )
    return RunContext(
        engine=engine,
        cpu=cpu,
        server=server,
        monitor=monitor,
        source=source,
        rngs=rngs,
        app=app,
        trace=trace,
        num_cores=num_cores,
        obs=obs,
    )


def run_policy(
    driver_factory: Callable[[RunContext], Any],
    app: AppSpec,
    trace: WorkloadTrace,
    num_cores: int,
    seed: int = 0,
    *,
    num_workers: Optional[int] = None,
    keep_requests: bool = False,
    drain_grace: Optional[float] = None,
    extras_fn: Optional[Callable[[RunContext, Any], Dict[str, Any]]] = None,
    obs: Any = None,
) -> RunResult:
    """Run one (app, policy, trace) experiment.

    Parameters
    ----------
    driver_factory:
        ``factory(ctx) -> driver``; ``driver.start()`` is called before the
        trace begins, ``driver.stop()`` (if present) after it ends.
    drain_grace:
        Extra virtual time after the trace to let in-flight requests finish
        (defaults to ``10 * SLA``).  Power/energy are measured strictly over
        the trace window; latency statistics include drained completions.
    extras_fn:
        Optional ``fn(ctx, driver) -> dict`` collecting driver artifacts.
    obs:
        Optional :class:`~repro.obs.Observability`.  The runner emits
        ``run-start`` / ``run-summary`` (and ``run-warning`` for
        degenerate zero-completion runs) into its trace and hands it to
        the driver factory via ``ctx.obs``; the caller owns its lifecycle
        (the runner flushes but never closes it).

    Returns
    -------
    RunResult
        Latency metrics joined with energy/power over the trace window.
    """
    ctx = build_context(
        app,
        trace,
        num_cores,
        seed,
        num_workers=num_workers,
        keep_requests=keep_requests,
        obs=obs,
    )
    trace_writer = obs.trace if obs is not None else None
    if trace_writer is not None:
        trace_writer.emit(
            "run-start",
            t=ctx.engine.now,
            app=app.name,
            trace_duration=trace.duration,
            num_cores=num_cores,
            seed=seed,
        )
    driver = driver_factory(ctx)
    if driver is not None and hasattr(driver, "start"):
        driver.start()
    ctx.source.start()

    duration = trace.duration
    ctx.engine.run_until(duration)

    # Power accounting stops at trace end: the paper reports power over the
    # workload window, not over the drain tail.  It reads the socket itself,
    # not the monitor, so injected sensor faults cannot reach the report.
    energy = ctx.monitor.true_energy()
    switches = ctx.cpu.total_switches()

    grace = drain_grace if drain_grace is not None else 10.0 * app.sla
    deadline = duration + grace
    # Event-stepped drain: advance one event at a time and stop the instant
    # the server empties.  The old chunked loop kept replaying controller
    # ticks for up to a whole chunk after the last completion (and idle
    # chunks when nothing was in flight); ticks after the final completion
    # cannot affect any recorded latency, and energy accounting closed at
    # the trace boundary above, so breaking early is metrics-identical.
    while ctx.server.drain_remaining() > 0:
        nxt = ctx.engine.next_event_time()
        if nxt is None or nxt > deadline:
            break
        ctx.engine.step()

    if driver is not None and hasattr(driver, "stop"):
        driver.stop()

    metrics = ctx.server.metrics.summarize(duration)
    metrics.energy_joules = energy
    metrics.avg_power_watts = energy / duration if duration > 0 else float("nan")
    metrics.dvfs_switches = switches

    if trace_writer is not None:
        if metrics.completed == 0:
            trace_writer.emit(
                "run-warning",
                t=ctx.engine.now,
                warning="zero-completions",
                message=(
                    "run finished without completing any request; latency "
                    "statistics are NaN and sla_met is False"
                ),
            )
        trace_writer.emit("run-summary", t=ctx.engine.now, metrics=metrics.as_dict())
    if obs is not None:
        obs.flush()

    extras: Dict[str, Any] = {}
    if extras_fn is not None:
        extras = extras_fn(ctx, driver)
    return RunResult(metrics=metrics, extras=extras)
