"""Fault-tolerance extension: policies under injected faults.

The paper evaluates every policy on clean hardware: RAPL counters that
never lie, DVFS writes that always land, telemetry that always arrives.
Production machines offer none of those guarantees.  This experiment
replays the Fig 7 evaluation while a :class:`~repro.faults.plan.FaultPlan`
injects sensor freezes, multi-wrap counter glitches, telemetry blackouts,
Gaussian read noise and silently failing / delayed DVFS writes, sweeping
the fault rate from zero upward.

DeepPower runs with its runtime watchdog enabled, so the table reports —
next to the usual power/P99/timeout columns — how many faults were
actually injected, how often the watchdog tripped into the safe fallback
governor, and how often it recovered.  The prediction baselines (ReTail,
Gemini) and the static max-frequency baseline face the same plans without
any protection, which is exactly the comparison of interest: graceful
degradation versus silent corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..analysis.reporting import format_table
from ..baselines.gemini import GeminiPolicy
from ..baselines.retail import RetailPolicy
from ..baselines.simple import MaxFrequencyPolicy
from ..core.runtime import DeepPowerRuntime
from ..faults.injectors import FaultHarness
from ..faults.plan import FaultPlan, standard_fault_plan
from ..server.metrics import RunMetrics
from ..workload.apps import get_app
from .fig7_main import EVAL_SEED, fig7_agents
from .runner import run_policy
from .scenarios import active_profile

__all__ = ["FaultToleranceRow", "run_fault_tolerance", "render_fault_tolerance"]


@dataclass(frozen=True)
class FaultToleranceRow:
    """One (policy, fault rate) cell of the sweep."""

    policy: str
    rate: float
    metrics: RunMetrics
    #: Faults the injectors actually delivered during the run.
    injected: int
    #: Watchdog trips / recoveries (0 for unprotected policies).
    trips: int
    recoveries: int
    fallback_steps: int
    anomalies: int


def _faulted(factory, plan: FaultPlan):
    """Wrap a driver factory so the run is armed with ``plan``.

    The harness is stashed on the context for ``_extras`` to collect.
    """

    def wrapped(ctx):
        driver = factory(ctx)
        ctx.fault_harness = FaultHarness(
            plan,
            ctx.engine,
            cpu=ctx.cpu,
            monitor=ctx.monitor,
            telemetry=ctx.server.telemetry,
        ).arm()
        return driver

    return wrapped


def _extras(ctx, driver):
    out = {"harness": getattr(ctx, "fault_harness", None)}
    if isinstance(driver, DeepPowerRuntime):
        out["runtime"] = driver
        out["watchdog"] = driver.watchdog
        out["records"] = driver.records
    return out


def _row(policy: str, rate: float, result) -> FaultToleranceRow:
    harness = result.extras.get("harness")
    wd = result.extras.get("watchdog")
    stats = wd.stats() if wd is not None else {}
    return FaultToleranceRow(
        policy=policy,
        rate=rate,
        metrics=result.metrics,
        injected=harness.total_injected if harness is not None else 0,
        trips=stats.get("trips", 0),
        recoveries=stats.get("recoveries", 0),
        fallback_steps=stats.get("fallback_steps", 0),
        anomalies=stats.get("total_anomalies", 0),
    )


def run_fault_tolerance(
    app_name: str = "xapian",
    fault_rates: Sequence[float] = (0.0, 0.01, 0.05),
    seed: int = 7,
    full: Optional[bool] = None,
    result_cache=True,
) -> List[FaultToleranceRow]:
    """Sweep fault rates over all policies; DeepPower runs watchdog-protected.

    ``fault_rates`` are per-DVFS-write failure probabilities; each rate also
    scales telemetry-drop probability, sensor noise, and enables the
    deterministic backbone of :func:`~repro.faults.plan.standard_fault_plan`
    (three telemetry blackouts, one RAPL freeze, one multi-wrap glitch).
    Rate 0 is the clean control run.
    """
    profile = active_profile(full)
    app = get_app(app_name)
    [(cal, training)] = fig7_agents(
        [app_name], profile, seed=seed, result_cache=result_cache
    )
    agent, nw, trace = training.agent(), training.num_workers, cal.trace
    dp_cfg = replace(
        training.config, train=False,
        control=replace(training.config.control, watchdog=True),
    )

    rows: List[FaultToleranceRow] = []
    for rate in fault_rates:
        plan = standard_fault_plan(
            rate, trace.duration, long_time=dp_cfg.long_time, seed=seed
        )
        policies = {
            "baseline": lambda ctx: MaxFrequencyPolicy(ctx),
            "retail": lambda ctx: RetailPolicy(ctx),
            "gemini": lambda ctx: GeminiPolicy(ctx),
            "deeppower": lambda ctx: DeepPowerRuntime(
                ctx.engine, ctx.server, ctx.monitor, agent, dp_cfg
            ),
        }
        for name, factory in policies.items():
            result = run_policy(
                _faulted(factory, plan), app, trace, profile.num_cores,
                seed=EVAL_SEED, num_workers=nw, extras_fn=_extras,
            )
            rows.append(_row(name, rate, result))
    return rows


def render_fault_tolerance(rows: List[FaultToleranceRow]) -> str:
    table = []
    for r in rows:
        sla = r.metrics.sla
        table.append([
            r.policy,
            f"{r.rate:.2%}",
            r.metrics.avg_power_watts,
            f"{r.metrics.tail_latency / sla:.2f}x",
            f"{r.metrics.timeout_rate:.2%}",
            r.injected,
            r.trips,
            r.recoveries,
        ])
    return format_table(
        ["policy", "fault rate", "power (W)", "p99/SLA", "timeout",
         "injected", "trips", "recoveries"],
        table,
        "{:.2f}",
    )
