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

import math
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

__all__ = [
    "FaultToleranceRow", "run_fault_tolerance", "render_fault_tolerance", "check_fault_tolerance",
    "FAULT_RATES",
]

#: Per-DVFS-write failure probabilities swept; 0.0 is the clean control run.
FAULT_RATES = (0.0, 0.01, 0.05)


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
    fault_rates: Sequence[float] = FAULT_RATES,
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


def check_fault_tolerance(rows: List[FaultToleranceRow]) -> List[str]:
    """The graceful-degradation claims that ``rows`` fails.

    The clean runs inject nothing and never fire the watchdog.  At the
    top rate faults flow, and the watchdog trips into the fallback
    governor and recovers from it.  The protected runtime's QoS and power
    stay finite and within a modest factor of its clean run: p99 within 2x
    max(clean p99, SLA), timeouts within 5 points, power within 2x.
    """
    policies = ("baseline", "retail", "gemini", "deeppower")
    by_cell = {(r.policy, r.rate): r for r in rows}
    if set(by_cell) != {(p, r) for p in policies for r in FAULT_RATES}:
        return [f"the sweep holds exactly the cells {policies} x {FAULT_RATES}"]
    top = max(FAULT_RATES)
    clean, worst = by_cell[("deeppower", 0.0)], by_cell[("deeppower", top)]
    cm, wm = clean.metrics, worst.metrics
    claims = [
        (f"{pol} clean run injects nothing (got {by_cell[(pol, 0.0)].injected})",
         by_cell[(pol, 0.0)].injected == 0)
        for pol in policies
    ]
    claims += [
        (f"clean DeepPower run: {clean.trips} watchdog trips and {clean.anomalies} anomalies == 0",
         clean.trips == 0 and clean.anomalies == 0),
        (f"faults injected at rate {top}: {worst.injected} > 0", worst.injected > 0),
        (f"watchdog trips at rate {top}: {worst.trips} >= 1", worst.trips >= 1),
        (f"watchdog recoveries at rate {top}: {worst.recoveries} >= 1", worst.recoveries >= 1),
        (f"fallback steps at rate {top}: {worst.fallback_steps} >= 1", worst.fallback_steps >= 1),
        (f"power at rate {top} is finite", math.isfinite(wm.avg_power_watts)),
        (f"p99 at rate {top} is finite", math.isfinite(wm.tail_latency)),
        (f"p99 at rate {top} {wm.tail_latency * 1e3:.2f} ms <= 2 x max(clean p99, SLA) "
         f"{max(cm.tail_latency, cm.sla) * 1e3:.2f} ms",
         wm.tail_latency <= 2.0 * max(cm.tail_latency, cm.sla)),
        (f"timeouts at rate {top} {wm.timeout_rate:.2%} <= clean {cm.timeout_rate:.2%} + 5 points",
         wm.timeout_rate <= cm.timeout_rate + 0.05),
        (f"power at rate {top} {wm.avg_power_watts:.2f} W <= 2 x clean {cm.avg_power_watts:.2f} W",
         wm.avg_power_watts <= 2.0 * cm.avg_power_watts),
    ]
    return [claim for claim, holds in claims if not holds]
