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
from ..faults.plan import standard_fault_plan
from ..parallel.grid import RunSpec, run_grid
from ..server.metrics import RunMetrics
from .fig7_main import EVAL_SEED, FIG7_POLICIES, fig7_agents
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


def run_fault_tolerance(
    app_name: str = "xapian",
    fault_rates: Sequence[float] = FAULT_RATES,
    seed: int = 7,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=True,
) -> List[FaultToleranceRow]:
    """Sweep fault rates over all policies; DeepPower runs watchdog-protected.

    ``fault_rates`` are per-DVFS-write failure probabilities; each rate also
    scales telemetry-drop probability, sensor noise, and enables the
    deterministic backbone of :func:`~repro.faults.plan.standard_fault_plan`
    (three telemetry blackouts, one RAPL freeze, one multi-wrap glitch).
    Rate 0 is the clean control run.  Every (rate, policy) pair is a stored
    run cell.
    """
    profile = active_profile(full)
    [(cal, training)] = fig7_agents(
        [app_name], profile, seed=seed, jobs=jobs, result_cache=result_cache
    )
    trace = cal.trace
    watchdog = (("control", replace(training.config.control, watchdog=True)),)
    cells = [(rate, policy) for rate in fault_rates for policy in FIG7_POLICIES]
    specs = [
        RunSpec(
            app_name, policy, trace, profile.num_cores, seed=EVAL_SEED,
            num_workers=training.num_workers,
            policy_kwargs=watchdog if policy == "deeppower" else (),
            training=training if policy == "deeppower" else None,
            extras=("fault_counts",),
            fault_plan=standard_fault_plan(
                rate, trace.duration, long_time=training.config.long_time, seed=seed
            ),
        )
        for rate, policy in cells
    ]
    return [
        FaultToleranceRow(policy, rate, run.unwrap(), **run.extras["fault_counts"])
        for (rate, policy), run in zip(cells, run_grid(specs, jobs=jobs, cache=result_cache))
    ]


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
    max(clean p99, SLA), timeouts within 5 points.  Every policy's reported
    power at the top rate stays within 2x its clean run: sensor faults
    corrupt what a policy reads, never the energy the run reports.
    """
    policies = FIG7_POLICIES
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
    ]
    for pol in policies:
        cold, hot = (by_cell[(pol, r)].metrics.avg_power_watts for r in (0.0, top))
        claims.append(
            (f"{pol} power at rate {top} {hot:.2f} W <= 2 x clean {cold:.2f} W", hot <= 2.0 * cold)
        )
    return [claim for claim, holds in claims if not holds]
