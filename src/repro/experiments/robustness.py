"""Robustness extension: flash-crowd (MMPP) and closed-loop workloads.

The paper trains and evaluates under open-loop diurnal Poisson traffic.
Two distribution shifts probe whether the learned policy generalises:

* **MMPP bursts** — calm/burst alternation with abrupt rate jumps (flash
  crowds).  DeepPower's state (NumReq, queue composition) refreshes every
  second and the thread controller reacts per millisecond, so the claim
  under test is that the *trained* agent degrades gracefully off its
  training distribution versus the static-profile prediction baselines.
* **Closed loop** — a fixed client population self-throttles under
  queueing, inverting the open-loop tail dynamics.

Both reuse the stored Fig 7 agent (no retraining on the shifted
distribution — that is the point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.reporting import format_table
from ..parallel.grid import RunSpec, run_grid
from ..server.metrics import RunMetrics
from ..sim.rng import RngRegistry
from ..workload.burst import mmpp_trace
from .fig7_main import FIG7_POLICIES, fig7_agents
from .scenarios import active_profile

__all__ = ["RobustnessRow", "run_mmpp_robustness", "render_robustness"]


@dataclass(frozen=True)
class RobustnessRow:
    policy: str
    metrics: RunMetrics
    saving_vs_baseline: float


def run_mmpp_robustness(
    app_name: str = "xapian",
    burst_ratio: float = 2.5,
    seed: int = 7,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=True,
) -> Dict[str, RobustnessRow]:
    """Evaluate all policies under a flash-crowd MMPP arrival process.

    The MMPP's mean rate matches the diurnal calibration (same average
    load); bursts run at ``burst_ratio`` times the calm rate with dwell
    times of a few seconds, far more abrupt than the training trace.
    """
    profile = active_profile(full)
    # Calibrate on the standard diurnal workload (= training conditions).
    [(cal, training)] = fig7_agents(
        [app_name], profile, seed=seed, result_cache=result_cache
    )

    # Build an MMPP with the same mean rate: calm/burst around the mean.
    mean_rate = cal.trace.mean_rate()
    # time-weighted mean with exponential dwell means 4:1 calm:burst
    calm_dwell, burst_dwell = 8.0, 2.0
    w_calm = calm_dwell / (calm_dwell + burst_dwell)
    calm_rate = mean_rate / (w_calm + (1 - w_calm) * burst_ratio)
    burst_rate = calm_rate * burst_ratio
    rngs = RngRegistry(seed + 555)
    trace = mmpp_trace(
        rngs.get("mmpp"), duration=profile.trace_duration,
        calm_rate=calm_rate, burst_rate=burst_rate,
        mean_calm=calm_dwell, mean_burst=burst_dwell,
    )

    outcomes = run_grid(
        [
            RunSpec(
                app_name, pol, trace, profile.num_cores, seed=999,
                num_workers=training.num_workers,
                training=training if pol == "deeppower" else None,
            )
            for pol in FIG7_POLICIES
        ],
        jobs=jobs, cache=result_cache,
    )
    runs: Dict[str, RunMetrics] = {
        pol: out.unwrap() for pol, out in zip(FIG7_POLICIES, outcomes)
    }

    base_p = runs["baseline"].avg_power_watts
    return {
        pol: RobustnessRow(pol, m, 1.0 - m.avg_power_watts / base_p)
        for pol, m in runs.items()
    }


def render_robustness(results: Dict[str, RobustnessRow]) -> str:
    rows = []
    sla = None
    for r in results.values():
        sla = r.metrics.sla
        rows.append([
            r.policy,
            r.metrics.avg_power_watts,
            f"{r.saving_vs_baseline:.1%}",
            f"{r.metrics.tail_latency / sla:.2f}x",
            f"{r.metrics.timeout_rate:.2%}",
        ])
    return format_table(
        ["policy", "power (W)", "saving", "p99/SLA", "timeout"], rows, "{:.2f}"
    )
