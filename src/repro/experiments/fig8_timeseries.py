"""Fig 8: DeepPower's per-second behaviour on Xapian over the workload.

Four aligned series from an evaluation run of a trained agent: RPS, socket
power, the two actions (BaseFreq, ScalingCoef), and the average worker
frequency.  Shapes to verify against the paper: power tracks RPS; the
agent raises ScalingCoef under high load and keeps BaseFreq moderate; the
average frequency correlates with load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.reporting import sparkline
from ..core.training import evaluate_deeppower
from ..workload.apps import get_app
from .fig7_main import fig7_agents
from .scenarios import active_profile

__all__ = ["Fig8Result", "run_fig8", "render_fig8"]


@dataclass(frozen=True)
class Fig8Result:
    app: str
    times: np.ndarray
    rps: np.ndarray
    power: np.ndarray
    base_freq: np.ndarray
    scaling_coef: np.ndarray
    avg_frequency: np.ndarray
    corr_power_rps: float
    corr_action_rps: float


def run_fig8(
    app_name: str = "xapian",
    seed: int = 7,
    full: Optional[bool] = None,
    result_cache=True,
) -> Fig8Result:
    profile = active_profile(full)
    [(cal, training)] = fig7_agents([app_name], profile, seed=seed, result_cache=result_cache)
    run = evaluate_deeppower(
        training.agent(), get_app(app_name), cal.trace,
        num_cores=profile.num_cores, seed=99, config=training.config,
        num_workers=training.num_workers,
    )
    recs = run.extras["records"]
    times = np.array([r.time for r in recs])
    rps = np.array([r.rps for r in recs])
    power = np.array([r.power_watts for r in recs])
    actions = np.stack([r.action for r in recs])
    avg_f = np.array([r.avg_frequency for r in recs])

    def _corr(a, b):
        return float(np.corrcoef(a, b)[0, 1]) if len(a) > 2 else 0.0

    return Fig8Result(
        app=app_name,
        times=times,
        rps=rps,
        power=power,
        base_freq=actions[:, 0],
        scaling_coef=actions[:, 1],
        avg_frequency=avg_f,
        corr_power_rps=_corr(power, rps),
        corr_action_rps=_corr(actions[:, 0] + actions[:, 1], rps),
    )


def render_fig8(r: Fig8Result) -> str:
    return "\n".join(
        [
            f"{r.app}: {len(r.times)} DRL steps",
            "rps    : " + sparkline(r.rps, 100),
            "power  : " + sparkline(r.power, 100),
            "BaseFrq: " + sparkline(r.base_freq, 100),
            "ScalCof: " + sparkline(r.scaling_coef, 100),
            "avgFreq: " + sparkline(r.avg_frequency, 100),
            f"corr(power, rps) = {r.corr_power_rps:.2f}   "
            f"corr(actions, rps) = {r.corr_action_rps:.2f}",
        ]
    )
