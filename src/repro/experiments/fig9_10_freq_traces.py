"""Figs 9 & 10: per-core frequency traces under each power manager.

The paper visualises a short window of per-core frequency for Xapian
(millisecond scale, Fig 9) and Sphinx (second scale, Fig 10) under
DeepPower, ReTail and Gemini.  DeepPower shows gradual within-request
ramps; ReTail/Gemini show piecewise-constant per-request levels with
bang-bang boosts.

We quantify the visual with two statistics per policy:

* ``levels_per_request`` — distinct frequency levels a core visits while
  serving one request (DeepPower >> 1, prediction baselines ~1-2);
* ``turbo_fraction`` — fraction of busy time spent at turbo (baselines
  boost to max often; DeepPower rarely saturates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..analysis.reporting import format_table, sparkline
from ..cpu.dvfs import DEFAULT_TABLE
from ..parallel.grid import RunSpec, run_grid
from .fig7_main import fig7_agents
from .fig8_timeseries import DEEPPOWER_EXTRAS
from .scenarios import active_profile

__all__ = [
    "FreqTraceResult",
    "run_freq_traces",
    "run_fig9",
    "run_fig10",
    "render_freq_traces",
    "check_fig9",
    "check_fig10",
]


@dataclass(frozen=True)
class FreqTraceResult:
    app: str
    policy: str
    #: (ticks, cores) sampled frequency matrix over the recorded window.
    times: np.ndarray
    freqs: np.ndarray
    levels_per_request: float
    turbo_fraction: float
    mean_frequency: float


def _turbo_fraction(freqs: np.ndarray, turbo: float) -> float:
    if freqs.size == 0:
        return 0.0
    return float((freqs >= turbo - 1e-9).mean())


def run_freq_traces(
    app_name: str = "xapian",
    seed: int = 7,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=True,
) -> Dict[str, FreqTraceResult]:
    """Frequency traces for ReTail / Gemini / DeepPower on one app, each
    sampled once per controller tick and counted over the trace window."""
    profile = active_profile(full)
    [(cal, training)] = fig7_agents(
        [app_name], profile, seed=seed, jobs=jobs, result_cache=result_cache
    )
    policies = ("retail", "gemini", "deeppower")
    specs = [
        RunSpec(
            app_name, policy, cal.trace, profile.num_cores, seed=99,
            num_workers=training.num_workers,
            training=training if policy == "deeppower" else None,
            extras=DEEPPOWER_EXTRAS if policy == "deeppower" else ("freq_samples",),
        )
        for policy in policies
    ]
    out: Dict[str, FreqTraceResult] = {}
    for policy, run in zip(policies, run_grid(specs, jobs=jobs, cache=result_cache)):
        m = run.unwrap()
        times, freqs = run.extras["freq_samples"]
        out[policy] = FreqTraceResult(
            app=app_name,
            policy=policy,
            times=times,
            freqs=freqs,
            levels_per_request=1.0 + m.dvfs_switches / max(m.completed, 1),
            turbo_fraction=_turbo_fraction(freqs, DEFAULT_TABLE.turbo),
            mean_frequency=float(freqs.mean()) if freqs.size else 0.0,
        )
    return out


#: Fig 9 (Xapian) and Fig 10 (Sphinx): the same traces on two apps.
run_fig9 = partial(run_freq_traces, app_name="xapian")
run_fig10 = partial(run_freq_traces, app_name="sphinx")


def render_freq_traces(results: Dict[str, FreqTraceResult]) -> str:
    rows = [
        [r.policy, r.levels_per_request, f"{r.turbo_fraction:.1%}", r.mean_frequency]
        for r in results.values()
    ]
    table = format_table(
        ["policy", "freq levels/request", "turbo fraction", "mean freq (GHz)"],
        rows,
        "{:.2f}",
    )
    lines = [table, ""]
    for r in results.values():
        if r.freqs.size:
            lines.append(f"{r.policy:10s} core0 freq: " + sparkline(r.freqs[:, 0], 90))
    return "\n".join(lines)


def check_fig9(results: Dict[str, FreqTraceResult]) -> List[str]:
    """Fig 9's claims on Xapian that ``results`` fails: DeepPower scales
    frequency gradually *during* each request (more than 2 levels per
    request, more than either baseline) while ReTail picks a level once
    or twice (fewer than 3); and because it ramps instead of boosting,
    DeepPower sits at turbo less than half the time."""
    dp, rt, gm = (results[pol] for pol in ("deeppower", "retail", "gemini"))
    claims = [
        (f"DeepPower freq levels/request {dp.levels_per_request:.2f} > 2.0",
         dp.levels_per_request > 2.0),
        (f"DeepPower freq levels/request {dp.levels_per_request:.2f} > "
         f"ReTail's {rt.levels_per_request:.2f}", dp.levels_per_request > rt.levels_per_request),
        (f"DeepPower freq levels/request {dp.levels_per_request:.2f} > "
         f"Gemini's {gm.levels_per_request:.2f}", dp.levels_per_request > gm.levels_per_request),
        (f"ReTail freq levels/request {rt.levels_per_request:.2f} < 3.0",
         rt.levels_per_request < 3.0),
        (f"DeepPower turbo fraction {dp.turbo_fraction:.1%} < 50%", dp.turbo_fraction < 0.5),
    ]
    return [claim for claim, holds in claims if not holds]


def check_fig10(results: Dict[str, FreqTraceResult]) -> List[str]:
    """Fig 10's claims on Sphinx that ``results`` fails: the same picture
    at second scale, DeepPower's gradual multi-level ramps (more than 2
    levels per request) against fewer levels per request under ReTail and
    Gemini."""
    dp = results["deeppower"]
    claims = [(f"DeepPower freq levels/request {dp.levels_per_request:.2f} > 2.0",
               dp.levels_per_request > 2.0)]
    for pol in ("retail", "gemini"):
        r = results[pol]
        claims += [
            (f"{pol} freq levels/request {r.levels_per_request:.2f} < "
             f"DeepPower's {dp.levels_per_request:.2f}", r.levels_per_request < dp.levels_per_request),
            (f"{pol} frequency trace is not empty", r.freqs.size > 0),
        ]
    return [claim for claim, holds in claims if not holds]
