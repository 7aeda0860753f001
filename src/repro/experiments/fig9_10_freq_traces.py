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
from ..baselines.gemini import GeminiPolicy
from ..baselines.retail import RetailPolicy
from ..cpu.dvfs import DEFAULT_TABLE
from ..core.thread_controller import ThreadController
from ..core.training import evaluate_deeppower
from ..workload.apps import get_app
from .fig7_main import fig7_agents
from .runner import run_policy
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


class _FreqSampler:
    """Samples per-core frequency on a fixed grid during a run."""

    def __init__(self, ctx, period: float):
        self.ctx = ctx
        self.period = period
        self.times: List[float] = []
        self.rows: List[np.ndarray] = []
        self._task = None

    def start(self):
        self._task = self.ctx.engine.every(self.period, self._sample)

    def _sample(self):
        self.times.append(self.ctx.engine.now)
        self.rows.append(self.ctx.cpu.frequencies()[: self.ctx.server.num_workers])

    def arrays(self):
        return np.array(self.times), (
            np.stack(self.rows) if self.rows else np.zeros((0, 0))
        )


def _levels_per_request(ctx) -> float:
    reqs = [r for r in ctx.server.metrics.requests if r.finish_time is not None]
    if not reqs:
        return 0.0
    switches = ctx.cpu.total_switches()
    return 1.0 + switches / max(len(reqs), 1)


def _turbo_fraction(freqs: np.ndarray, turbo: float) -> float:
    if freqs.size == 0:
        return 0.0
    return float((freqs >= turbo - 1e-9).mean())


def run_freq_traces(
    app_name: str = "xapian",
    seed: int = 7,
    full: Optional[bool] = None,
    result_cache=True,
) -> Dict[str, FreqTraceResult]:
    """Frequency traces for DeepPower / ReTail / Gemini on one app."""
    profile = active_profile(full)
    app = get_app(app_name)
    [(cal, training)] = fig7_agents([app_name], profile, seed=seed, result_cache=result_cache)
    nw = training.num_workers
    trace = cal.trace
    sample_period = app.short_time  # one sample per controller tick
    out: Dict[str, FreqTraceResult] = {}

    # --- prediction baselines ------------------------------------------------
    for label, factory in (
        ("retail", lambda ctx: RetailPolicy(ctx)),
        ("gemini", lambda ctx: GeminiPolicy(ctx)),
    ):
        holder = {}

        def driver(ctx, factory=factory, holder=holder):
            pol = factory(ctx)
            sampler = _FreqSampler(ctx, sample_period)
            holder["sampler"] = sampler

            class Both:
                def start(self):
                    pol.start()
                    sampler.start()

                def stop(self):
                    pol.stop()

            return Both()

        res = run_policy(
            driver, app, trace, profile.num_cores, seed=99, num_workers=nw,
            keep_requests=True,
            extras_fn=lambda ctx, drv: {"ctx": ctx},
        )
        times, freqs = holder["sampler"].arrays()
        out[label] = FreqTraceResult(
            app=app_name,
            policy=label,
            times=times,
            freqs=freqs,
            levels_per_request=_levels_per_request(res.extras["ctx"]),
            turbo_fraction=_turbo_fraction(freqs, DEFAULT_TABLE.turbo),
            mean_frequency=float(freqs.mean()) if freqs.size else 0.0,
        )

    # --- DeepPower -----------------------------------------------------------
    run = evaluate_deeppower(
        training.agent(), app, trace, num_cores=profile.num_cores, seed=99,
        config=training.config, num_workers=nw, keep_requests=True,
        record_freq_trace=True,
    )
    controller: ThreadController = run.extras["controller"]
    times, freqs = controller.trace_arrays()
    reqs = run.metrics.completed
    switches = run.metrics.dvfs_switches
    out["deeppower"] = FreqTraceResult(
        app=app_name,
        policy="deeppower",
        times=times,
        freqs=freqs,
        levels_per_request=1.0 + switches / max(reqs, 1),
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
