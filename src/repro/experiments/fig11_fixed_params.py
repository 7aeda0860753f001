"""Fig 11: frequency behaviour under fixed (BaseFreq, ScalingCoef) pairs.

The paper executes Xapian with the thread-controller parameters pinned to
three settings over a 50 ms window and shows the per-core frequency
heatmaps: low BaseFreq + high ScalingCoef -> cool start, rapid ramp; high
BaseFreq + low ScalingCoef -> warm start, gentle ramp.

We quantify each setting with the idle-floor frequency, the mean ramp
slope during request execution, and the turbo fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.reporting import format_table
from ..core.thread_controller import ThreadController
from ..workload.apps import get_app
from ..workload.trace import constant_trace
from .runner import build_context
from .scenarios import active_profile

__all__ = ["Fig11Result", "run_fig11", "render_fig11", "check_fig11", "FIG11_SETTINGS"]

#: The paper's three parameter settings.
FIG11_SETTINGS = ((0.4, 1.0), (0.5, 0.75), (0.6, 0.5))


@dataclass(frozen=True)
class Fig11Result:
    base_freq: float
    scaling_coef: float
    times: np.ndarray
    freqs: np.ndarray
    idle_floor: float
    mean_busy_ramp: float  # GHz per (elapsed/SLA) unit, observed
    turbo_fraction: float
    mean_frequency: float


def run_fig11(
    settings: Sequence[Tuple[float, float]] = FIG11_SETTINGS,
    window_physical: float = 0.05,
    load: float = 0.6,
    app_name: str = "xapian",
    seed: int = 2023,
    full: Optional[bool] = None,
) -> Dict[Tuple[float, float], Fig11Result]:
    """Run the controller with pinned parameters over a short window."""
    profile = active_profile(full)
    app = get_app(app_name)
    window = window_physical * app.dilation
    out: Dict[Tuple[float, float], Fig11Result] = {}
    for bf, sc in settings:
        trace = constant_trace(app.rps_for_load(load, profile.num_cores), window)
        ctx = build_context(app, trace, profile.num_cores, seed, keep_requests=True)
        tc = ThreadController(ctx.engine, ctx.server, record_trace=True)
        tc.set_params(bf, sc)
        tc.start()
        ctx.source.start()
        ctx.engine.run_until(window)
        times, freqs = tc.trace_arrays()

        table = ctx.cpu.table
        idle_floor = table.quantize(table.from_score(bf))
        scores = np.stack([p.scores for p in tc.trace])
        busy = scores > bf + 1e-12  # score above floor => request in flight
        # Observed ramp: regression of busy frequency on *consumed time*
        # (elapsed / SLA) — the paper's x-axis; slope ~ sc * (fmax - fmin)
        # below turbo, so the three settings order by ScalingCoef.
        if busy.any() and sc > 0:
            consumed = (scores[busy] - bf) / sc
            f = freqs[busy]
            below_turbo = f < table.turbo - 1e-9
            if below_turbo.sum() > 2:
                slope = float(np.polyfit(consumed[below_turbo], f[below_turbo], 1)[0])
            else:
                slope = 0.0
        else:
            slope = 0.0
        out[(bf, sc)] = Fig11Result(
            base_freq=bf,
            scaling_coef=sc,
            times=times,
            freqs=freqs,
            idle_floor=idle_floor,
            mean_busy_ramp=slope,
            turbo_fraction=float((freqs >= table.turbo - 1e-9).mean()) if freqs.size else 0.0,
            mean_frequency=float(freqs.mean()) if freqs.size else 0.0,
        )
    return out


def render_fig11(results: Dict[Tuple[float, float], Fig11Result]) -> str:
    rows = []
    for (bf, sc), r in results.items():
        rows.append(
            [
                f"bf={bf} sc={sc}",
                r.idle_floor,
                r.mean_busy_ramp,
                f"{r.turbo_fraction:.1%}",
                r.mean_frequency,
            ]
        )
    return format_table(
        ["setting", "idle floor (GHz)", "busy ramp slope", "turbo frac", "mean freq"],
        rows,
        "{:.2f}",
    )


def check_fig11(results: Dict[Tuple[float, float], Fig11Result]) -> List[str]:
    """Fig 11's claims that ``results`` fails: a higher BaseFreq gives a
    warmer idle floor, and a higher ScalingCoef a faster within-request
    ramp and more turbo residency."""
    ordered = [results[s] for s in FIG11_SETTINGS]  # BaseFreq rising, ScalingCoef falling
    floors = [r.idle_floor for r in ordered]
    ramps = [r.mean_busy_ramp for r in ordered]
    turbo = [r.turbo_fraction for r in ordered]

    def at_settings(values) -> str:
        return ", ".join(f"{v:.3g}" for v in values) + f" at {FIG11_SETTINGS}"

    claims = [
        (f"idle floor rises with BaseFreq ({at_settings(floors)})", floors == sorted(floors)),
        (f"busy ramp rises with ScalingCoef ({at_settings(ramps)})",
         ramps == sorted(ramps, reverse=True)),
        (f"turbo residency rises with ScalingCoef ({at_settings(turbo)})",
         turbo == sorted(turbo, reverse=True)),
        ("every busy ramp > 0", all(r > 0 for r in ramps)),
    ]
    return [claim for claim, holds in claims if not holds]
