"""Fig 6: the diurnal RPS workload over time.

The paper drives all evaluations with a month of e-commerce search RPS
(diurnal + weekly pattern) downsampled to the test period.  This
experiment exposes the synthetic equivalent and its structural statistics
(peak/mean ratio, daily periodicity) so the shape can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis.reporting import sparkline
from ..sim.rng import RngRegistry
from ..workload.trace import WorkloadTrace, synthesize_month
from .scenarios import active_profile

__all__ = ["Fig6Result", "run_fig6", "render_fig6", "check_fig6"]


@dataclass(frozen=True)
class Fig6Result:
    month: WorkloadTrace
    downsampled: WorkloadTrace
    peak_mean_ratio: float
    trough_mean_ratio: float
    #: Lag-1-day autocorrelation of the hourly series (diurnality check).
    daily_autocorr: float


def run_fig6(
    seed: int = 2023,
    duration: Optional[float] = None,
    segments: Optional[int] = None,
    full: Optional[bool] = None,
) -> Fig6Result:
    profile = active_profile(full)
    duration = duration if duration is not None else profile.trace_duration
    segments = segments if segments is not None else profile.trace_segments
    rngs = RngRegistry(seed)
    month = synthesize_month(rngs.get("fig6-month"))
    down = month.downsampled(duration, segments)

    rates = month.rates
    lag = 24  # samples per day
    a, b = rates[:-lag], rates[lag:]
    autocorr = float(np.corrcoef(a, b)[0, 1]) if len(a) > 2 else 0.0
    return Fig6Result(
        month=month,
        downsampled=down,
        peak_mean_ratio=month.peak_rate() / month.mean_rate(),
        trough_mean_ratio=float(month.rates.min()) / month.mean_rate(),
        daily_autocorr=autocorr,
    )


def render_fig6(result: Fig6Result) -> str:
    return "\n".join(
        [
            f"month-long RPS pattern ({len(result.month.rates)} hourly samples):",
            "  " + sparkline(result.month.rates, 100),
            f"downsampled to {result.downsampled.duration:.0f}s "
            f"({len(result.downsampled.rates)} segments):",
            "  " + sparkline(result.downsampled.rates, 100),
            f"peak/mean {result.peak_mean_ratio:.2f}  trough/mean "
            f"{result.trough_mean_ratio:.2f}  day-lag autocorr {result.daily_autocorr:.2f}",
        ]
    )


def check_fig6(result: Fig6Result) -> List[str]:
    """Fig 6's claims that ``result`` fails, the structural statistics of
    the paper's trace: a strong diurnal pattern, a meaningful
    peak-to-trough swing and non-negative rates."""
    claims = [
        (f"daily autocorrelation {result.daily_autocorr:.2f} > 0.6", result.daily_autocorr > 0.6),
        (f"peak/mean {result.peak_mean_ratio:.2f} > 1.4", result.peak_mean_ratio > 1.4),
        (f"trough/mean {result.trough_mean_ratio:.2f} < 0.6", result.trough_mean_ratio < 0.6),
        ("every monthly rate > 0", (result.month.rates > 0).all()),
        ("every downsampled rate >= 0", (result.downsampled.rates >= 0).all()),
    ]
    return [claim for claim, holds in claims if not holds]
