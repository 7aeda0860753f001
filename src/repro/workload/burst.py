"""Bursty arrivals: a Markov-modulated Poisson trace.

The paper evaluates under open-loop diurnal Poisson traffic;
:func:`mmpp_trace` extends the workload substrate for robustness studies.
It is a two-state Markov-modulated Poisson process rendered as a
piecewise-constant trace (burst/calm alternation), the classic model for
flash-crowd arrivals.
"""

from __future__ import annotations

import numpy as np

from .trace import WorkloadTrace

__all__ = ["mmpp_trace"]


def mmpp_trace(
    rng: np.random.Generator,
    duration: float,
    calm_rate: float,
    burst_rate: float,
    mean_calm: float,
    mean_burst: float,
) -> WorkloadTrace:
    """Two-state MMPP rendered as a piecewise-constant rate trace.

    State dwell times are exponential with the given means; within a state
    arrivals are Poisson at that state's rate.

    Parameters
    ----------
    duration:
        Total trace length (seconds).
    calm_rate, burst_rate:
        Arrival rates in the two states (requests/second).
    mean_calm, mean_burst:
        Mean dwell time in each state (seconds).
    """
    if duration <= 0 or min(calm_rate, burst_rate) < 0:
        raise ValueError("invalid MMPP parameters")
    if min(mean_calm, mean_burst) <= 0:
        raise ValueError("dwell means must be positive")
    edges = [0.0]
    rates = []
    burst = False
    t = 0.0
    while t < duration:
        dwell = rng.exponential(mean_burst if burst else mean_calm)
        t = min(duration, t + dwell)
        rates.append(burst_rate if burst else calm_rate)
        edges.append(t)
        burst = not burst
    return WorkloadTrace(np.array(edges), np.array(rates))

