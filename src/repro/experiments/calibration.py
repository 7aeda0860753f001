"""Workload calibration (paper §5.2).

"We ... multiply the RPS by a factor to make the tail latency close to SLA
when running without frequency scaling."  :func:`calibrate_to_sla` performs
that scaling: it searches the multiplicative trace factor under which the
unmanaged baseline's p99 latency lands at ``target_fraction`` of the SLA.
Given a result store, the search's outcome is kept there, so a rerun of
the same calibration runs no probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines.simple import MaxFrequencyPolicy
from ..parallel.cache import RunResultCache, resolve_cache
from ..workload.apps import AppSpec
from ..workload.trace import WorkloadTrace
from .runner import run_policy

__all__ = ["CalibrationResult", "calibrate_to_sla"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration search."""

    trace: WorkloadTrace
    scale: float
    baseline_p99_fraction: float
    iterations: int
    mean_load: float


def calibrate_to_sla(
    app: AppSpec,
    base_trace: WorkloadTrace,
    num_cores: int,
    num_workers: Optional[int] = None,
    target_fraction: float = 0.7,
    seed: int = 999,
    tol: float = 0.07,
    max_iter: int = 8,
    initial_load: float = 0.45,
    max_load: float = 0.85,
    result_cache: "bool | RunResultCache | None" = None,
) -> CalibrationResult:
    """Scale ``base_trace`` so the unmanaged baseline's p99 ≈ target.

    Parameters
    ----------
    target_fraction:
        Desired baseline p99 / SLA (the paper's "close to SLA" — below 1 so
        the unmanaged system meets QoS, leaving the power managers a real
        constraint to respect).
    initial_load:
        Starting mean utilisation guess for the first probe run.
    tol:
        Acceptable relative deviation of the achieved fraction.
    max_load:
        Cap on the mean utilisation: near-deterministic service times make
        p99-vs-load a cliff (M/D/c), and without a cap the search can park
        the system on the wrong side of it.
    result_cache:
        Store the result under ``REPRO_CACHE`` (``True``) or in the given
        store, keyed on the app, the base trace's content, every search
        parameter and the store's schema version; a stored result is
        returned without a probe run.  ``None``/``False`` reads and
        writes nothing.

    Notes
    -----
    p99 grows monotonically (and very steeply near saturation) with the
    scale factor, so a damped multiplicative update converges in a few
    probes; each probe is one baseline run of the full trace.
    """
    if not 0.0 < target_fraction <= 1.5:
        raise ValueError("target_fraction must be in (0, 1.5]")
    nw = num_workers if num_workers is not None else num_cores
    cache = resolve_cache(result_cache)
    if cache is not None:
        key = cache.key({
            "kind": "calibration",
            "app": app.name,
            "trace_edges": base_trace.edges,
            "trace_rates": base_trace.rates,
            "target_fraction": target_fraction,
            "num_cores": num_cores,
            "num_workers": nw,
            "seed": seed,
            "tol": tol,
            "max_iter": max_iter,
            "initial_load": initial_load,
            "max_load": max_load,
        })
        stored = cache.get(key)
        if stored is not None:
            return stored
    trace = base_trace.scaled_to_mean(app.rps_for_load(initial_load, nw))

    achieved = 0.0
    for it in range(1, max_iter + 1):
        res = run_policy(
            lambda ctx: MaxFrequencyPolicy(ctx),
            app,
            trace,
            num_cores,
            seed=seed,
            num_workers=nw,
        )
        achieved = res.metrics.tail_latency / app.sla
        if achieved > 0 and abs(achieved - target_fraction) <= tol * target_fraction:
            break
        if achieved <= 0:
            factor = 2.0
        else:
            # Damped multiplicative step: p99 is convex in load, so move
            # conservatively (sqrt) toward the target.
            factor = (target_fraction / achieved) ** 0.5
            factor = min(max(factor, 0.6), 1.6)
        trace = trace.scaled(factor)
        mean_load = trace.mean_rate() * app.service.expected_work() / (nw * 2.1)
        if mean_load > max_load:
            trace = trace.scaled(max_load / mean_load)

    mean_load = trace.mean_rate() * app.service.expected_work() / (nw * 2.1)
    scale = trace.mean_rate() / base_trace.mean_rate()
    result = CalibrationResult(
        trace=trace,
        scale=scale,
        baseline_p99_fraction=achieved,
        iterations=it,
        mean_load=mean_load,
    )
    if cache is not None:
        cache.put(key, result)
    return result
