"""Workload calibration (paper §5.2).

"We ... multiply the RPS by a factor to make the tail latency close to SLA
when running without frequency scaling."  :func:`calibrate_to_sla` performs
that scaling: it searches the multiplicative trace factor under which the
unmanaged baseline's p99 latency lands at ``target_fraction`` of the SLA.
:class:`CalibrationSpec` makes one search a grid cell, so
:func:`repro.parallel.run_grid` stores its outcome and a rerun of the same
calibration runs no probe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from ..baselines.simple import MaxFrequencyPolicy
from ..workload.apps import AppSpec, get_app
from ..workload.trace import WorkloadTrace
from .runner import run_policy

__all__ = ["CalibrationResult", "CalibrationSpec", "calibrate_to_sla"]


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

    Notes
    -----
    p99 grows monotonically (and very steeply near saturation) with the
    scale factor, so a damped multiplicative update converges in a few
    probes; each probe is one baseline run of the full trace.  A search
    that runs out of probes returns the probed trace closest to the
    target, with that probe's fraction.
    """
    if not 0.0 < target_fraction <= 1.5:
        raise ValueError("target_fraction must be in (0, 1.5]")
    nw = num_workers if num_workers is not None else num_cores
    trace = base_trace.scaled_to_mean(app.rps_for_load(initial_load, nw))

    best = None  # (distance to the target, trace, p99 fraction) of the closest probe
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
        if best is None or abs(achieved - target_fraction) < best[0]:
            best = (abs(achieved - target_fraction), trace, achieved)
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

    _, trace, achieved = best
    mean_load = trace.mean_rate() * app.service.expected_work() / (nw * 2.1)
    scale = trace.mean_rate() / base_trace.mean_rate()
    return CalibrationResult(
        trace=trace,
        scale=scale,
        baseline_p99_fraction=achieved,
        iterations=it,
        mean_load=mean_load,
    )


@dataclass(frozen=True)
class CalibrationSpec:
    """One :func:`calibrate_to_sla` search as a grid cell.

    It follows the spec protocol of :class:`~repro.parallel.RunSpec`, so
    :func:`~repro.parallel.run_grid` runs it and stores its
    :class:`CalibrationResult`, keyed on every field: the arguments of
    :func:`calibrate_to_sla`, with the app given by catalog name.
    """

    app: str
    base_trace: WorkloadTrace
    num_cores: int
    num_workers: Optional[int] = None
    target_fraction: float = 0.7
    seed: int = 999
    tol: float = 0.07
    max_iter: int = 8
    initial_load: float = 0.45
    max_load: float = 0.85

    #: Probes run the unmanaged baseline, untraced.
    policy = "baseline"
    label = ""
    trace_out = None

    def execute(self) -> Tuple[CalibrationResult, Dict[str, Any]]:
        args = {f.name: getattr(self, f.name) for f in fields(self)}
        return calibrate_to_sla(get_app(args.pop("app")), **args), {}

    def imports(self) -> Tuple[str, ...]:
        return ("repro.experiments.calibration",)

    def cache_payload(self) -> dict:
        return {"kind": "calibration", "spec": self}
