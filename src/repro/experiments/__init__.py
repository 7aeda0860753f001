"""Experiment harness: one module per paper table/figure + ablations.

See DESIGN.md §4 for the experiment index.  Use the registry for
programmatic access:

>>> from repro.experiments import get_experiment
>>> exp = get_experiment("fig5")
>>> print(exp.execute())  # doctest: +SKIP
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .calibration import CalibrationResult, CalibrationSpec, calibrate_to_sla
    from .registry import REGISTRY, Experiment, get_experiment, list_experiments
    from .runner import RunContext, RunResult, build_context, run_policy
    from .scenarios import (
        FULL,
        SMOKE,
        ExperimentProfile,
        active_profile,
        evaluation_trace,
        workers_for,
    )

__all__ = [
    "RunContext",
    "RunResult",
    "build_context",
    "run_policy",
    "CalibrationResult",
    "CalibrationSpec",
    "calibrate_to_sla",
    "ExperimentProfile",
    "SMOKE",
    "FULL",
    "active_profile",
    "evaluation_trace",
    "workers_for",
    "Experiment",
    "REGISTRY",
    "get_experiment",
    "list_experiments",
]

__getattr__, __dir__ = lazy_exports(__name__)
