"""Shared experiment configuration: smoke vs full profiles.

Every experiment reads an :class:`ExperimentProfile`.  The default (smoke)
profile keeps pytest-benchmark runs in seconds; setting the environment
variable ``REPRO_FULL=1`` (or passing ``full=True``) upgrades to the
full-scale profile whose results are recorded in EXPERIMENTS.md.

Per-app worker counts mirror the paper: Masstree runs 8 of 20 workers
("8 worker threads of Masstree since its memory overhead"), i.e. roughly
half the socket here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional


from ..sim.rng import RngRegistry
from ..workload.trace import WorkloadTrace, diurnal_trace

__all__ = [
    "ExperimentProfile",
    "SMOKE",
    "FULL",
    "active_profile",
    "workers_for",
    "evaluation_trace",
]


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs for the experiment harness."""

    name: str
    num_cores: int
    trace_duration: float
    trace_segments: int
    train_episodes: int
    sample_count: int  # distribution-sampling experiments (Fig 1/2)
    table3_duration: float
    seed: int = 2023

    @property
    def is_full(self) -> bool:
        return self.name == "full"


SMOKE = ExperimentProfile(
    name="smoke",
    num_cores=4,
    trace_duration=60.0,
    trace_segments=30,
    train_episodes=8,
    sample_count=4000,
    table3_duration=60.0,
)

FULL = ExperimentProfile(
    name="full",
    num_cores=8,
    trace_duration=120.0,
    trace_segments=40,
    train_episodes=70,
    sample_count=20000,
    table3_duration=240.0,
)


def active_profile(full: Optional[bool] = None) -> ExperimentProfile:
    """The profile selected by the ``full`` flag or ``REPRO_FULL`` env var."""
    if full is None:
        full = os.environ.get("REPRO_FULL", "") not in ("", "0", "false")
    return FULL if full else SMOKE


#: Fraction of the socket each app's worker pool occupies (Masstree uses
#: fewer workers per the paper; everything else fills the socket).
_WORKER_FRACTION: Dict[str, float] = {
    "masstree": 0.5,
}


def workers_for(app_name: str, num_cores: int) -> int:
    """Worker-thread count for an app on a socket of ``num_cores``."""
    frac = _WORKER_FRACTION.get(app_name, 1.0)
    return max(1, int(round(num_cores * frac)))


def evaluation_trace(
    profile: ExperimentProfile,
    seed_offset: int = 0,
) -> WorkloadTrace:
    """The (unscaled) diurnal evaluation trace for a profile."""
    rngs = RngRegistry(profile.seed + seed_offset)
    return diurnal_trace(
        rngs.get("eval-trace"),
        duration=profile.trace_duration,
        num_segments=profile.trace_segments,
    )

