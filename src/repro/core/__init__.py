"""DeepPower: the paper's primary contribution.

Hierarchical DRL power management — a DDPG top layer choosing
``(BaseFreq, ScalingCoef)`` once per second, and a thread controller
scaling every worker core's frequency once per millisecond from those
parameters and each request's elapsed time.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .agent import (
        ACTION_DIM,
        DeepPowerAgent,
        build_actor,
        default_ddpg_config,
    )
    from .reward import RewardBreakdown, RewardCalculator, RewardConfig, scale_func
    from .runtime import DeepPowerConfig, DeepPowerRuntime, StepRecord
    from .state_observer import STATE_DIM, StateObserver
    from .thread_controller import FixedController, ThreadController
    from .training import (
        EpisodeStats,
        TrainingResult,
        train_deeppower,
    )

__all__ = [
    "STATE_DIM",
    "ACTION_DIM",
    "StateObserver",
    "ThreadController",
    "FixedController",
    "scale_func",
    "RewardConfig",
    "RewardCalculator",
    "RewardBreakdown",
    "DeepPowerAgent",
    "build_actor",
    "default_ddpg_config",
    "DeepPowerConfig",
    "DeepPowerRuntime",
    "StepRecord",
    "EpisodeStats",
    "TrainingResult",
    "train_deeppower",
]

__getattr__, __dir__ = lazy_exports(__name__)
