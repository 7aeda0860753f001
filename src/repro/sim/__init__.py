"""Discrete-event simulation kernel (virtual clock, event heap, RNG streams)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .engine import Engine, PeriodicTask, SimulationError
    from .events import PRIORITY_CONTROL, PRIORITY_DEFAULT, PRIORITY_LATE
    from .rng import RngRegistry, generator_state, restore_generator

__all__ = [
    "Engine",
    "PeriodicTask",
    "SimulationError",
    "PRIORITY_DEFAULT",
    "PRIORITY_CONTROL",
    "PRIORITY_LATE",
    "RngRegistry",
    "generator_state",
    "restore_generator",
]

__getattr__, __dir__ = lazy_exports(__name__)
