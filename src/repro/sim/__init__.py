"""Discrete-event simulation kernel (virtual clock, event heap, RNG streams)."""

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
