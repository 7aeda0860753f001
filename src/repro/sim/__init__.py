"""Discrete-event simulation kernel (virtual clock, event heap, RNG streams)."""

from .engine import Engine, PeriodicTask, SimulationError, drain
from .events import PRIORITY_CONTROL, PRIORITY_DEFAULT, PRIORITY_LATE, EventHandle
from .rng import RngRegistry, generator_state, restore_generator

__all__ = [
    "Engine",
    "PeriodicTask",
    "SimulationError",
    "drain",
    "EventHandle",
    "PRIORITY_DEFAULT",
    "PRIORITY_CONTROL",
    "PRIORITY_LATE",
    "RngRegistry",
    "generator_state",
    "restore_generator",
]
