"""Fault injection + graceful degradation for the DeepPower stack.

Three layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the reproducible
  description of a fault scenario (deterministic schedule + seeded
  stochastic rates).
* :mod:`repro.faults.injectors` — :class:`SensorFaults`,
  :class:`ActuatorFaults`, :class:`AgentFaults` and the bundling
  :class:`FaultHarness`, which interpret a plan against a live stack.
* :mod:`repro.faults.watchdog` — :class:`Watchdog`, the runtime's
  anomaly screen and trip/re-arm state machine, degrading to the node's
  SLA-safe fallback governor while telemetry is broken, and
  :data:`SAFE_ACTION`, the action of every safe mode.

Two sibling plan layers compose over the same contract: fleet-level
chaos (:mod:`repro.faults.fleet`) and control-bus loss/delay/partition
(:mod:`repro.faults.bus`, interpreted by :mod:`repro.control.bus`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bus import (
        BUS_DIRECTIONS,
        BUS_FAULT_KINDS,
        BusEvent,
        BusFaultPlan,
        LinkFaults,
        standard_bus_plan,
    )
    from .fleet import (
        FLEET_FAULT_KINDS,
        FleetEvent,
        FleetFaultPlan,
        standard_chaos_plan,
    )
    from .injectors import ActuatorFaults, AgentFaults, FaultHarness, SensorFaults
    from .plan import FAULT_KINDS, FaultEvent, FaultPlan, standard_fault_plan
    from .watchdog import SAFE_ACTION, Watchdog

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "standard_fault_plan",
    "FLEET_FAULT_KINDS",
    "FleetEvent",
    "FleetFaultPlan",
    "standard_chaos_plan",
    "BUS_DIRECTIONS",
    "BUS_FAULT_KINDS",
    "BusEvent",
    "BusFaultPlan",
    "LinkFaults",
    "standard_bus_plan",
    "SensorFaults",
    "ActuatorFaults",
    "AgentFaults",
    "FaultHarness",
    "SAFE_ACTION",
    "Watchdog",
]

__getattr__, __dir__ = lazy_exports(__name__)
