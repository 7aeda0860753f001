"""The runtime's degraded-mode switches and the control plane's constants.

:class:`ControlPlaneConfig` holds the three settings a caller chooses:
the bus ``fault_plan``, ``degraded_mode`` (off for the soak ablation) and
whether the runtime ``watchdog`` screens the DRL loop.  Every other
degraded-mode value is a module constant: the ones below for the bus
ladders, :mod:`repro.faults.watchdog`'s for the watchdog and its
``SAFE_ACTION``, and :data:`repro.control.bus.QUEUE_CAPACITY` for the
channel depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.bus import BusFaultPlan

__all__ = ["ControlPlaneConfig"]

#: Seconds before an unacknowledged command is retransmitted.
ACK_TIMEOUT = 0.5
#: Maximum idempotent retransmissions per command.
MAX_RETRIES = 2
#: Age slack (seconds) beyond which a reading counts as stale; 0 means only
#: a same-tick reading is fresh (matches the watchdog's screen).
STALE_TOLERANCE = 0.0
#: Consecutive stale windows (controller side) / command-less DRL
#: intervals (node side) before safe-mode escalation.
DEADLINE_MISSES = 3
#: Consecutive fresh windows required to leave controller safe mode.
RECOVERY_WINDOWS = 2


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Bus transport and safe-mode switches of one runtime.

    :class:`~repro.core.runtime.DeepPowerConfig` carries one (default:
    a perfect transport, degraded mode armed, no watchdog); the runtime's
    :class:`~repro.control.endpoint.PolicyEndpoint` builds its bus and
    node from it.  :mod:`repro.control.endpoint` describes the
    degraded-mode ladder that ``degraded_mode`` arms and the soak
    ablation (``degraded_mode=False``) turns off.  ``watchdog=True``
    screens every DRL step and trips into the node's fallback governor
    (:mod:`repro.faults.watchdog`).
    """

    #: Bus misbehaviour to inject; None/empty = perfect transport.
    fault_plan: Optional[BusFaultPlan] = None
    #: False = the no-degraded-mode ablation.
    degraded_mode: bool = True
    #: Screen the DRL loop with the runtime watchdog.
    watchdog: bool = False
