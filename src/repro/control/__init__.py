"""The control plane: a message boundary between policy and node.

:class:`~repro.core.runtime.DeepPowerRuntime` reaches its node only
through a :class:`PolicyEndpoint`, which exchanges schema-versioned
:class:`SensorReading` / :class:`ActuatorCommand` / :class:`CommandAck`
messages over a :class:`ControlBus` with a :class:`NodeEndpoint` wrapping
the simulated CPU/server.  :class:`InProcessBus` is the deterministic
in-process transport; a socket transport would slot behind the same
three-channel interface.

``DeepPowerConfig.control`` holds the runtime's
:class:`ControlPlaneConfig`: the bus fault plan, the degraded-mode switch
and the watchdog switch.  The default is a perfect transport.  With a
:class:`~repro.faults.bus.BusFaultPlan` the degraded-mode machinery of
:mod:`repro.control.endpoint` keeps the node SLA-safe — the contrast the
``control-soak`` experiment measures.  The :class:`NodeEndpoint` owns the
one fallback governor; its ``engage``/``release`` pair serves both the
node's command deadline and the runtime watchdog.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bus import BusFaultInjector, Channel, ControlBus, InProcessBus
    from .config import ControlPlaneConfig
    from .endpoint import NodeEndpoint, PolicyEndpoint
    from .messages import CONTROL_SCHEMA, ActuatorCommand, CommandAck, SensorReading

__all__ = [
    "CONTROL_SCHEMA",
    "SensorReading",
    "ActuatorCommand",
    "CommandAck",
    "Channel",
    "ControlBus",
    "InProcessBus",
    "BusFaultInjector",
    "PolicyEndpoint",
    "NodeEndpoint",
    "ControlPlaneConfig",
]

__getattr__, __dir__ = lazy_exports(__name__)
