"""The control plane: a message boundary between policy and node.

Splits :class:`~repro.core.runtime.DeepPowerRuntime` into the NRM-style
daemon/client shape of ROADMAP's "live control plane" item: the policy
loop exchanges schema-versioned :class:`SensorReading` /
:class:`ActuatorCommand` / :class:`CommandAck` messages over a
:class:`ControlBus` with a :class:`NodeEndpoint` wrapping the simulated
CPU/server.  :class:`InProcessBus` is the deterministic in-process
transport; a socket transport would slot behind the same three-channel
interface.

Every runtime runs over the bus; ``DeepPowerConfig.control`` holds its
:class:`ControlPlaneConfig`: the bus fault plan, the degraded-mode switch
and the watchdog switch.  The default is a perfect transport.  With a
:class:`~repro.faults.bus.BusFaultPlan` the degraded-mode machinery
(stale-telemetry hold, ack-timeout retries, deadline escalation into the
fallback governor) keeps the node SLA-safe — the contrast the
``control-soak`` experiment measures.  The :class:`NodeEndpoint` owns the
one fallback governor; its ``engage``/``release`` pair serves both the
node's command deadline and the runtime watchdog.
"""

from .bus import BusFaultInjector, Channel, ControlBus, InProcessBus
from .config import ControlPlaneConfig
from .endpoint import NodeEndpoint
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
    "NodeEndpoint",
    "ControlPlaneConfig",
]
