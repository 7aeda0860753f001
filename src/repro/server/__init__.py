"""Latency-critical server substrate: queue, workers, metrics, telemetry."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .metrics import LatencyRecorder, RunMetrics
    from .queue import RequestQueue
    from .server import PolicyHooks, Server
    from .telemetry import STATE_FRACTIONS, TelemetryChannel, TelemetrySnapshot
    from .worker import Worker

__all__ = [
    "RequestQueue",
    "Worker",
    "Server",
    "PolicyHooks",
    "LatencyRecorder",
    "RunMetrics",
    "TelemetryChannel",
    "TelemetrySnapshot",
    "STATE_FRACTIONS",
]

__getattr__, __dir__ = lazy_exports(__name__)
