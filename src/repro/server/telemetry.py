"""Telemetry channel: what the server reports to the DeepPower framework.

The paper's server sends the framework "comprehensive information about the
system (the number of timeout requests, the length of queue)" over TCP once
per DRL interval.  :class:`TelemetryChannel` reproduces that contract: the
server's :class:`~repro.server.metrics.LatencyRecorder` counts the window
(arrivals, completions, timeouts) as it records each request and, on
``snapshot()``, the channel emits a :class:`TelemetrySnapshot` holding both
the raw 8-dimensional state inputs of §4.4.1 and the reward inputs of
§4.4.2, then resets the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import Server

__all__ = ["TelemetrySnapshot", "TelemetryChannel"]

#: SLA fractions used by the QueueX / CoreX state features.
STATE_FRACTIONS = (0.25, 0.50, 0.75)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One window's worth of system information (paper §4.4.1 inputs)."""

    time: float
    window: float
    #: Requests received during the window (``NumReq``).
    num_req: int
    #: Instantaneous queue length at snapshot time (``QueueLen``).
    queue_len: int
    #: Queued requests with time-to-deadline < SLA*X% for X in 25/50/75.
    queue_frac: tuple
    #: In-service requests with time-to-deadline < SLA*X%.
    core_frac: tuple
    #: Requests that completed past their SLA during the window.
    timeouts: int
    #: Requests completed during the window.
    completed: int
    #: Busy-core fraction at snapshot time.
    utilization: float

    def state_vector(self) -> np.ndarray:
        """The raw 8-dim state of §4.4.1 (before observer normalisation)."""
        return np.array(
            [
                float(self.num_req),
                float(self.queue_len),
                *(float(v) for v in self.queue_frac),
                *(float(v) for v in self.core_frac),
            ]
        )


class TelemetryChannel:
    """Window-counting telemetry attached to a server."""

    def __init__(self, server: "Server") -> None:
        self.server = server
        self._last_snapshot_t = server.engine.now

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> TelemetrySnapshot:
        """Emit the current window's telemetry and start a new window."""
        srv = self.server
        now = srv.engine.now
        sla = srv.sla
        qf = tuple(
            srv.queue.count_remaining_below(now, sla * x) for x in STATE_FRACTIONS
        )
        cf = []
        for x in STATE_FRACTIONS:
            thresh = sla * x
            cf.append(
                sum(
                    1
                    for w in srv.workers
                    if w.current is not None and w.current.time_remaining(now) < thresh
                )
            )
        rec = srv.metrics
        snap = TelemetrySnapshot(
            time=now,
            window=now - self._last_snapshot_t,
            num_req=rec.win_arrivals,
            queue_len=len(srv.queue),
            queue_frac=qf,
            core_frac=tuple(cf),
            timeouts=rec.win_timeouts,
            completed=rec.win_completed,
            utilization=srv.cpu_utilization(),
        )
        rec.win_arrivals = rec.win_completed = rec.win_timeouts = 0
        self._last_snapshot_t = now
        return snap
