"""Request objects flowing through the latency-critical server."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["Request"]


@dataclass(slots=True)
class Request:
    """A single client request.

    Work is measured in GHz-seconds: a request with ``work = w`` needs
    ``w / f`` seconds of execution on a core running at ``f`` GHz.  The
    feature vector is what prediction-based baselines (ReTail, Gemini) see —
    the analogue of query length / request type in the paper's Tailbench
    apps.  DeepPower, by design, never looks at it.
    """

    req_id: int
    arrival_time: float
    work: float
    features: Sequence[float]
    #: Deadline-defining SLA (seconds) captured at creation time.
    sla: float

    # ---- runtime bookkeeping, filled in by the server -----------------------
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    core_id: Optional[int] = None
    #: Work after contention inflation applied at dispatch (GHz-seconds).
    effective_work: Optional[float] = None
    dropped: bool = field(default=False)
    #: Times this request was evacuated off a dying node and re-dispatched.
    retries: int = 0

    # ------------------------------------------------------------------ views

    @property
    def queue_time(self) -> Optional[float]:
        """Seconds spent waiting in the queue (None until started)."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> Optional[float]:
        """Seconds spent executing (None until finished)."""
        if self.finish_time is None or self.start_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency: arrival to completion (None until finished)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def timed_out(self) -> bool:
        """Whether the completed request exceeded its SLA."""
        lat = self.latency
        return lat is not None and lat > self.sla

    def deadline(self) -> float:
        """Absolute virtual time by which this request should complete."""
        return self.arrival_time + self.sla

    def time_remaining(self, now: float) -> float:
        """Seconds until the deadline (negative once overdue)."""
        return self.deadline() - now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.req_id}, t={self.arrival_time:.4f}, "
            f"work={self.work:.4g})"
        )
