"""Latency and QoS bookkeeping for a server run.

Collects per-request records and derives the metrics the paper evaluates:
mean latency, tail (p99) latency, timeout rate, the mean/tail ratio of
Fig 7c, plus the power-side numbers joined in by the experiment runner.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List

import numpy as np

from ..workload.request import Request

__all__ = ["LatencyRecorder", "RunMetrics"]


@dataclass
class RunMetrics:
    """Summary of one (app, policy, workload) execution."""

    completed: int
    timeouts: int
    mean_latency: float
    tail_latency: float
    p50_latency: float
    p95_latency: float
    mean_service: float
    mean_queue_time: float
    sla: float
    duration: float
    energy_joules: float = float("nan")
    avg_power_watts: float = float("nan")
    dvfs_switches: int = 0

    @property
    def timeout_rate(self) -> float:
        """Fraction of completed requests exceeding the SLA.

        NaN when nothing completed: a run that finished zero requests has
        no timeout evidence either way, and 0.0 would read as "all met".
        """
        return self.timeouts / self.completed if self.completed else float("nan")

    @property
    def mean_tail_ratio(self) -> float:
        """Fig 7c's mean/tail ratio (higher = less tail inflation).

        NaN when the tail is zero or NaN — the ratio is undefined, and the
        old 0.0 sorted such runs as "worst tail inflation" in comparisons.
        """
        return (
            self.mean_latency / self.tail_latency
            if self.tail_latency
            else float("nan")
        )

    @property
    def sla_met(self) -> bool:
        """Paper QoS constraint: p99 latency within the SLA.

        A zero-completion run carries NaN latencies, and ``nan <= sla`` is
        False — such a run never counts as meeting its SLA.
        """
        return self.tail_latency <= self.sla

    @property
    def throughput(self) -> float:
        """Completed requests per second of virtual time."""
        return self.completed / self.duration if self.duration else 0.0

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["timeout_rate"] = self.timeout_rate
        d["mean_tail_ratio"] = self.mean_tail_ratio
        d["sla_met"] = self.sla_met
        return d


class LatencyRecorder:
    """Accumulates completed requests and computes run metrics.

    Parameters
    ----------
    sla:
        SLA in seconds, used for timeout classification.
    tail_quantile:
        Quantile defining "tail latency" (paper: 0.99).
    keep_requests:
        Retain completed Request objects (needed by trace-style figures;
        turn off for long training runs to save memory).
    """

    def __init__(self, sla: float, tail_quantile: float = 0.99, keep_requests: bool = False) -> None:
        self.sla = float(sla)
        self.tail_quantile = float(tail_quantile)
        self.keep_requests = keep_requests
        # Per-request samples as packed doubles (8 bytes each, not a boxed
        # float per entry); they slice, extend and test truthiness like lists.
        self.latencies = array("d")
        self.service_times = array("d")
        self.queue_times = array("d")
        self.requests: List[Request] = []
        self.arrived = 0
        self.completed = 0
        self.timeouts = 0
        # The telemetry window's counters (arrivals, completions, completions
        # past their request's SLA), read and reset by
        # TelemetryChannel.snapshot; reset() leaves them alone.
        self.win_arrivals = 0
        self.win_completed = 0
        self.win_timeouts = 0

    # --------------------------------------------------------------- recording

    def on_arrival(self, req: Request) -> None:
        self.arrived += 1
        self.win_arrivals += 1

    def on_complete(self, req: Request) -> float:
        """Record a finished request; returns its end-to-end latency.

        Latency, service and queue time come straight from the request's
        stamps (the same values as its ``latency``/``service_time``/
        ``queue_time`` views), each computed once.  The run counts a
        timeout against the recorder's SLA, the telemetry window against
        the request's own.
        """
        finish = req.finish_time
        if finish is None:  # pragma: no cover - server always stamps finish_time
            raise ValueError("on_complete called with unfinished request")
        arrival = req.arrival_time
        start = req.start_time
        lat = finish - arrival
        self.completed += 1
        self.win_completed += 1
        if lat > req.sla:
            self.win_timeouts += 1
        self.latencies.append(lat)
        if start is None:  # pragma: no cover - a finished request has started
            self.service_times.append(0.0)
            self.queue_times.append(0.0)
        else:
            self.service_times.append((finish - start) or 0.0)
            self.queue_times.append((start - arrival) or 0.0)
        if lat > self.sla:
            self.timeouts += 1
        if self.keep_requests:
            self.requests.append(req)
        return lat

    # ----------------------------------------------------------------- queries

    @property
    def in_flight(self) -> int:
        """Requests arrived but not yet completed."""
        return self.arrived - self.completed

    def tail_latency(self) -> float:
        """Tail-quantile latency; NaN when nothing has completed."""
        if not self.latencies:
            return float("nan")
        return float(np.quantile(self.latencies, self.tail_quantile))

    def mean_latency(self) -> float:
        """Mean latency; NaN when nothing has completed."""
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    def summarize(self, duration: float) -> RunMetrics:
        """Freeze into a :class:`RunMetrics` for a run of ``duration`` secs.

        A run with zero completions has *no* latency distribution: every
        latency statistic is NaN (not 0.0, which would make the degenerate
        run look like the best-possible one — ``sla_met`` True, perfect
        quantiles) and ``timeout_rate`` is NaN too.
        """
        lat = np.asarray(self.latencies) if self.latencies else np.zeros(0)
        nan = float("nan")
        # One sort for the three quantiles.
        tail, p50, p95 = (
            np.quantile(lat, [self.tail_quantile, 0.5, 0.95]).tolist()
            if lat.size else (nan, nan, nan)
        )
        return RunMetrics(
            completed=self.completed,
            timeouts=self.timeouts,
            mean_latency=float(lat.mean()) if lat.size else nan,
            tail_latency=tail,
            p50_latency=p50,
            p95_latency=p95,
            mean_service=float(np.mean(self.service_times)) if self.service_times else nan,
            mean_queue_time=float(np.mean(self.queue_times)) if self.queue_times else nan,
            sla=self.sla,
            duration=float(duration),
        )

    def reset(self) -> None:
        """Clear all recorded data (e.g. after a warmup period)."""
        del self.latencies[:]
        del self.service_times[:]
        del self.queue_times[:]
        self.requests.clear()
        self.arrived = 0
        self.completed = 0
        self.timeouts = 0
