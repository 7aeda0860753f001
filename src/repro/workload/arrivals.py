"""Open-loop request sources driving the latency-critical server.

Tailbench's evaluation methodology (and the paper's) uses *open-loop* load:
clients issue requests on a schedule independent of server progress, so
queueing delay feeds directly into tail latency instead of throttling the
client.  :class:`OpenLoopSource` implements an inhomogeneous Poisson process
over a :class:`~repro.workload.trace.WorkloadTrace` by sampling exponential
gaps within each piecewise-constant segment (exact, no thinning needed).

Segment walk
------------
Arrival times only move forward, so the source keeps the index of the
segment it is in and walks it forward past every edge at or before the
current time — the segment ``np.searchsorted(edges, t, side="right") - 1``
would find, without a search per arrival.  Edges and rates are kept as
plain Python floats, so the per-arrival arithmetic never touches numpy
scalars; the random stream sees the same ``exponential(1 / rate)`` draws
in the same order.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..sim.engine import Engine
from .request import Request
from .service_time import ServiceModel
from .trace import WorkloadTrace

__all__ = ["OpenLoopSource"]


class OpenLoopSource:
    """Generates requests along a rate trace and submits them to a sink.

    Parameters
    ----------
    engine:
        Simulation engine.
    trace:
        Piecewise-constant arrival-rate schedule (absolute times).
    service:
        Work/feature sampler for generated requests.
    sla:
        SLA stamped on each request, seconds.
    sink:
        Callable receiving each :class:`Request` (usually ``Server.submit``).
    rng:
        Dedicated random stream.
    """

    def __init__(
        self,
        engine: Engine,
        trace: WorkloadTrace,
        service: ServiceModel,
        sla: float,
        sink: Callable[[Request], None],
        rng: np.random.Generator,
    ) -> None:
        self.engine = engine
        self.trace = trace
        self.service = service
        self.sla = float(sla)
        self.sink = sink
        self.rng = rng
        self._edges = trace.edges.tolist()
        self._rates = trace.rates.tolist()
        self._seg = 0
        self.generated = 0
        self._next_id = 0
        self._done = False
        self._on_done: Optional[Callable[[], None]] = None

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Begin generating arrivals at the trace start."""
        first = self._draw_next_arrival(max(self.engine.now, float(self.trace.edges[0])))
        if first is None:
            self._finish()
        else:
            self.engine.schedule_at(first, self._arrive, first)

    def on_done(self, fn: Callable[[], None]) -> None:
        """Register a callback fired when the trace is exhausted."""
        self._on_done = fn
        if self._done:
            fn()

    @property
    def done(self) -> bool:
        return self._done

    # ---------------------------------------------------------------- internal

    def _arrive(self, t: float) -> None:
        work, feats = self.service.sample(self.rng)
        # Positional (req_id, arrival_time, work, features, sla): one
        # Request per arrival, built on the hot path.
        req = Request(self._next_id, t, float(work), feats, self.sla)
        self._next_id += 1
        self.generated += 1
        self.sink(req)
        # _draw_next_arrival(t)'s first step, inlined: while t is inside
        # the current segment and its rate is positive, draw the gap here
        # and walk the segments only when the candidate lands past its end.
        seg = self._seg
        seg_end = self._edges[seg + 1]
        rate = self._rates[seg]
        if t < seg_end and rate > 0.0:
            nxt = t + self.rng.exponential(1.0 / rate)
            if nxt <= seg_end:
                self.engine.schedule_at(nxt, self._arrive, nxt)
                return
            nxt = self._draw_next_arrival(seg_end)
        else:
            nxt = self._draw_next_arrival(t)
        if nxt is None:
            self._finish()
        else:
            self.engine.schedule_at(nxt, self._arrive, nxt)

    def _finish(self) -> None:
        self._done = True
        if self._on_done is not None:
            self._on_done()

    def _draw_next_arrival(self, after: float) -> Optional[float]:
        """Next event time of the inhomogeneous Poisson process after ``after``.

        Walks segments: in a segment with rate ``r`` the residual gap is
        exponential with mean ``1/r``; if the candidate lands beyond the
        segment end, the process restarts (memorylessness) at the next
        segment boundary.  ``after`` never decreases between calls, so the
        current segment index only moves forward.
        """
        edges = self._edges
        rates = self._rates
        last = len(rates) - 1
        seg = self._seg
        t = after
        end = edges[-1]
        while t < end:
            while seg < last and edges[seg + 1] <= t:
                seg += 1
            rate = rates[seg]
            seg_end = edges[seg + 1]
            if rate <= 0.0:
                t = seg_end
                continue
            candidate = t + self.rng.exponential(1.0 / rate)
            if candidate <= seg_end:
                self._seg = seg
                return candidate
            t = seg_end
        self._seg = seg
        return None
