"""The latency-critical server: queue + worker threads + policy hooks.

Mirrors the paper's Fig 3 server box: client requests land in a FIFO queue,
worker threads (each pinned to a physical core) fetch and process them
without preemption, and the server reports telemetry to the power-management
framework.  Power managers attach through three hook points:

* ``on_arrival(request)``   — a request entered the queue/system,
* ``on_start(request, core)``  — a worker began executing it,
* ``on_complete(request, core)`` — it finished.

ReTail uses ``on_start`` (per-request frequency choice), Gemini uses
``on_arrival``/``on_start`` plus its own periodic boost check, DeepPower's
thread controller ignores all three and ticks on its own schedule.

Contention model
----------------
Dispatched work is inflated by ``1 + contention * rho * min(w / E[w], cap)``
where ``rho`` is the busy-worker fraction at dispatch and ``w`` the
request's own work.  Longer requests touch more shared cache/memory and
therefore suffer disproportionately from colocation — this size-dependent
interference is what makes the feature->service-time relationship *change
shape* with load, so a prediction model trained at one load mispredicts at
another (the paper's §3.1 / Fig 2 motivation).  A purely multiplicative
inflation would only rescale predictions and barely register in relative
RMSE.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

import numpy as np

from ..cpu.topology import Cpu
from ..sim.engine import Engine
from ..workload.apps import AppSpec
from ..workload.request import Request
from .metrics import LatencyRecorder
from .queue import RequestQueue
from .telemetry import TelemetryChannel
from .worker import Worker

__all__ = ["Server", "PolicyHooks", "contention_inflation"]


#: Size ratio beyond which contention stops growing (a working set can only
#: thrash the shared cache so much).
CONTENTION_SIZE_CAP = 3.0


def contention_inflation(
    contention: float, rho: float, work, mean_work: float
):
    """Multiplier applied to a request's work at dispatch.

    ``1 + contention * rho * min(work / mean_work, CAP)`` — interference
    grows with system utilisation ``rho`` and (linearly, capped) with the
    request's own footprint: long requests walk larger working sets and
    suffer disproportionately from colocation.  Shared with
    :func:`repro.baselines.predictors.profile_app` so offline profiling
    sees the same phenomenon a live run produces.  Accepts scalars or
    arrays in ``work``.

    A Python ``int``/``float`` ``work`` (every dispatch) takes a pure-Python
    branch: the same IEEE double operations in the same order as the array
    branch, so both give bitwise-equal results, without numpy's per-call
    overhead on one number.
    """
    if isinstance(work, (int, float)):
        if mean_work <= 0:
            return 1.0
        size = float(work) / mean_work
        if size > CONTENTION_SIZE_CAP:
            size = CONTENTION_SIZE_CAP
        return float(1.0 + contention * rho * size)
    if mean_work <= 0:
        return 1.0 if np.isscalar(work) else np.ones_like(np.asarray(work, dtype=float))
    size = np.minimum(np.asarray(work, dtype=float) / mean_work, CONTENTION_SIZE_CAP)
    out = 1.0 + contention * rho * size
    return float(out) if np.isscalar(work) else out


class PolicyHooks(Protocol):
    """Callbacks a power-management policy may implement (all optional)."""

    def on_arrival(self, request: Request) -> None: ...

    def on_start(self, request: Request, core) -> None: ...

    def on_complete(self, request: Request, core) -> None: ...


class _NullPolicy:
    def on_arrival(self, request: Request) -> None:
        pass

    def on_start(self, request: Request, core) -> None:
        pass

    def on_complete(self, request: Request, core) -> None:
        pass


class Server:
    """Multi-threaded LC server running on (a subset of) a CPU socket.

    Parameters
    ----------
    engine, cpu:
        Simulation engine and the socket hosting worker threads.
    app:
        Application profile (SLA, contention coefficient).
    num_workers:
        Worker threads; defaults to one per core.  The paper pins 20 workers
        on socket 0 (8 for Masstree).
    keep_requests:
        Retain completed request objects in the recorder (trace figures).
    """

    def __init__(
        self,
        engine: Engine,
        cpu: Cpu,
        app: AppSpec,
        num_workers: Optional[int] = None,
        keep_requests: bool = False,
    ) -> None:
        n = cpu.num_cores if num_workers is None else num_workers
        if not 0 < n <= cpu.num_cores:
            raise ValueError(f"num_workers must be in 1..{cpu.num_cores}, got {n}")
        self.engine = engine
        self.cpu = cpu
        self.app = app
        self.sla = app.sla
        self.queue = RequestQueue()
        self.workers: List[Worker] = [
            Worker(engine, cpu[i], self._worker_done) for i in range(n)
        ]
        # LIFO idle stack, seeded in reverse so the first dispatch lands on
        # worker 0 (O(1) pop from the end, deterministic placement).
        self._idle: List[Worker] = list(reversed(self.workers))
        # Per-worker arrival time of the in-flight request, NaN when idle.
        # Maintained incrementally at dispatch/completion so the 1 ms
        # controller tick reads it without building a Python list.
        self._begin_times = np.full(n, np.nan)
        self.metrics = LatencyRecorder(app.sla, keep_requests=keep_requests)
        self.telemetry = TelemetryChannel(self)
        self._policy: PolicyHooks = _NullPolicy()
        self._mean_work = app.service.expected_work()
        # A paused (crashed) server accepts arrivals into the queue but never
        # dispatches them; the cluster lifecycle flips this around crashes.
        self._paused = False
        # Cluster-batch hooks (None outside batched fleet runs): called after
        # a completion is accounted / after an evacuation reset, so the fleet
        # batch can maintain its stacked backlog array incrementally.
        self.on_done: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

    # ----------------------------------------------------------------- wiring

    def set_policy(self, policy: Optional[PolicyHooks]) -> None:
        """Attach a power-management policy's request hooks."""
        self._policy = policy if policy is not None else _NullPolicy()

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------ entry

    def submit(self, req: Request) -> None:
        """Client-side entry point: a request arrives at the server."""
        self.metrics.on_arrival(req)
        self.telemetry.note_arrival()
        self._policy.on_arrival(req)
        if self._idle and not self._paused:
            self._dispatch(self._idle.pop(), req)
        else:
            self.queue.push(req)

    # ------------------------------------------------------------- node faults

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Stop dispatching; arrivals queue up (a down node's mailbox)."""
        self._paused = True

    def resume(self) -> None:
        """Restart dispatching and drain whatever queued while paused."""
        self._paused = False
        while self.queue and self._idle:
            self._dispatch(self._idle.pop(), self.queue.pop())

    def evacuate(self) -> List[Request]:
        """Abort all in-flight work and empty the queue (node crash).

        Returns evacuated requests — in-flight ones first (worker order),
        then queued ones FIFO — with their runtime stamps reset so a
        lifecycle can re-dispatch or drop them.  Leaves the server paused.
        """
        evacuated: List[Request] = []
        for worker in self.workers:
            req = worker.abort()
            if req is not None:
                evacuated.append(req)
        while self.queue:
            evacuated.append(self.queue.pop())
        self._idle = list(reversed(self.workers))
        self._begin_times[:] = np.nan
        self._paused = True
        if self.on_reset is not None:
            self.on_reset()
        return evacuated

    # -------------------------------------------------------------- inspection

    def busy_workers(self) -> int:
        return len(self.workers) - len(self._idle)

    def cpu_utilization(self) -> float:
        """Busy fraction of *worker* cores (not the whole socket)."""
        return self.busy_workers() / len(self.workers)

    def begin_times(self) -> np.ndarray:
        """Per-worker *arrival* time of the in-flight request (Algorithm 1's
        ``BeginTimes`` input: "Request arrive time of each thread"); NaN for
        idle workers.  Using arrival rather than processing-start time makes
        queueing delay count toward the controller score, so requests that
        waited long start executing at an already-elevated frequency.

        Returns the server's *reused* buffer (maintained incrementally at
        dispatch/completion — the 1 ms hot path allocates nothing).  Callers
        must treat it as read-only and copy if they need to retain it."""
        return self._begin_times

    # ---------------------------------------------------------------- internal

    def _dispatch(self, worker: Worker, req: Request) -> None:
        # Interference comes from the *other* busy threads; the dispatching
        # worker is already counted busy (it was popped from the idle list).
        rho = (self.busy_workers() - 1) / len(self.workers)
        effective = req.work * contention_inflation(
            self.app.contention, rho, req.work, self._mean_work
        )
        worker.start(req, effective)
        self._begin_times[worker.core_id] = req.arrival_time
        self._policy.on_start(req, worker.core)

    def _worker_done(self, worker: Worker, req: Request) -> None:
        latency = self.metrics.on_complete(req)
        self.telemetry.note_completion(latency > req.sla)
        self._begin_times[worker.core_id] = np.nan
        self._policy.on_complete(req, worker.core)
        if self.queue and not self._paused:
            self._dispatch(worker, self.queue.pop())
        else:
            self._idle.append(worker)
        if self.on_done is not None:
            self.on_done()

    def drain_remaining(self) -> int:
        """Requests still queued or in flight (diagnostics at run end)."""
        return len(self.queue) + self.busy_workers()
