"""Worker thread model: one thread pinned to one core, non-preemptive.

A worker executes exactly one request at a time.  Execution is *frequency
aware*: remaining work drains at the core's current frequency, and a DVFS
transition mid-request reschedules the completion event from the remaining
work.  That mechanism is what gives millisecond-granularity frequency
control (the paper's thread controller) its effect on in-flight requests —
prior methods picked a frequency once per request precisely because their
runtimes lacked this path.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cpu.core import Core
from ..sim.engine import Engine
from ..sim.events import Event
from ..workload.request import Request

__all__ = ["Worker"]


class Worker:
    """A server worker thread bound to a physical core.

    Parameters
    ----------
    engine:
        Simulation engine.
    core:
        The core this thread is pinned to (paper: 1 thread per core on
        socket 0).
    on_complete:
        Callback ``fn(worker, request)`` invoked when a request finishes.
    """

    def __init__(
        self,
        engine: Engine,
        core: Core,
        on_complete: Callable[["Worker", Request], None],
    ) -> None:
        self.engine = engine
        self.core = core
        #: Id of the pinned core (fixed for the worker's lifetime).
        self.core_id = core.core_id
        self._on_complete = on_complete
        self.current: Optional[Request] = None
        self.completed_count = 0
        self._remaining_work = 0.0
        self._progress_t = 0.0
        self._completion_ev: Optional[Event] = None
        if core.worker is not None:
            raise ValueError(f"core {core.core_id} already has a pinned worker")
        # The core retimes this worker on each of its frequency changes.
        core.worker = self

    # ------------------------------------------------------------------ state

    @property
    def busy(self) -> bool:
        return self.current is not None

    def remaining_work(self) -> float:
        """Work (GHz-seconds) left on the current request (0 if idle)."""
        if self.current is None:
            return 0.0
        elapsed = self.engine.now - self._progress_t
        return max(0.0, self._remaining_work - elapsed * self.core.frequency)

    # ---------------------------------------------------------------- control

    def start(self, req: Request, effective_work: float) -> None:
        """Begin executing ``req`` carrying ``effective_work`` GHz-seconds.

        ``effective_work`` is the request's sampled work after contention
        inflation (applied by the server at dispatch).
        """
        if self.current is not None:
            raise RuntimeError(f"worker on core {self.core_id} is already busy")
        now = self.engine.now
        req.start_time = now
        req.core_id = self.core_id
        req.effective_work = effective_work
        self.current = req
        self._remaining_work = effective_work
        self._progress_t = now
        core = self.core
        core.set_busy(True)
        # _freq is Core.frequency without the property call.
        self._completion_ev = self.engine.schedule_at(
            now + effective_work / core._freq, self._complete
        )

    def inflate_work(self, extra_work: float) -> None:
        """Add ``extra_work`` GHz-seconds to the in-flight request.

        Models control-plane overhead charged to the worker core (e.g.
        Gemini's per-request prediction running on the serving thread).
        """
        if extra_work < 0:
            raise ValueError("extra_work must be >= 0")
        if self.current is None or extra_work == 0.0:
            return
        self._retime(self.core._freq, extra_work)

    def abort(self) -> Optional[Request]:
        """Tear the in-flight request off this worker (node crash path).

        Cancels the pending completion, clears the request's runtime stamps
        so it can be re-dispatched cleanly elsewhere, frees the core, and
        returns the request (None if the worker was idle).  The request does
        NOT count as completed.
        """
        req = self.current
        if req is None:
            return None
        if self._completion_ev is not None:
            self.engine.cancel(self._completion_ev)
        self.current = None
        self._remaining_work = 0.0
        self._completion_ev = None
        req.start_time = None
        req.core_id = None
        req.effective_work = None
        self.core.set_busy(False)
        return req

    # ---------------------------------------------------------------- internal

    def _retime(self, rate: float, extra_work: float = 0.0) -> None:
        """Retire the work done at ``rate`` GHz since the last progress
        stamp, add ``extra_work``, and move the completion to the core's
        current frequency.

        The pinned core calls this with its old level on every real
        frequency change of a busy worker (see
        :meth:`~repro.cpu.core.Core.set_frequency`).
        """
        engine = self.engine
        now = engine.now
        rem = self._remaining_work - (now - self._progress_t) * rate
        # max(0.0, rem) without the call; NaN clamps to 0.0 the same way.
        rem = (rem if rem > 0.0 else 0.0) + extra_work
        self._remaining_work = rem
        self._progress_t = now
        engine.cancel(self._completion_ev)
        self._completion_ev = engine.schedule_at(
            now + rem / self.core._freq, self._complete
        )

    def _complete(self) -> None:
        req = self.current
        assert req is not None
        req.finish_time = self.engine.now
        self.current = None
        self._remaining_work = 0.0
        self._completion_ev = None
        self.completed_count += 1
        self.core.set_busy(False)
        self._on_complete(self, req)
