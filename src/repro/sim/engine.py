"""Discrete-event simulation engine with a virtual clock.

Design notes
------------
* Single-threaded, deterministic: events at equal ``(time, priority)`` fire
  in scheduling order.
* The heap entry is the event handle: a 5-slot list
  ``[time, priority, seq, callback, args]``.  ``seq`` is unique, so heap
  sifting resolves every comparison on the numeric prefix in C and never
  reaches the callback.
* Lazy cancellation (see :mod:`repro.sim.events`): firing or cancelling an
  entry clears its callback slot, so an entry is live while
  ``entry[3] is not None``.  ``cancel`` is O(1); cancelled entries stay in the
  heap until popped, and the heap is compacted when the fraction of dead
  entries grows too large, so a workload that reschedules completions on
  every DVFS step stays O(log n) amortized.  Compaction rewrites the heap
  list in place: a callback fired by :meth:`Engine.run_until` may cancel
  enough to compact, and the loop keeps reading the same list.  Pop order
  is unchanged, because ``(time, priority, seq)`` orders entries totally.
* The clock is ``float`` seconds.  All latency-critical quantities in the
  paper are milliseconds and up, far above double-precision resolution.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Any, Callable

from .events import PRIORITY_DEFAULT, Event

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


class Engine:
    """Event-driven simulation core.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule_at(1.0, fired.append, "a")
    >>> _ = eng.schedule_at(0.5, fired.append, "b")
    >>> eng.run_until(2.0)
    >>> fired
    ['b', 'a']
    >>> eng.now
    2.0
    """

    # Compact the heap when more than this fraction of entries are cancelled
    # (and the heap is big enough for compaction to matter).  A 256-node
    # capped fleet holds about 900 entries for 160 live ones, so the floor
    # sits below a fleet's heap, not above it.
    _COMPACT_RATIO = 0.5
    _COMPACT_MIN = 256

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time in seconds.  A plain attribute so hot
        #: callbacks read it without a property call; only the engine
        #: writes it.
        self.now = float(start_time)
        self._heap: list[Event] = []
        # Unique, increasing tiebreaker: equal (time, priority) fire FIFO.
        self._seq = itertools.count()
        self._cancelled = 0
        self._processed = 0
        self._running = False
        #: Optional :class:`~repro.obs.spans.SpanRecorder`; when attached,
        #: the run loops time themselves under ``engine.run_until`` /
        #: ``engine.run``.  None (the default) costs one branch per call.
        self.spans = None

    # ------------------------------------------------------------------ clock

    @property
    def processed_events(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the heap."""
        return len(self._heap) - self._cancelled

    def next_event_time(self) -> float | None:
        """Time of the next live event, or ``None`` when none are pending.

        Lets callers advance event-by-event (e.g. the post-trace drain loop)
        without committing to a fixed-size time chunk.
        """
        ev = self._peek_live()
        return None if ev is None else ev[0]

    # -------------------------------------------------------------- scheduling

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        Returns the event's heap entry, the handle :meth:`cancel` takes.
        Every event enters the heap here (``schedule_after`` and
        :class:`PeriodicTask` call it), so wrapping this one method sees
        every event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}: clock already at {self.now!r}"
            )
        ev = [float(time), priority, next(self._seq), callback, args]
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def cancel(self, ev: Event) -> None:
        """Cancel a previously scheduled event (no-op if fired or cancelled)."""
        if ev[3] is not None:
            ev[3] = None
            # Drop the arguments so a cancelled entry pinned in the heap does
            # not keep request/worker objects alive for the rest of the run.
            ev[4] = ()
            self._cancelled += 1
            n = len(self._heap)
            if self._cancelled > n * self._COMPACT_RATIO and n >= self._COMPACT_MIN:
                self._compact()

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: float | None = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until stopped."""
        return PeriodicTask(self, interval, callback, args, start_delay, priority)

    # ----------------------------------------------------------------- running

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        ev = self._pop_live()
        if ev is None:
            return False
        self.now = ev[0]
        cb = ev[3]
        ev[3] = None  # fired
        self._processed += 1
        cb(*ev[4])
        return True

    def run_until(self, time: float, *, inclusive: bool = True) -> None:
        """Run events up to virtual ``time``; the clock ends exactly there.

        With ``inclusive`` (default) events stamped exactly ``time`` fire;
        otherwise they stay pending.
        """
        if time < self.now:
            raise SimulationError(f"run_until({time!r}) is in the past (now={self.now!r})")
        self._guard_reentry()
        t0 = perf_counter() if self.spans is not None else None
        try:
            # Inline peek + pop (this loop is the simulation's hot path):
            # skip cancelled entries, stop at the horizon, fire the rest.
            heap = self._heap
            heappop = heapq.heappop
            while heap:
                ev = heap[0]
                ev_time, _, _, cb, cb_args = ev
                if cb is None:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if ev_time > time or (not inclusive and ev_time == time):
                    break
                heappop(heap)
                self.now = ev_time
                ev[3] = None  # fired
                self._processed += 1
                cb(*cb_args)
        finally:
            self._running = False
            if t0 is not None:
                self.spans.record("engine.run_until", perf_counter() - t0)
        self.now = float(time)

    def run(self, max_events: int | None = None) -> int:
        """Run until the heap drains (or ``max_events``); returns events run."""
        self._guard_reentry()
        count = 0
        t0 = perf_counter() if self.spans is not None else None
        try:
            while max_events is None or count < max_events:
                if not self.step():
                    break
                count += 1
        finally:
            self._running = False
            if t0 is not None:
                self.spans.record("engine.run", perf_counter() - t0)
        return count

    # ---------------------------------------------------------------- internal

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("engine loop is not re-entrant")
        self._running = True

    def _pop_live(self) -> Event | None:
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev[3] is not None:
                return ev
            self._cancelled -= 1
        return None

    def _peek_live(self) -> Event | None:
        while self._heap:
            ev = self._heap[0]
            if ev[3] is not None:
                return ev
            heapq.heappop(self._heap)
            self._cancelled -= 1
        return None

    def _compact(self) -> None:
        """Drop every cancelled entry, in place: a running ``run_until``
        holds this list as a local."""
        heap = self._heap
        heap[:] = [ev for ev in heap if ev[3] is not None]
        heapq.heapify(heap)
        self._cancelled = 0


class PeriodicTask:
    """A repeating callback driven by the engine.

    The first invocation happens after ``start_delay`` (defaults to one
    ``interval``); subsequent invocations are spaced exactly ``interval``
    apart on the virtual clock (no drift: the next firing is computed from
    the previous firing time, not from "now" inside the callback).
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        start_delay: float | None,
        priority: int,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval!r}")
        self._engine = engine
        self.interval = float(interval)
        self._callback = callback
        self._args = args
        self._priority = priority
        self._stopped = False
        self.fire_count = 0
        first = engine.now + (self.interval if start_delay is None else float(start_delay))
        self._next_time = first
        self._handle = engine.schedule_at(first, self._fire, priority=priority)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        # Schedule the successor *before* running the callback so the
        # callback may stop() the task (including "stop after this run").
        self._next_time += self.interval
        self._handle = self._engine.schedule_at(
            self._next_time, self._fire, priority=self._priority
        )
        self._callback(*self._args)

    def stop(self) -> None:
        """Stop future invocations (idempotent)."""
        if not self._stopped:
            self._stopped = True
            self._engine.cancel(self._handle)

    @property
    def stopped(self) -> bool:
        return self._stopped
