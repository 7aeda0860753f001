"""Deterministic in-process control bus with bounded, faultable channels.

The transport abstraction behind the runtime's message boundary.  A
:class:`ControlBus` owns three directed :class:`Channel` s — ``sensor``
(node → controller), ``command`` (controller → node) and ``ack``
(node → controller) — each a bounded delivery queue ordered by delivery
time on the virtual clock.  :class:`InProcessBus` is the deterministic
in-process implementation; a socket transport would present the same
three-channel interface (publish / poll / subscribe) with wall-clock
delivery, which is the seam the ROADMAP's daemon/client split plugs into.

Delivery semantics:

* ``publish`` stamps the message with a delivery time (``now`` plus any
  fault-injected delay) and enqueues it; an optional
  :class:`BusFaultInjector` may instead drop it (stochastic loss or a
  scheduled partition) or fan it out into duplicate copies.
* **Bounded queues / shed policy**: each channel holds at most
  ``capacity`` (default :data:`QUEUE_CAPACITY`) undelivered messages;
  overflow sheds the *oldest* undelivered entry (freshest-data-wins, the
  right policy for telemetry and for idempotent commands, whose retry
  machinery recovers the loss).
  Sheds are counted and traced as ``bus-drop`` with ``reason="shed"`` —
  backpressure is always explicit, never silent.
* **Polled or subscribed**: receivers either ``poll(now)`` for messages
  whose delivery time has arrived (the controller does this at its DRL
  tick) or ``subscribe`` a callback.  Subscribed zero-delay copies are
  delivered in-line during ``publish`` — the in-process fast path, landing
  at the publish instant — while fault-delayed copies schedule
  an engine event at their delivery time (commands must land mid-window,
  not at the next tick).

Determinism: with no injector a published message is delivered at exactly
``now`` in publish order, and nothing consumes randomness.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..faults.bus import BUS_DIRECTIONS, BusFaultPlan
from ..sim.engine import Engine

__all__ = ["Channel", "ControlBus", "InProcessBus", "BusFaultInjector"]

#: Per-channel bounded queue depth; overflow sheds the oldest entry.
QUEUE_CAPACITY = 64


class BusFaultInjector:
    """Interpret a :class:`~repro.faults.bus.BusFaultPlan` per publish.

    Each direction draws from its own derived RNG stream, and every
    publish consumes exactly four uniforms (drop/delay/duplicate/reorder),
    so the fault history depends only on the plan and the per-direction
    message count — bitwise replayable across runs and after a resume
    (the RNG states are part of :meth:`state_dict`).
    """

    def __init__(self, plan: BusFaultPlan) -> None:
        from ..parallel.pool import derive_seed

        self.plan = plan
        self._rngs = {
            d: np.random.default_rng(derive_seed(plan.seed, "bus", d))
            for d in BUS_DIRECTIONS
        }
        self._partitions = {d: plan.partitions(d) for d in BUS_DIRECTIONS}

    def partitioned(self, direction: str, now: float) -> bool:
        return any(start <= now < end for start, end in self._partitions[direction])

    def verdict(
        self, direction: str, now: float
    ) -> Tuple[Tuple[float, ...], Optional[str]]:
        """Fate of one published message: ``(delivery delays, drop reason)``.

        An empty delay tuple means the message is dropped (``reason`` is
        ``"partition"`` or ``"fault"``); otherwise one copy is delivered
        per delay.  Scheduled partitions are checked first and consume no
        randomness — they are deterministic windows, not coin flips.
        """
        if self.partitioned(direction, now):
            return (), "partition"
        link = self.plan.link(direction)
        if link.is_empty:
            return (0.0,), None
        u_drop, u_delay, u_dup, u_reorder = self._rngs[direction].random(4)
        if u_drop < link.drop_prob:
            return (), "fault"
        first = link.delay if (
            u_delay < link.delay_prob or u_reorder < link.reorder_prob
        ) else 0.0
        if u_dup < link.duplicate_prob:
            return (first, link.delay), None
        return (first,), None

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        return {d: self._rngs[d].bit_generator.state for d in BUS_DIRECTIONS}

    def load_state_dict(self, state: dict) -> None:
        for d in BUS_DIRECTIONS:
            self._rngs[d].bit_generator.state = state[d]


class Channel:
    """One direction of the bus: a bounded delivery-time-ordered queue."""

    def __init__(
        self,
        name: str,
        engine: Engine,
        capacity: int,
        injector: Optional[BusFaultInjector] = None,
        trace=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.name = name
        self.engine = engine
        self.capacity = int(capacity)
        self.injector = injector
        self._trace = trace
        #: Undelivered entries: ``(deliver_at, order, message)``.
        self._heap: List[tuple] = []
        self._order = 0
        self._subscriber: Optional[Callable] = None
        self.stats: Dict[str, int] = {
            "published": 0,
            "delivered": 0,
            "dropped_fault": 0,
            "dropped_partition": 0,
            "shed": 0,
            "duplicated": 0,
            "delayed": 0,
        }

    def subscribe(self, callback: Callable) -> None:
        """Deliver via engine events at each copy's delivery time."""
        self._subscriber = callback

    def publish(self, message) -> None:
        """Enqueue one message, consulting the fault injector for its fate."""
        self.stats["published"] += 1
        now = self.engine.now
        if self.injector is None:
            delays: Tuple[float, ...] = (0.0,)
        else:
            delays, reason = self.injector.verdict(self.name, now)
            if not delays:
                self.stats[f"dropped_{reason}"] += 1
                if self._trace is not None:
                    self._trace.emit(
                        "bus-drop",
                        t=now,
                        channel=self.name,
                        reason=reason,
                        seq=getattr(message, "seq", None),
                    )
                return
            if len(delays) > 1:
                self.stats["duplicated"] += len(delays) - 1
        deliver_inline = False
        for delay in delays:
            if delay > 0:
                self.stats["delayed"] += 1
            if len(self._heap) >= self.capacity:
                self._shed()
            heapq.heappush(self._heap, (now + delay, self._order, message))
            self._order += 1
            if self._subscriber is not None:
                if delay > 0:
                    self.engine.schedule_at(now + delay, self._pump)
                else:
                    deliver_inline = True
        if deliver_inline:
            # Zero-delay copies reach a subscriber in-line (the in-process
            # fast path), exactly where a direct call would land; only
            # fault-delayed copies go through the event loop.
            self._pump()

    def poll(self, now: float) -> list:
        """All messages whose delivery time has arrived, in delivery order."""
        out = []
        while self._heap and self._heap[0][0] <= now:
            out.append(heapq.heappop(self._heap)[2])
        self.stats["delivered"] += len(out)
        return out

    # ---------------------------------------------------------------- internal

    def _shed(self) -> None:
        """Backpressure: drop the oldest undelivered entry, loudly."""
        _, _, victim = heapq.heappop(self._heap)
        self.stats["shed"] += 1
        if self._trace is not None:
            self._trace.emit(
                "bus-drop",
                t=self.engine.now,
                channel=self.name,
                reason="shed",
                seq=getattr(victim, "seq", None),
            )

    def _pump(self) -> None:
        # One pump event is scheduled per copy; a batch (or a shed victim)
        # may leave later pumps with nothing to do, which is harmless.
        for message in self.poll(self.engine.now):
            self._subscriber(message)


class ControlBus:
    """Three-channel transport interface the control loop programs against."""

    sensor: Channel
    command: Channel
    ack: Channel

    def channel(self, name: str) -> Channel:
        if name not in BUS_DIRECTIONS:
            raise KeyError(
                f"unknown bus channel {name!r}; known: {BUS_DIRECTIONS}"
            )
        return getattr(self, name)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel counter snapshot."""
        return {name: dict(self.channel(name).stats) for name in BUS_DIRECTIONS}


class InProcessBus(ControlBus):
    """Deterministic same-process transport on the simulation clock.

    The ``fault_plan`` (when non-empty) arms one shared
    :class:`BusFaultInjector` across the three channels; an empty or
    absent plan builds no injector at all, keeping the fault-free path
    free of RNG.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: int = QUEUE_CAPACITY,
        fault_plan: Optional[BusFaultPlan] = None,
        trace=None,
    ) -> None:
        self.engine = engine
        self.injector: Optional[BusFaultInjector] = None
        if fault_plan is not None and not fault_plan.is_empty:
            self.injector = BusFaultInjector(fault_plan)
        for name in BUS_DIRECTIONS:
            setattr(
                self,
                name,
                Channel(name, engine, capacity, injector=self.injector, trace=trace),
            )

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Injector RNG streams (the only bus state that must survive a
        resume; undelivered in-flight messages do not — a restarted
        controller re-attaches to a live transport, and sequence-number
        suppression makes any stragglers harmless)."""
        return {
            "injector": None if self.injector is None else self.injector.state_dict()
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("injector") is not None:
            if self.injector is None:
                raise ValueError(
                    "snapshot carries bus injector state but this bus has no fault plan"
                )
            self.injector.load_state_dict(state["injector"])
