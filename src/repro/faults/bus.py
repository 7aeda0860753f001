"""Control-plane (bus) fault plans: lossy sensor/actuator messaging.

A :class:`BusFaultPlan` describes how the in-process control bus
(:mod:`repro.control.bus`) misbehaves, with the same contract as
:class:`~repro.faults.plan.FaultPlan` and
:class:`~repro.faults.fleet.FleetFaultPlan`: *pure data, seed-
deterministic, bitwise replayable*.  The plan composes

* **per-direction link faults** (:class:`LinkFaults`) — independent
  drop / delay / duplicate / reorder probabilities for each of the three
  message directions (``sensor`` readings node→controller, ``command``
  actuations controller→node, ``ack`` confirmations node→controller),
  each direction drawing from its own derived RNG stream so the sensor
  path's fault history never depends on the command path's, and
* **scheduled partitions** (:class:`BusEvent`) — windows during which a
  direction (or ``all`` of them) delivers nothing, the message-layer
  analogue of :data:`~repro.faults.fleet.FLEET_FAULT_KINDS`'s
  ``telemetry.partition``.

The interpreter (:class:`repro.control.bus.BusFaultInjector`) draws a
fixed number of uniforms per published message, so the fault stream of a
run depends only on ``(plan, message sequence)`` — two runs of the same
plan against the same workload are bitwise identical.

An empty plan (``BusFaultPlan()``) is the documented no-op: the bus skips
building the injector entirely, so a faultless run draws no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "BUS_DIRECTIONS",
    "BUS_FAULT_KINDS",
    "LinkFaults",
    "BusEvent",
    "BusFaultPlan",
    "standard_bus_plan",
]

#: Message directions a plan can target.
BUS_DIRECTIONS = ("sensor", "command", "ack")

#: Scheduled-event kinds understood by the bus fault injector.
BUS_FAULT_KINDS = ("bus.partition",)


@dataclass(frozen=True)
class LinkFaults:
    """Stochastic fault rates for one message direction.

    ``delay`` is the extra delivery latency (seconds) applied to delayed,
    reordered and duplicated copies; a *reordered* message is simply one
    delayed past its successor, which is how real reordering manifests to
    a sequence-numbered receiver.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    #: Extra delivery latency for delayed/reordered/duplicate copies (s).
    delay: float = 0.05
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "delay_prob", "duplicate_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay!r}")

    @property
    def is_empty(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.delay_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.reorder_prob == 0.0
        )

    def payload(self) -> tuple:
        """Plain-data tuple for content-addressed cache keys."""
        return (
            self.drop_prob,
            self.delay_prob,
            self.delay,
            self.duplicate_prob,
            self.reorder_prob,
        )


@dataclass(frozen=True)
class BusEvent:
    """One scheduled bus partition: a ``[time, time + duration)`` window."""

    time: float
    duration: float
    #: ``sensor`` | ``command`` | ``ack`` | ``all``.
    direction: str = "all"
    kind: str = "bus.partition"

    def __post_init__(self) -> None:
        if self.kind not in BUS_FAULT_KINDS:
            raise ValueError(
                f"unknown bus fault kind {self.kind!r}; known: {BUS_FAULT_KINDS}"
            )
        if self.direction not in BUS_DIRECTIONS + ("all",):
            raise ValueError(
                f"unknown bus direction {self.direction!r}; "
                f"known: {BUS_DIRECTIONS + ('all',)}"
            )
        if self.time < 0:
            raise ValueError(f"bus fault time must be >= 0, got {self.time!r}")
        if self.duration <= 0:
            raise ValueError(
                f"bus fault duration must be > 0, got {self.duration!r} "
                "(partitions are windows)"
            )

    @property
    def end(self) -> float:
        return self.time + self.duration

    def hits(self, direction: str) -> bool:
        return self.direction == "all" or self.direction == direction


@dataclass(frozen=True)
class BusFaultPlan:
    """A reproducible control-bus fault scenario (pure data)."""

    sensor: LinkFaults = field(default_factory=LinkFaults)
    command: LinkFaults = field(default_factory=LinkFaults)
    ack: LinkFaults = field(default_factory=LinkFaults)
    events: Tuple[BusEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in BUS_DIRECTIONS:
            link = getattr(self, name)
            if not isinstance(link, LinkFaults):
                raise TypeError(
                    f"{name} must be LinkFaults, got {type(link).__name__}"
                )
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: (e.time, e.direction, e.kind))),
        )

    # ------------------------------------------------------------------ views

    @property
    def is_empty(self) -> bool:
        """True when interpreting this plan would be a guaranteed no-op."""
        return not self.events and all(
            getattr(self, d).is_empty for d in BUS_DIRECTIONS
        )

    def link(self, direction: str) -> LinkFaults:
        if direction not in BUS_DIRECTIONS:
            raise KeyError(
                f"unknown bus direction {direction!r}; known: {BUS_DIRECTIONS}"
            )
        return getattr(self, direction)

    def partitions(self, direction: str) -> Tuple[Tuple[float, float], ...]:
        """``(start, end)`` partition windows covering ``direction``."""
        return tuple(
            (e.time, e.end) for e in self.events if e.hits(direction)
        )

    def payload(self) -> tuple:
        """Plain-data value for content-addressed cache keys."""
        return (
            self.seed,
            tuple(getattr(self, d).payload() for d in BUS_DIRECTIONS),
            tuple((e.time, e.duration, e.direction, e.kind) for e in self.events),
        )


def standard_bus_plan(
    intensity: float,
    duration: float,
    *,
    seed: int = 0,
    long_time: float = 1.0,
) -> BusFaultPlan:
    """The canonical lossy-bus scenario the ``control-soak`` experiment sweeps.

    ``intensity`` scales both the partition lengths and the stochastic
    per-message fault rates; the deterministic backbone — one all-direction
    partition across the workload's diurnal peak plus an earlier
    sensor-only partition — is included whenever ``intensity > 0``.
    ``intensity == 0`` returns the empty plan (a fault-free bus run).

    The all-direction partition is what separates degraded-mode control
    from the ablation: a controller that detects the stale window
    escalates to the safe governor and rides out the peak at turbo, while
    a naive controller holds whatever low-power action it chose during the
    preceding trough and blows the SLA.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity!r}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration!r}")
    if long_time <= 0:
        raise ValueError(f"long_time must be > 0, got {long_time!r}")
    if intensity == 0.0:
        return BusFaultPlan(seed=seed)
    scale = min(intensity, 1.0)
    # Delayed copies land after the next on-time message so the receiver
    # observes genuine reordering (the successor overtakes them).
    delay = 1.5 * long_time
    noisy = LinkFaults(
        drop_prob=min(0.20 * intensity, 0.9),
        delay_prob=min(0.10 * intensity, 0.9),
        delay=delay,
        duplicate_prob=min(0.10 * intensity, 0.5),
        reorder_prob=min(0.08 * intensity, 0.5),
    )
    events = (
        # An early sensor-only partition: the controller goes blind while
        # its commands still land (exercises stale-hold without escalation
        # when short, with escalation when intensity stretches it).
        BusEvent(0.12 * duration, 0.08 * duration * scale, direction="sensor"),
        # The main outage: both directions dark across the diurnal peak.
        # The evaluation traces put their peak around 70% of the run, so
        # the window opens in the preceding trough (freezing a low-power
        # action in an undefended controller) and stays dark through the
        # peak itself at any intensity >~ 0.5.
        BusEvent(0.60 * duration, 0.25 * duration * scale, direction="all"),
    )
    return BusFaultPlan(
        sensor=noisy,
        command=noisy,
        ack=LinkFaults(drop_prob=min(0.15 * intensity, 0.9), delay=delay),
        events=events,
        seed=seed,
    )
