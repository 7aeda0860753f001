"""Fleet-level fault plans: node churn composed over per-node faults.

A :class:`FleetFaultPlan` extends the single-node :class:`FaultPlan` idea
one level up, and keeps its contract: *pure data, bitwise replayable*.
The plan composes

* **per-node FaultPlans** — each node of the fleet may carry its own
  sensor/actuator fault plan (armed by the lifecycle through the existing
  :class:`~repro.faults.injectors.FaultHarness`), with per-node derived
  seeds so node ``k``'s fault stream never depends on its siblings, and
* **fleet events** (:class:`FleetEvent`) — machine-level failures the
  single-node injectors cannot express: a node crash (with the implied
  restart after ``duration``), a correlated rack failure taking out a
  contiguous node range at once, and a telemetry partition during which a
  node's sensor messages stop reaching the power-cap coordinator (the
  coordinator keeps seeing the node's last energy counter).

The lifecycle that interprets the plan lives in
:mod:`repro.cluster.lifecycle`; recovery behaviour (retry budget and
exponential backoff for requests evacuated off a dying node, the
recovering dwell time at the floor frequency cap) is part of the plan so
a chaos scenario is one self-contained, cacheable value.

An empty plan (``FleetFaultPlan()``) is the documented no-op: the cluster
harness skips building the lifecycle entirely, so a faultless chaos run
is bitwise identical to a plain fleet run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..parallel.cells import derive_seed
from .plan import FaultPlan

__all__ = [
    "FLEET_FAULT_KINDS",
    "FleetEvent",
    "FleetFaultPlan",
    "standard_chaos_plan",
]


#: Fleet-event kinds understood by the node lifecycle.
FLEET_FAULT_KINDS = (
    "node.crash",            # node `node` goes down for `duration`, then restarts
    "rack.fail",             # nodes [node, node + span) crash together for `duration`
    "telemetry.partition",   # node `node`'s sensor messages stop reaching the
                             # coordinator for `duration`
)


@dataclass(frozen=True)
class FleetEvent:
    """One scheduled fleet fault: a ``[time, time + duration)`` window."""

    time: float
    kind: str
    #: First (or only) node the event hits.
    node: int = 0
    duration: float = 0.0
    #: Contiguous node count for ``rack.fail`` (ignored by other kinds).
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FLEET_FAULT_KINDS:
            raise ValueError(
                f"unknown fleet fault kind {self.kind!r}; known: {FLEET_FAULT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fleet fault time must be >= 0, got {self.time!r}")
        if self.duration <= 0:
            raise ValueError(
                f"fleet fault duration must be > 0, got {self.duration!r} "
                "(all fleet events are windows: down time, partition length)"
            )
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node!r}")
        if self.span < 1:
            raise ValueError(f"span must be >= 1, got {self.span!r}")

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class FleetFaultPlan:
    """A reproducible fleet chaos scenario (pure data).

    ``node_plans`` maps node ids to single-node :class:`FaultPlan` values;
    ``events`` is the fleet-level schedule.  Recovery knobs:

    retry_budget:
        How many times a request evacuated off a dying node may be
        re-dispatched before it is dropped (0 = always drop).
    retry_backoff:
        Base delay before the k-th re-dispatch: ``retry_backoff * 2**k``
        seconds (exponential backoff on the shared virtual clock).
    recovery_time:
        Dwell in the ``recovering`` state after a restart, during which a
        power-cap coordinator holds the node at the floor frequency cap.
    drop_in_flight:
        When True, evacuated requests are dropped-with-trace instead of
        re-dispatched (the retry budget is ignored).
    """

    events: Tuple[FleetEvent, ...] = ()
    #: ``(node_id, FaultPlan)`` pairs, at most one per node.
    node_plans: Tuple[Tuple[int, FaultPlan], ...] = ()
    seed: int = 0
    retry_budget: int = 2
    retry_backoff: float = 0.05
    recovery_time: float = 1.0
    drop_in_flight: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget!r}")
        if self.retry_backoff <= 0:
            raise ValueError(
                f"retry_backoff must be > 0, got {self.retry_backoff!r}"
            )
        if self.recovery_time < 0:
            raise ValueError(
                f"recovery_time must be >= 0, got {self.recovery_time!r}"
            )
        seen = set()
        for node_id, plan in self.node_plans:
            if node_id < 0:
                raise ValueError(f"node_plans node id must be >= 0, got {node_id!r}")
            if node_id in seen:
                raise ValueError(f"duplicate node plan for node {node_id}")
            if not isinstance(plan, FaultPlan):
                raise TypeError(
                    f"node_plans values must be FaultPlan, got {type(plan).__name__}"
                )
            seen.add(node_id)
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: (e.time, e.node, e.kind))),
        )
        object.__setattr__(
            self, "node_plans", tuple(sorted(self.node_plans, key=lambda p: p[0]))
        )

    # ------------------------------------------------------------------ views

    @property
    def is_empty(self) -> bool:
        """True when interpreting this plan would be a guaranteed no-op."""
        return not self.events and all(p.is_empty for _, p in self.node_plans)

    def events_of(self, kind: str) -> Tuple[FleetEvent, ...]:
        """Scheduled fleet events of exactly ``kind``, in time order."""
        return tuple(e for e in self.events if e.kind == kind)


def standard_chaos_plan(
    intensity: float,
    num_nodes: int,
    duration: float,
    *,
    seed: int = 0,
    retry_budget: int = 2,
    retry_backoff: float = 0.05,
    recovery_time: float | None = None,
    drop_in_flight: bool = False,
) -> FleetFaultPlan:
    """The canonical chaos scenario the ``chaos`` experiment sweeps.

    ``intensity`` scales both the outage lengths and the per-node
    stochastic fault rates; the deterministic backbone — one node crash,
    one correlated rack failure over a contiguous range, one telemetry
    partition — is included whenever ``intensity > 0``.  ``intensity == 0``
    returns the empty plan (a no-fault baseline run).
    """
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity!r}")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration!r}")
    if intensity == 0.0:
        return FleetFaultPlan(seed=seed)
    scale = min(intensity, 1.0)
    down = 0.2 * duration * scale
    recovery = recovery_time if recovery_time is not None else 0.05 * duration
    events = [
        # One machine dies a quarter of the way in.
        FleetEvent(0.25 * duration, "node.crash", node=1 % num_nodes, duration=down),
        # A telemetry partition blinds the coordinator to node 0 for a while.
        FleetEvent(
            0.40 * duration,
            "telemetry.partition",
            node=0,
            duration=0.15 * duration * scale,
        ),
    ]
    if num_nodes >= 2:
        # A correlated rack failure hits a contiguous range in the upper half.
        events.append(
            FleetEvent(
                0.55 * duration,
                "rack.fail",
                node=num_nodes // 2,
                span=max(1, num_nodes // 4),
                duration=0.5 * down,
            )
        )
    node_plans = tuple(
        (
            i,
            FaultPlan(
                seed=derive_seed(seed, "chaos-node", i),
                dvfs_fail_prob=min(0.02 * intensity, 1.0),
            ),
        )
        for i in range(num_nodes)
    )
    return FleetFaultPlan(
        events=tuple(events),
        node_plans=node_plans,
        seed=seed,
        retry_budget=retry_budget,
        retry_backoff=retry_backoff,
        recovery_time=recovery,
        drop_in_flight=drop_in_flight,
    )
