"""Node lifecycle: interpret a FleetFaultPlan against a live fleet.

:class:`NodeLifecycle` is the fleet-level counterpart of
:class:`~repro.faults.injectors.FaultHarness`: it schedules the plan's
fleet events (crashes, rack failures, telemetry partitions) on the shared
engine, drives each node through ``healthy → down → recovering → healthy``
transitions, arms the plan's per-node single-node fault harnesses, and
accounts downtime so per-node availability falls out of the run.

Crash semantics
---------------
A crash evacuates the node's server (:meth:`~repro.server.server.Server.
evacuate`): in-flight requests are aborted with their runtime stamps
reset, queued ones are popped, and the server is left *paused* — while
down, anything a non-health-aware dispatcher still routes at it piles up
in the queue unserved (the failure mode the no-failover ablation
measures).  Each evacuated request is either dropped-with-trace or
re-dispatched through the fleet dispatcher after an exponential-backoff
delay (``retry_backoff * 2**retries``), up to the plan's retry budget.

A restart resumes the server (draining the mailbox), moves the node to
``recovering`` — during which a power-cap coordinator pins it at the
floor frequency cap — and promotes it back to ``healthy`` after the
plan's ``recovery_time``.  A crash landing mid-recovery bumps a per-node
generation counter so the stale promotion is ignored.

Everything is scheduled from plan data on the shared engine, so two runs
at the same seed replay the identical fault history bit for bit.

Fleet-batch interplay
---------------------
The dispatcher's :class:`~repro.cluster.batch.FleetBatch` needs no
lifecycle code: state flips flow through the ``ClusterNode.state`` setter
into the batch's down/degraded masks, ``evacuate()`` fires the server's
reset hook (zeroing the stacked backlog entry), and parked-core writes
land in the stacked frequency rows through each core's own write.  Fault
events share ``PRIORITY_CONTROL`` with controller ticks, but every fault
event coinciding with a tick time was scheduled strictly earlier in
simulated time than that tick's reschedule (ticks re-arm one short-time
ahead), so faults pop before ticks under both per-node and fleet-wide
tick tasks — event order, and therefore the trace byte stream, is
identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..faults.fleet import FleetFaultPlan
from ..faults.injectors import FaultHarness
from ..sim.engine import Engine
from ..sim.events import PRIORITY_CONTROL
from ..workload.request import Request
from .dispatch import Dispatcher
from .node import DOWN, HEALTHY, RECOVERING, ClusterNode

__all__ = ["NodeLifecycle"]


class NodeLifecycle:
    """Schedule and apply a :class:`FleetFaultPlan` to a running fleet."""

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[ClusterNode],
        plan: FleetFaultPlan,
        dispatcher: Dispatcher,
        coordinator: Any = None,
        trace: Any = None,
    ) -> None:
        self.engine = engine
        self.nodes = list(nodes)
        self.plan = plan
        self.dispatcher = dispatcher
        self.coordinator = coordinator
        self.trace = trace
        self.harnesses: List[FaultHarness] = []
        self._partition_until: Dict[int, float] = {}
        # Stale-promotion guard: a crash during recovery bumps the node's
        # generation, invalidating the already-scheduled promotion.
        self._recovery_gen = [0] * len(self.nodes)
        self._down_since: Dict[int, float] = {}
        self.downtime = [0.0] * len(self.nodes)
        self.crashes = 0
        self.dropped = 0
        self.redispatches = 0
        self.partitions = 0

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Schedule every plan event and arm per-node fault harnesses."""
        node_map = {n.node_id: n for n in self.nodes}
        for node_id, node_plan in self.plan.node_plans:
            node = node_map.get(node_id)
            if node is None or node_plan.is_empty:
                continue
            harness = FaultHarness(
                node_plan,
                self.engine,
                cpu=node.cpu,
                monitor=node.monitor,
                telemetry=node.server.telemetry,
            )
            harness.arm()
            self.harnesses.append(harness)
        for ev in self.plan.events:
            if ev.kind == "node.crash":
                self._schedule_crash(ev.node, ev.time, ev.duration)
            elif ev.kind == "rack.fail":
                for node_id in range(ev.node, ev.node + ev.span):
                    self._schedule_crash(node_id, ev.time, ev.duration)
            elif ev.kind == "telemetry.partition":
                self.engine.schedule_at(
                    ev.time,
                    self._partition,
                    ev.node,
                    ev.duration,
                    priority=PRIORITY_CONTROL,
                )

    def finalize(self, t_end: float) -> None:
        """Close downtime accounting for nodes still down at run end."""
        for node_id, since in list(self._down_since.items()):
            self.downtime[node_id] += max(0.0, t_end - since)
            del self._down_since[node_id]

    def availability(self, t_end: float) -> List[float]:
        """Per-node up-fraction of ``[0, t_end]`` (1.0 = never down)."""
        if t_end <= 0:
            return [1.0] * len(self.nodes)
        return [1.0 - min(d, t_end) / t_end for d in self.downtime]

    def is_partitioned(self, node_id: int) -> bool:
        """Whether the node's sensor messages are currently being lost."""
        until = self._partition_until.get(node_id)
        return until is not None and self.engine.now < until

    # ---------------------------------------------------------------- crashes

    def _schedule_crash(self, node_id: int, time: float, duration: float) -> None:
        if not 0 <= node_id < len(self.nodes):
            return
        self.engine.schedule_at(
            time, self._crash, node_id, duration, priority=PRIORITY_CONTROL
        )

    def _crash(self, node_id: int, duration: float) -> None:
        node = self.nodes[node_id]
        if node.state == DOWN:
            return
        self._recovery_gen[node_id] += 1
        node.state = DOWN
        self.crashes += 1
        now = self.engine.now
        self._down_since[node_id] = now
        evacuated = node.server.evacuate()
        # Park the dead node's cores: a crashed machine draws its idle
        # floor, not whatever frequency its policy last requested.
        node.cpu.set_all_frequencies(node.cpu.table.fmin)
        if self.trace is not None:
            self.trace.emit(
                "node-down",
                t=now,
                node=node_id,
                evacuated=len(evacuated),
                downtime=duration,
            )
        for req in evacuated:
            self._handle_evacuated(req, node_id)
        if self.coordinator is not None:
            self.coordinator.on_membership_change()
        self.engine.schedule_at(
            now + duration, self._restart, node_id, priority=PRIORITY_CONTROL
        )

    def _restart(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.state != DOWN:  # pragma: no cover - crash guard keeps one restart
            return
        now = self.engine.now
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self.downtime[node_id] += now - since
        node.state = RECOVERING
        node.server.resume()
        if self.trace is not None:
            self.trace.emit("node-up", t=now, node=node_id)
        if self.coordinator is not None:
            self.coordinator.on_membership_change()
        gen = self._recovery_gen[node_id]
        self.engine.schedule_at(
            now + self.plan.recovery_time,
            self._recovered,
            node_id,
            gen,
            priority=PRIORITY_CONTROL,
        )

    def _recovered(self, node_id: int, gen: int) -> None:
        node = self.nodes[node_id]
        if gen != self._recovery_gen[node_id] or node.state != RECOVERING:
            return
        node.state = HEALTHY
        if self.trace is not None:
            self.trace.emit("node-recovered", t=self.engine.now, node=node_id)
        if self.coordinator is not None:
            self.coordinator.on_membership_change()

    # ------------------------------------------------------------- evacuation

    def _handle_evacuated(self, req: Request, from_node: Optional[int]) -> None:
        if self.plan.drop_in_flight or req.retries >= self.plan.retry_budget:
            req.dropped = True
            self.dropped += 1
            if self.trace is not None:
                self.trace.emit(
                    "request-drop",
                    t=self.engine.now,
                    req_id=req.req_id,
                    node=from_node,
                    retries=req.retries,
                )
            return
        delay = self.plan.retry_backoff * (2.0 ** req.retries)
        req.retries += 1
        self.redispatches += 1
        if self.trace is not None:
            self.trace.emit(
                "redispatch",
                t=self.engine.now,
                req_id=req.req_id,
                node=from_node,
                retries=req.retries,
                delay=delay,
            )
        self.engine.schedule_after(
            delay, self.dispatcher.submit, req, priority=PRIORITY_CONTROL
        )

    def handle_unroutable(self, req: Request) -> None:
        """Dispatcher callback: no live node for ``req`` — retry or drop."""
        self._handle_evacuated(req, None)

    # ------------------------------------------------------------- partitions

    def _partition(self, node_id: int, duration: float) -> None:
        now = self.engine.now
        self._partition_until[node_id] = now + duration
        self.partitions += 1
        if self.trace is not None:
            self.trace.emit(
                "telemetry-partition", t=now, node=node_id, duration=duration
            )
