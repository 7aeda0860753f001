"""Fleet dispatcher: split one arrival stream across nodes.

The cluster plays a *single* diurnal RPS trace through one
:class:`~repro.workload.arrivals.OpenLoopSource` whose sink is
:meth:`Dispatcher.submit`; the dispatcher picks a node per request via a
pluggable router.  Three routers cover the classic trade-off space:

* :class:`RoundRobinRouter` — oblivious cycling; the fairness baseline.
* :class:`JoinShortestQueueRouter` — classic JSQ on instantaneous backlog
  (queued + in-service); near-optimal for homogeneous servers.
* :class:`PowerAwareRouter` — backlog weighted by current worker-core
  compute capacity (sum of GHz), so nodes the power-cap coordinator
  throttled — or whose policy parked cores at low frequency — receive
  proportionally less traffic.  This is the routing half of the
  hierarchical dispatch + per-server power management split of Liu et
  al.'s cloud resource-allocation framework.

Routers are deterministic functions of observable node state (no RNG), so
fleet runs stay seed-reproducible: same seed, same arrivals, same routing
decisions.  Ties break toward the first candidate, which is the lowest
node id.  They read that state from the
:class:`~repro.cluster.batch.FleetBatch` the dispatcher builds over its
nodes — stacked backlog and frequency arrays kept current by node hooks —
so a decision costs a few vector ops at any fleet size.

Health awareness lives one level up, in :class:`Dispatcher`: routers only
ever see the *candidate* ids — down nodes are filtered out before
``select_batch`` runs, and degraded nodes are probabilistically de-weighted
(dropped from the candidate set with probability ``DEGRADED_PENALTY``,
never hard-excluded) whenever a non-degraded alternative exists.  The
de-weighting RNG is a dedicated seeded stream, and it is only drawn when a
degraded candidate actually exists, so fault-free fleets make bitwise the
same routing decisions as a dispatcher with health awareness disabled.
:class:`StragglerDetector` closes the loop, flipping nodes between
``healthy`` and ``degraded`` from windowed tail-latency observations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .batch import FleetBatch
from .node import DEGRADED, HEALTHY, ClusterNode

__all__ = [
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "PowerAwareRouter",
    "ROUTERS",
    "Dispatcher",
    "StragglerDetector",
    "DEGRADED_PENALTY",
    "STRAGGLER_MULTIPLE",
]

#: Probability a degraded node is dropped from the candidate set for one
#: routing decision (it stays routable when no healthy alternative exists).
DEGRADED_PENALTY = 0.5
#: A node whose window p99 exceeds this multiple of the fleet median
#: window p99 is marked degraded.
STRAGGLER_MULTIPLE = 3.0


class Router:
    """Routing policy: pick the candidate for the next request."""

    name = "abstract"

    def select_batch(self, batch: FleetBatch, cand_idx: np.ndarray) -> int:
        """Position in ``cand_idx`` (candidate node ids) of the chosen node."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through nodes in id order, one request each.

    The cursor tracks *node ids*, not list positions, so the rotation stays
    stable when the candidate list shrinks mid-run (a node went down): the
    next request goes to the first surviving node at-or-after the cursor,
    wrapping cyclically.  On a full, never-shrinking fleet this reduces
    exactly to ``0, 1, ..., N-1, 0, ...``.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select_batch(self, batch: FleetBatch, cand_idx: np.ndarray) -> int:
        # cand_idx holds node ids in ascending order, so the first
        # candidate at or after the cursor is a searchsorted.
        pos = int(np.searchsorted(cand_idx, self._next))
        if pos == cand_idx.size:  # cursor past every candidate: wrap
            pos = 0
        self._next = int(cand_idx[pos]) + 1
        return pos


class JoinShortestQueueRouter(Router):
    """Send each request to the node with the smallest backlog.

    Backlog counts queued *and* in-service requests — plain queue length
    would read an all-workers-busy, empty-queue node as idle.
    """

    name = "jsq"

    def select_batch(self, batch: FleetBatch, cand_idx: np.ndarray) -> int:
        # argmin returns the first minimum: ties go to the first candidate
        # (backlogs are exact integers).
        return int(np.argmin(batch.backlog[cand_idx]))


class PowerAwareRouter(Router):
    """JSQ weighted by each node's current frequency: argmin backlog/GHz.

    The drain-time estimate for node ``i`` is ``(backlog_i + 1) /
    capacity_i`` where capacity is the summed worker-core frequency — the
    ``+ 1`` accounts for the request being routed, so an idle slow node
    does not tie an idle fast one.  Nodes the coordinator throttled to a
    low ceiling look slower and shed load to unthrottled siblings, which
    is what lets a power-capped fleet keep tail latency: traffic follows
    the watts.
    """

    name = "power-aware"

    def select_batch(self, batch: FleetBatch, cand_idx: np.ndarray) -> int:
        # A fully-parked node still drains eventually; the 1e-9 floor keeps
        # its cost finite so it can be chosen once every alternative is
        # worse.  argmin breaks ties toward the first candidate.
        caps = batch.worker_capacities(cand_idx)
        np.maximum(caps, 1e-9, out=caps)
        cost = (batch.backlog[cand_idx] + 1) / caps
        return int(np.argmin(cost))


#: Routing-policy name -> zero-argument constructor.
ROUTERS: Dict[str, Callable[[], Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    PowerAwareRouter.name: PowerAwareRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown routing policy {name!r}; available: {sorted(ROUTERS)}"
        ) from None


class Dispatcher:
    """Route requests from one shared arrival stream onto fleet nodes.

    ``submit`` is the sink handed to the fleet's
    :class:`~repro.workload.arrivals.OpenLoopSource`; per-node routed
    counts live on the nodes themselves (``node.routed``).  The dispatcher
    builds the fleet's :class:`~repro.cluster.batch.FleetBatch` over
    ``nodes`` (exposed as ``batch``), so construct it before any request
    flows.

    Parameters
    ----------
    health_aware:
        When True (the default), down nodes are removed from the candidate
        set before routing and degraded nodes are probabilistically
        de-weighted.  The no-failover ablation sets this False: the router
        keeps addressing dead nodes, whose queues silently grow.
    rng:
        Seeded stream for degraded de-weighting.  Only consulted when a
        degraded candidate coexists with a healthy one, so fault-free
        fleets draw nothing and stay bitwise reproducible.
    on_unroutable:
        Callback for requests with zero live candidates (entire fleet
        down).  Default: mark the request dropped.
    """

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        router: Router,
        *,
        health_aware: bool = True,
        rng: Optional[np.random.Generator] = None,
        on_unroutable: Optional[Callable] = None,
    ) -> None:
        if not nodes:
            raise ValueError("dispatcher needs at least one node")
        self.nodes: List[ClusterNode] = list(nodes)
        self.router = router
        self.health_aware = bool(health_aware)
        self.rng = rng
        self.on_unroutable = on_unroutable
        self.dispatched = 0
        #: Requests that found no live node to run on.
        self.unroutable = 0
        #: Stacked backlog / frequency / health state of ``nodes``, kept
        #: current by node hooks; routers and candidate filtering read it.
        self.batch = FleetBatch(self.nodes)

    def submit(self, req) -> None:
        """Route one request: filter candidates, then ask the router.

        Down nodes are dropped first, then each degraded candidate is
        dropped with probability :data:`DEGRADED_PENALTY` — one ``rng`` draw
        per degraded candidate, in node-id order.
        """
        batch = self.batch
        if self.health_aware:
            live_idx, deg_mask, n_deg = batch.live_candidates()
            if live_idx.size == 0:
                self.unroutable += 1
                if self.on_unroutable is not None:
                    self.on_unroutable(req)
                else:
                    req.dropped = True
                return
            if self.rng is None or n_deg == 0 or n_deg == live_idx.size:
                # Nothing to de-weight, or no healthy alternative to shed to.
                cand_idx = live_idx
            else:
                draws = self.rng.random(n_deg)
                keep = np.ones(live_idx.size, dtype=bool)
                keep[deg_mask] = draws >= DEGRADED_PENALTY
                cand_idx = live_idx[keep]
                if cand_idx.size == 0:
                    cand_idx = live_idx[~deg_mask]
        else:
            cand_idx = batch.all_indices
        pos = self.router.select_batch(batch, cand_idx)
        if not 0 <= pos < cand_idx.size:
            raise IndexError(
                f"router {self.router.name!r} selected node {pos} "
                f"of {cand_idx.size}"
            )
        self.dispatched += 1
        self.nodes[int(cand_idx[pos])].submit(req)

    def routed_counts(self) -> List[int]:
        """Requests routed to each node so far, in node-id order."""
        return [node.routed for node in self.nodes]


class StragglerDetector:
    """Flag nodes whose recent tail latency strays far above the fleet.

    Periodically (driven by the cluster harness) computes each node's p99
    over the completions that landed since the previous check and compares
    it to the fleet-wide median of those window p99s: a node above
    :data:`STRAGGLER_MULTIPLE` x the median is marked ``degraded``; a
    degraded node back within bounds is restored to ``healthy``.  Only the
    healthy <-> degraded edge is touched — down/recovering nodes belong to
    the lifecycle, though their completion cursor still advances so stale
    samples cannot condemn a node that just came back.
    """

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        *,
        min_samples: int = 5,
        on_change: Optional[Callable[[ClusterNode, str], None]] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.min_samples = int(min_samples)
        self.on_change = on_change
        self._seen = [0] * len(self.nodes)
        #: (node_id, new_state) transitions, for tests/diagnostics.
        self.transitions: List[tuple] = []

    def check(self) -> None:
        """One detection pass over the window since the previous call."""
        window_p99 = []
        for i, node in enumerate(self.nodes):
            lats = node.server.metrics.latencies
            fresh = lats[self._seen[i]:]
            self._seen[i] = len(lats)
            if len(fresh) >= self.min_samples:
                window_p99.append(float(np.quantile(fresh, 0.99)))
            else:
                window_p99.append(float("nan"))
        finite = [p for p in window_p99 if np.isfinite(p)]
        if len(finite) < 2:
            return
        median = float(np.median(finite))
        if median <= 0.0:
            return
        for node, p99 in zip(self.nodes, window_p99):
            if node.state not in (HEALTHY, DEGRADED):
                continue
            if np.isfinite(p99) and p99 > STRAGGLER_MULTIPLE * median:
                if node.state == HEALTHY:
                    self._flip(node, DEGRADED)
            elif node.state == DEGRADED and np.isfinite(p99):
                self._flip(node, HEALTHY)

    def _flip(self, node: ClusterNode, state: str) -> None:
        node.state = state
        self.transitions.append((node.node_id, state))
        if self.on_change is not None:
            self.on_change(node, state)
