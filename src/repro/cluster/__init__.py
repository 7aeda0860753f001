"""Cluster fleet simulation: many DeepPower-managed nodes behind a dispatcher.

The paper manages one 20-core machine; a production deployment is a *fleet*
of such machines behind a load balancer, sharing one arrival stream and one
facility power budget.  This package adds that layer on top of the
single-node stack without modifying it:

* :class:`ClusterNode` — one simulated machine (its own
  :class:`~repro.cpu.topology.Cpu`, :class:`~repro.server.server.Server`
  and RAPL-style :class:`~repro.cpu.rapl.PowerMonitor`) running any
  existing per-node power policy (a baseline or a frozen DeepPower agent),
  all on one shared :class:`~repro.sim.engine.Engine` clock
  (:mod:`repro.cluster.node`),
* :class:`Dispatcher` + pluggable routers — round-robin, join-shortest-queue
  and frequency-weighted power-aware routing splitting one shared arrival
  stream across nodes (:mod:`repro.cluster.dispatch`),
* :class:`PowerCapCoordinator` — apportions a global cluster power budget
  across nodes every window from RAPL-style readings, throttling each
  node's frequency ceiling (including turbo eligibility) and
  redistributing headroom from idle nodes to loaded ones
  (:mod:`repro.cluster.powercap`),
* :class:`ClusterSim` / :func:`run_cluster` / :class:`FleetSpec` — the
  fleet harness, its traced run, and a picklable grid cell (a
  :class:`ClusterConfig` plus its trace) so fleet experiments fan out through
  :func:`repro.parallel.run_grid` exactly like single-node grids
  (:mod:`repro.cluster.sim`),
* :class:`NodeLifecycle` + :class:`StragglerDetector` — the resilience
  layer: node crash/restart/recovery driven by a seed-deterministic
  :class:`~repro.faults.FleetFaultPlan`, failover re-dispatch with retry
  budgets and exponential backoff, health-aware routing that skips down
  nodes and de-weights degraded ones, and membership-aware power-budget
  redistribution (:mod:`repro.cluster.lifecycle`,
  :mod:`repro.cluster.dispatch`).

Fleet runs are seed-deterministic (one engine, per-node namespaced RNG
streams) and emit ``node``-tagged observability events that
``deeppower trace summarize --group-by node`` aggregates back into
per-node and fleet-wide tables.
"""

from .dispatch import (
    ROUTERS,
    Dispatcher,
    JoinShortestQueueRouter,
    PowerAwareRouter,
    RoundRobinRouter,
    StragglerDetector,
)
from .lifecycle import NodeLifecycle
from .node import (
    DEGRADED,
    DOWN,
    HEALTHY,
    NODE_POLICIES,
    NODE_STATES,
    RECOVERING,
    ClusterNode,
    NodeContext,
    build_node_driver,
)
from .powercap import CapWindow, PowerCapCoordinator
from .sim import (
    ClusterConfig,
    ClusterSim,
    FleetMetrics,
    FleetSpec,
    fleet_power_budget,
    fleet_trace,
    run_cluster,
)

__all__ = [
    "ClusterNode",
    "NodeContext",
    "NODE_POLICIES",
    "build_node_driver",
    "Dispatcher",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "PowerAwareRouter",
    "ROUTERS",
    "PowerCapCoordinator",
    "CapWindow",
    "ClusterConfig",
    "ClusterSim",
    "FleetMetrics",
    "FleetSpec",
    "fleet_trace",
    "fleet_power_budget",
    "run_cluster",
    "NodeLifecycle",
    "StragglerDetector",
    "HEALTHY",
    "DEGRADED",
    "DOWN",
    "RECOVERING",
    "NODE_STATES",
]
