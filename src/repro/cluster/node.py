"""One simulated machine of the fleet: Cpu + Server + a power policy.

A :class:`ClusterNode` is exactly the single-machine stack the rest of the
repo simulates — a socket (:class:`~repro.cpu.topology.Cpu`), a
latency-critical :class:`~repro.server.server.Server` and a RAPL-style
:class:`~repro.cpu.rapl.PowerMonitor` — except that it shares one
:class:`~repro.sim.engine.Engine` clock with its siblings and receives
requests from the fleet :class:`~repro.cluster.dispatch.Dispatcher`
instead of owning an arrival source.

Per-node randomness comes from a node-namespaced registry seeded with
``derive_seed(seed, "node", node_id)``, so node ``k`` of an N-node fleet
simulates the same world regardless of N or of its siblings' policies —
the same substream-splitting discipline the parallel grid uses for cells.

Policy drivers attach through the same factory protocol the single-node
runner uses; :func:`build_node_driver` resolves the policy name through
the baseline table it shares with the grid (:mod:`repro.parallel.cells`)
or builds a frozen evaluation-mode DeepPower runtime per node.  The
driver receives a :class:`NodeContext`, which is shaped like
:class:`~repro.experiments.runner.RunContext`
(``engine/cpu/server/monitor/rngs/app/...``) but is defined here to keep
the cluster package import-free of :mod:`repro.experiments` at module
level (the experiments package imports *us* through the fleet experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..cpu.rapl import PowerMonitor
from ..cpu.topology import Cpu
from ..parallel.cells import GRID_POLICIES, derive_seed, grid_policy
from ..server.server import Server
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..workload.apps import AppSpec

__all__ = [
    "NodeContext",
    "ClusterNode",
    "FixedControllerDriver",
    "AGENT_SEED",
    "NODE_POLICIES",
    "build_node_driver",
    "HEALTHY",
    "DEGRADED",
    "DOWN",
    "RECOVERING",
    "NODE_STATES",
]


# Node lifecycle states (healthy -> degraded -> down -> recovering).  Plain
# strings so they serialize directly into trace events.
HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"
RECOVERING = "recovering"
NODE_STATES = (HEALTHY, DEGRADED, DOWN, RECOVERING)


@dataclass
class NodeContext:
    """RunContext-shaped view of one node for policy-driver factories.

    Matches the attribute surface of
    :class:`~repro.experiments.runner.RunContext` (every baseline and the
    DeepPower runtime duck-type against it); ``source`` is ``None`` because
    fleet nodes are fed by the dispatcher, not by their own arrival source.
    """

    engine: Engine
    cpu: Cpu
    server: Server
    monitor: PowerMonitor
    rngs: RngRegistry
    app: AppSpec
    num_cores: int
    source: Any = None
    trace: Any = None
    obs: Any = None


class ClusterNode:
    """One machine of the fleet, on the shared engine clock.

    Parameters
    ----------
    engine:
        The fleet-wide simulation engine (shared clock; one heap).
    node_id:
        Stable index of this node (enters its RNG namespace and traces).
    app:
        Application profile served by this node's workers.
    num_cores:
        Socket size; the node runs one worker thread per core.
    seed:
        Fleet base seed; the node derives its own namespaced streams.
    """

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        app: AppSpec,
        num_cores: int,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.node_id = int(node_id)
        self.app = app
        self.seed = derive_seed(seed, "node", self.node_id)
        self.rngs = RngRegistry(self.seed)
        self.cpu = Cpu(engine, num_cores)
        self.server = Server(engine, self.cpu, app)
        self.monitor = PowerMonitor(engine, self.cpu)
        self.driver: Any = None
        #: Requests the dispatcher routed to this node.
        self.routed = 0
        #: Lifecycle state; immortal fleets (no fault plan) stay "healthy".
        self._state: str = HEALTHY
        # Fleet-batch hooks (None until a Dispatcher builds its batch): the
        # batch mirrors routed counts and lifecycle state into stacked arrays.
        self.on_routed: Optional[Callable[[], None]] = None
        self._state_listener: Optional[Callable[["ClusterNode"], None]] = None

    # ------------------------------------------------------------------ wiring

    def context(self) -> NodeContext:
        """The RunContext-shaped view policy factories receive."""
        return NodeContext(
            engine=self.engine,
            cpu=self.cpu,
            server=self.server,
            monitor=self.monitor,
            rngs=self.rngs,
            app=self.app,
            num_cores=self.cpu.num_cores,
        )

    def attach_driver(self, driver: Any) -> None:
        self.driver = driver

    def submit(self, req) -> None:
        """Dispatcher entry point: hand a routed request to the server."""
        self.routed += 1
        if self.on_routed is not None:
            self.on_routed()
        self.server.submit(req)

    # ------------------------------------------------------------------ health

    @property
    def state(self) -> str:
        return self._state

    @state.setter
    def state(self, value: str) -> None:
        self._state = value
        if self._state_listener is not None:
            self._state_listener(self)

    @property
    def is_down(self) -> bool:
        return self.state == DOWN

    @property
    def accepting(self) -> bool:
        """Whether a health-aware dispatcher may route new work here."""
        return self.state != DOWN

    # --------------------------------------------------------------- telemetry

    def queue_len(self) -> int:
        return len(self.server.queue)

    def busy_workers(self) -> int:
        return self.server.busy_workers()

    def backlog(self) -> int:
        """Requests queued or in flight on this node."""
        return len(self.server.queue) + self.server.busy_workers()

    def worker_capacity_ghz(self) -> float:
        """Aggregate compute capacity of the worker cores (sum of GHz).

        The power-aware router weights nodes by this: a node the
        coordinator throttled to a low frequency ceiling drains its queue
        slower and should receive proportionally less traffic.
        """
        freqs = self.cpu.frequencies()
        return float(freqs[: self.server.num_workers].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode(id={self.node_id}, cores={self.cpu.num_cores}, "
            f"workers={self.server.num_workers})"
        )


# ------------------------------------------------------------------- policies

#: Seed of the tuned DeepPower agent every ``deeppower`` node builds before
#: loading ``agent_path`` (``tuned_agent_setup``'s default).
AGENT_SEED = 7


def _deeppower_node_driver(node: ClusterNode, agent_path: Optional[str]):
    """A frozen, evaluation-mode DeepPower runtime for one node.

    Deferred imports: :mod:`repro.experiments` imports this package via the
    fleet experiment, so the dependency must stay runtime-only here.
    """
    from ..core.runtime import DeepPowerRuntime
    from ..experiments.fig7_main import tuned_agent_setup

    agent, cfg = tuned_agent_setup(AGENT_SEED, app=node.app)
    if agent_path is not None:
        agent.load(agent_path)
    cfg.train = False
    cfg.record_steps = False
    return DeepPowerRuntime(node.engine, node.server, node.monitor, agent, cfg)


def _baseline_node_driver(policy: str):
    def build(node: ClusterNode, agent_path):
        return grid_policy(policy)(node.context())

    return build


class FixedControllerDriver:
    """DeepPower's 1 ms thread controller with frozen ``(BaseFreq,
    ScalingCoef) = (0.35, 0.6)`` and no learner on top.

    The cheapest tick-driven node policy: per-request work is just the
    server pipeline, and the whole per-tick cost is Algorithm 1 itself —
    which makes it the policy the fleet-scaling benchmark uses to measure
    the fleet tick (:mod:`repro.cluster.batch`) at 4-1024 nodes, and a
    reasonable static operating point in its own right (the paper's Fig 4
    frequency floor).
    """

    def __init__(self, node: ClusterNode) -> None:
        from ..core.thread_controller import ThreadController

        self.controller = ThreadController(node.engine, node.server)
        self.controller.set_params(0.35, 0.6)

    def start(self) -> None:
        self.controller.start()

    def stop(self) -> None:
        self.controller.stop()


def _controller_node_driver(node: ClusterNode, agent_path: Optional[str]):
    return FixedControllerDriver(node)


#: Per-node policy name -> ``build(node, agent_path)``.
NODE_POLICIES: Dict[str, Callable] = {
    **{name: _baseline_node_driver(name) for name in GRID_POLICIES},
    "deeppower": _deeppower_node_driver,
    "controller": _controller_node_driver,
}


def build_node_driver(
    node: ClusterNode, policy: str, agent_path: Optional[str] = None
):
    """Instantiate (and attach) the named power policy on ``node``."""
    try:
        build = NODE_POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown node policy {policy!r}; available: {sorted(NODE_POLICIES)}"
        ) from None
    driver = build(node, agent_path)
    node.attach_driver(driver)
    return driver
