"""ClusterSim: N machines, one arrival stream, one power budget.

The fleet harness mirrors :func:`repro.experiments.runner.run_policy` one
level up: build the stack, play the trace, drain, summarise.  Everything
lives on a *single* :class:`~repro.sim.engine.Engine` — one event heap,
one clock — so a fleet run is exactly as deterministic as a single-node
run: same seed, same arrivals, same routing decisions, same metrics,
regardless of node count elsewhere in the process or of ``--jobs``.

:func:`run_cluster` runs one config with an optional trace file; the
``deeppower fleet`` command and :class:`FleetSpec` both go through it.
:class:`FleetSpec` is the picklable grid-cell form (the fleet analogue of
:class:`~repro.parallel.grid.RunSpec`): a :class:`ClusterConfig` plus its
workload trace and trace-output settings.  It exposes the same
``cache_payload()`` / ``label`` / ``trace_out`` surface and executes via
``spec.execute()`` — which is all :func:`repro.parallel.run_grid` needs,
so routing × policy fleets fan out through the existing cached executor.

Observability: with a trace writer attached, a fleet run emits
``fleet-start``, per-window ``node-window`` events (tagged with a
``node`` field), per-node ``node-summary`` events, ``powercap-window``
events from the coordinator, and a final ``fleet-summary`` —
``deeppower trace summarize --group-by node`` rebuilds the per-node /
fleet-wide table from exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cpu.dvfs import DEFAULT_TABLE
from ..cpu.power import DEFAULT_POWER_MODEL
from ..faults.fleet import FleetFaultPlan
from ..server.metrics import LatencyRecorder, RunMetrics
from ..sim.engine import Engine
from ..sim.events import PRIORITY_CONTROL
from ..sim.rng import RngRegistry
from ..workload.apps import get_app
from ..workload.arrivals import OpenLoopSource
from ..workload.trace import WorkloadTrace
from .batch import FleetBatch
from .dispatch import (
    DEGRADED_PENALTY,
    ROUTERS,
    STRAGGLER_MULTIPLE,
    Dispatcher,
    StragglerDetector,
    make_router,
)
from .lifecycle import NodeLifecycle
from .node import AGENT_SEED, NODE_POLICIES, ClusterNode, build_node_driver
from .powercap import CAP_BOOST, CAP_WINDOW, PowerCapCoordinator

__all__ = [
    "ClusterConfig",
    "ClusterSim",
    "FleetMetrics",
    "FleetSpec",
    "fleet_trace",
    "fleet_power_budget",
    "run_cluster",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of a fleet (everything but the workload trace)."""

    app: str
    num_nodes: int
    cores_per_node: int
    policy: str = "baseline"
    routing: str = "round-robin"
    #: Global fleet power budget (W); None disables the coordinator.
    power_cap_watts: Optional[float] = None
    seed: int = 0
    agent_path: Optional[str] = None
    #: Fleet fault scenario; None (or an empty plan) keeps the fleet
    #: immortal and the run bitwise identical to a plain fleet run.
    fault_plan: Optional[FleetFaultPlan] = None
    #: Health-aware dispatch (skip down nodes, de-weight degraded ones).
    #: None = on exactly when a fault plan is active; False = the
    #: no-failover ablation.
    health_aware: Optional[bool] = None
    #: Hierarchical fleet-RL layer (:class:`repro.hier.HierConfig`): a
    #: fleet-level agent takes over the coordinator's budget
    #: apportioning.  ``None`` (the default)
    #: keeps the heuristic coordinator — no agent is built, no extra RNG
    #: stream is drawn, no extra events run, and the run stays bitwise
    #: identical to one from before the hier layer existed.
    hier: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise ValueError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.policy not in NODE_POLICIES:
            raise ValueError(
                f"unknown node policy {self.policy!r}; "
                f"available: {sorted(NODE_POLICIES)}"
            )
        if self.routing not in ROUTERS:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; "
                f"available: {sorted(ROUTERS)}"
            )
        if self.power_cap_watts is not None and self.power_cap_watts <= 0:
            raise ValueError(
                f"power_cap_watts must be positive, got {self.power_cap_watts}"
            )
        if self.hier is not None:
            from ..hier.config import HierConfig

            if not isinstance(self.hier, HierConfig):
                raise TypeError(
                    f"hier must be a HierConfig, got {type(self.hier).__name__}"
                )
            if self.power_cap_watts is None:
                raise ValueError(
                    "hier requires power_cap_watts: the fleet agent "
                    "apportions the cap budget, so there must be one"
                )

    @property
    def resilience_active(self) -> bool:
        """Whether this run carries any fault machinery at all."""
        return self.fault_plan is not None and not self.fault_plan.is_empty


@dataclass
class FleetMetrics:
    """Summary of one fleet run (picklable: plain data only)."""

    num_nodes: int
    duration: float
    #: Fleet-wide metrics over the merged latency distribution; energy and
    #: DVFS switches are summed across nodes.
    fleet: RunMetrics
    #: Per-node metrics in node-id order.
    node_metrics: List[RunMetrics]
    #: Requests routed to each node, in node-id order.
    routed: List[int]
    power_cap_watts: Optional[float] = None
    #: Peak / mean measured fleet power over steady-state cap windows (NaN
    #: without a coordinator).
    max_window_power: float = float("nan")
    mean_window_power: float = float("nan")
    throttled_windows: int = 0
    #: Whether steady-state fleet power stayed within the cap (+5%);
    #: vacuously True without a coordinator.
    cap_ok: bool = True
    # ---- resilience accounting (all zero/empty for immortal fleets) --------
    crashes: int = 0
    dropped_requests: int = 0
    redispatches: int = 0
    partitions: int = 0
    unroutable: int = 0
    # ---- hierarchical-coordinator accounting (zero without a hier layer) ----
    hier_decisions: int = 0
    hier_updates: int = 0
    hier_fed_rounds: int = 0
    #: Per-node up-fraction of the trace window (1.0 without faults).
    node_availability: List[float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.node_availability is None:
            self.node_availability = [1.0] * self.num_nodes

    @property
    def fleet_availability(self) -> float:
        """Mean per-node up-fraction (1.0 = no downtime anywhere)."""
        if not self.node_availability:
            return 1.0
        return float(sum(self.node_availability) / len(self.node_availability))

    @property
    def routed_imbalance(self) -> float:
        """Max/mean ratio of per-node routed counts (1.0 = perfectly even)."""
        if not self.routed or sum(self.routed) == 0:
            return float("nan")
        mean = sum(self.routed) / len(self.routed)
        return max(self.routed) / mean

    def as_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "duration": self.duration,
            "fleet": self.fleet.as_dict(),
            "node_metrics": [m.as_dict() for m in self.node_metrics],
            "routed": list(self.routed),
            "routed_imbalance": self.routed_imbalance,
            "power_cap_watts": self.power_cap_watts,
            "max_window_power": self.max_window_power,
            "mean_window_power": self.mean_window_power,
            "throttled_windows": self.throttled_windows,
            "cap_ok": self.cap_ok,
            "crashes": self.crashes,
            "dropped_requests": self.dropped_requests,
            "redispatches": self.redispatches,
            "partitions": self.partitions,
            "unroutable": self.unroutable,
            "hier_decisions": self.hier_decisions,
            "hier_updates": self.hier_updates,
            "hier_fed_rounds": self.hier_fed_rounds,
            "node_availability": list(self.node_availability),
            "fleet_availability": self.fleet_availability,
        }


class ClusterSim:
    """Build and run one fleet: nodes + dispatcher + coordinator + source.

    Parameters
    ----------
    config:
        The fleet description (:class:`ClusterConfig`).
    trace:
        The *shared* arrival-rate trace; one open-loop source plays it and
        the dispatcher splits the stream across nodes.  Scale it for the
        whole fleet (see :func:`fleet_trace`).
    obs:
        Optional :class:`~repro.obs.Observability`; the caller owns its
        lifecycle (the sim flushes but never closes it).
    fleet_agent:
        Optional pre-built :class:`~repro.hier.FleetAgent` to reuse (the
        hier training loop carries one agent across episodes); only valid
        with ``config.hier`` set.  ``None`` builds a fresh one from the
        hier-namespaced seed.
    """

    def __init__(
        self,
        config: ClusterConfig,
        trace: WorkloadTrace,
        obs: Any = None,
        fleet_agent: Any = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.obs = obs
        self._trace_writer = obs.trace if obs is not None else None
        self.app = get_app(config.app)
        self.engine = Engine()
        self.rngs = RngRegistry(config.seed)
        self.nodes: List[ClusterNode] = [
            ClusterNode(
                self.engine, i, self.app, config.cores_per_node, seed=config.seed
            )
            for i in range(config.num_nodes)
        ]
        self.router = make_router(config.routing)
        # Resilience machinery exists only when a fault plan is active, so
        # a faultless fleet draws no extra RNG and schedules no extra
        # events — bitwise identical to a run without this layer.
        resilience = config.resilience_active
        health_aware = (
            resilience if config.health_aware is None else bool(config.health_aware)
        )
        self.dispatcher = Dispatcher(
            self.nodes,
            self.router,
            health_aware=health_aware,
            rng=self.rngs.get("dispatch") if resilience else None,
        )
        self.lifecycle: Optional[NodeLifecycle] = None
        self.detector: Optional[StragglerDetector] = None
        self.drivers = [
            build_node_driver(node, config.policy, agent_path=config.agent_path)
            for node in self.nodes
        ]
        self.source = OpenLoopSource(
            self.engine,
            trace,
            self.app.service,
            self.app.sla,
            self.dispatcher.submit,
            self.rngs.get("arrivals"),
        )
        self.coordinator: Optional[PowerCapCoordinator] = None
        self.fleet_agent: Any = None
        self.shared_replay: Any = None
        if fleet_agent is not None and config.hier is None:
            raise ValueError(
                "fleet_agent given but config.hier is None; enable the hier "
                "layer to use a fleet agent"
            )
        if config.hier is not None:
            # Runtime-only import: repro.hier imports this package's
            # siblings, so the dependency must not be module-level here.
            from ..hier import (
                LearnedBudgetCoordinator,
                SharedReplay,
                build_fleet_agent,
            )
            from ..parallel.pool import derive_seed

            if fleet_agent is not None:
                self.fleet_agent = fleet_agent
            else:
                self.fleet_agent = build_fleet_agent(
                    config.num_nodes,
                    config.hier,
                    derive_seed(config.seed, "hier", "fleet-agent"),
                )
            self.coordinator = LearnedBudgetCoordinator(
                self.engine,
                self.nodes,
                config.power_cap_watts,
                self.fleet_agent,
                config.hier,
                self.app.sla,
                trace=self._trace_writer,
            )
            if config.hier.shared_replay and config.policy == "deeppower":
                node_agents = [
                    d.agent for d in self.drivers if hasattr(d, "agent")
                ]
                proto = node_agents[0].replay
                self.shared_replay = SharedReplay(
                    proto.capacity,
                    proto.state_dim,
                    proto.action_dim,
                    derive_seed(config.seed, "hier", "shared-replay"),
                )
                for node, agent in zip(self.nodes, node_agents):
                    self.shared_replay.bind(agent, node.node_id)
                self.coordinator.shared_replay = self.shared_replay
        elif config.power_cap_watts is not None:
            self.coordinator = PowerCapCoordinator(
                self.engine,
                self.nodes,
                config.power_cap_watts,
                trace=self._trace_writer,
            )
        if resilience:
            self.lifecycle = NodeLifecycle(
                self.engine,
                self.nodes,
                config.fault_plan,
                dispatcher=self.dispatcher,
                coordinator=self.coordinator,
                trace=self._trace_writer,
            )
            self.dispatcher.on_unroutable = self.lifecycle.handle_unroutable
            if self.coordinator is not None:
                self.coordinator.lifecycle = self.lifecycle
            self.detector = StragglerDetector(
                self.nodes, on_change=self._on_health_change
            )
        # The dispatcher's stacked fleet state; it also runs the fleet's
        # controller ticks as one event (see _adopt_batched_controllers).
        self.batch: FleetBatch = self.dispatcher.batch
        # Per-node energy at the last telemetry window (node-window events).
        self._win_energy = np.zeros(len(self.nodes))
        self._win_time = 0.0

    def _adopt_batched_controllers(self) -> None:
        """Coalesce per-node controller ticks into one fleet tick.

        Only engages for tick-driven policies that expose a
        ``.controller`` (the "controller" fixed-parameter policy and
        fault-free DeepPower fleets) on fleets the batch accepts (see
        :meth:`FleetBatch.adopt_controllers`); everything else keeps its
        per-node tasks.  DeepPower fleets under a fault plan or on a lossy
        control bus are excluded because the node endpoint's safe mode
        (engaged by its command deadline or by the runtime watchdog)
        stops/starts individual controllers mid-run, off the fleet tick's
        grid; a path missed here raises, since adopted controllers refuse
        ``start()``/``stop()`` until :meth:`FleetBatch.detach`.  Called after every driver, the
        coordinator and the lifecycle have started, so fault injectors are
        all armed and the adoption validation sees the final tick topology.
        """
        cfg = self.config
        if cfg.policy == "deeppower" and (
            cfg.resilience_active
            or any(d.cfg.control.fault_plan is not None for d in self.drivers)
        ):
            return
        controllers = []
        for driver in self.drivers:
            ctrl = getattr(driver, "controller", None)
            if ctrl is None:
                return
            controllers.append(ctrl)
        self.batch.adopt_controllers(
            controllers, live_tick_counts=cfg.policy == "deeppower"
        )

    def _on_health_change(self, node: ClusterNode, state: str) -> None:
        if self._trace_writer is not None:
            event = "node-degraded" if state == "degraded" else "node-restored"
            self._trace_writer.emit(event, t=self.engine.now, node=node.node_id)

    # -------------------------------------------------------------- telemetry

    def _emit_node_windows(self) -> None:
        tw = self._trace_writer
        now = self.engine.now
        dt = now - self._win_time
        for i, node in enumerate(self.nodes):
            energy = node.monitor.total_energy()
            tw.emit(
                "node-window",
                t=now,
                node=i,
                power_w=(energy - self._win_energy[i]) / dt if dt > 0 else 0.0,
                queue_len=node.queue_len(),
                busy_workers=node.busy_workers(),
                routed=node.routed,
                completed=node.server.metrics.completed,
                timeouts=node.server.metrics.timeouts,
                ceiling=node.cpu.ceiling,
            )
            self._win_energy[i] = energy
        self._win_time = now

    # -------------------------------------------------------------------- run

    def run(self, drain_grace: Optional[float] = None) -> FleetMetrics:
        """Play the shared trace through the fleet and summarise.

        Mirrors the single-node runner's protocol: power/energy accounting
        closes at trace end, then an event-stepped drain (bounded by
        ``drain_grace``, default ``10 * SLA``) lets in-flight requests
        finish so their latencies count.
        """
        cfg = self.config
        duration = self.trace.duration
        tw = self._trace_writer
        if tw is not None:
            tw.emit(
                "fleet-start",
                t=self.engine.now,
                app=cfg.app,
                num_nodes=cfg.num_nodes,
                cores_per_node=cfg.cores_per_node,
                policy=cfg.policy,
                routing=cfg.routing,
                power_cap_watts=cfg.power_cap_watts,
                seed=cfg.seed,
                trace_duration=duration,
            )
        for driver in self.drivers:
            if driver is not None and hasattr(driver, "start"):
                driver.start()
        if self.coordinator is not None:
            self.coordinator.start()
        if self.lifecycle is not None:
            self.lifecycle.start()
        self._adopt_batched_controllers()
        health_task = None
        if self.detector is not None:
            health_task = self.engine.every(
                CAP_WINDOW,
                self.detector.check,
                start_delay=CAP_WINDOW,
                priority=PRIORITY_CONTROL + 1,
            )
        window_task = None
        if tw is not None:
            self._win_energy = np.array(
                [n.monitor.total_energy() for n in self.nodes]
            )
            self._win_time = self.engine.now
            window_task = self.engine.every(
                CAP_WINDOW,
                self._emit_node_windows,
                start_delay=CAP_WINDOW,
                priority=PRIORITY_CONTROL + 3,
            )
        self.source.start()

        self.engine.run_until(duration)

        # Power accounting stops at trace end (paper convention: the
        # workload window, not the drain tail).
        node_energy = [n.monitor.total_energy() for n in self.nodes]
        node_switches = [n.cpu.total_switches() for n in self.nodes]
        if self.lifecycle is not None:
            # Downtime accounting also closes at trace end: availability is
            # defined over the workload window, not the drain tail.
            self.lifecycle.finalize(duration)

        grace = drain_grace if drain_grace is not None else 10.0 * self.app.sla
        deadline = duration + grace
        while any(n.server.drain_remaining() > 0 for n in self.nodes):
            nxt = self.engine.next_event_time()
            if nxt is None or nxt > deadline:
                break
            self.engine.step()

        if window_task is not None:
            window_task.stop()
        if health_task is not None:
            health_task.stop()
        if self.coordinator is not None:
            self.coordinator.stop()
        self.batch.detach()
        for driver in self.drivers:
            if driver is not None and hasattr(driver, "stop"):
                driver.stop()

        node_metrics: List[RunMetrics] = []
        for i, node in enumerate(self.nodes):
            m = node.server.metrics.summarize(duration)
            m.energy_joules = node_energy[i]
            m.avg_power_watts = (
                node_energy[i] / duration if duration > 0 else float("nan")
            )
            m.dvfs_switches = node_switches[i]
            node_metrics.append(m)

        # Fleet-wide metrics pool the raw per-request samples rather than
        # averaging node quantiles: a p99 of averages is not the average's
        # p99, and fleet SLA compliance is defined over every request.
        merged = LatencyRecorder(self.app.sla)
        for node in self.nodes:
            rec = node.server.metrics
            merged.latencies.extend(rec.latencies)
            merged.service_times.extend(rec.service_times)
            merged.queue_times.extend(rec.queue_times)
            merged.arrived += rec.arrived
            merged.completed += rec.completed
            merged.timeouts += rec.timeouts
        fleet = merged.summarize(duration)
        fleet.energy_joules = float(sum(node_energy))
        fleet.avg_power_watts = (
            fleet.energy_joules / duration if duration > 0 else float("nan")
        )
        fleet.dvfs_switches = int(sum(node_switches))

        coord = self.coordinator
        life = self.lifecycle
        availability = (
            life.availability(duration) if life else [1.0] * cfg.num_nodes
        )
        result = FleetMetrics(
            num_nodes=cfg.num_nodes,
            duration=duration,
            fleet=fleet,
            node_metrics=node_metrics,
            routed=self.dispatcher.routed_counts(),
            power_cap_watts=cfg.power_cap_watts,
            max_window_power=coord.max_window_power() if coord else float("nan"),
            mean_window_power=coord.mean_window_power() if coord else float("nan"),
            throttled_windows=coord.throttled_windows if coord else 0,
            cap_ok=coord.cap_ok() if coord else True,
            crashes=life.crashes if life else 0,
            dropped_requests=life.dropped if life else 0,
            redispatches=life.redispatches if life else 0,
            partitions=life.partitions if life else 0,
            unroutable=self.dispatcher.unroutable,
            hier_decisions=int(getattr(coord, "decisions", 0) or 0),
            hier_updates=(
                int(coord.agent.updates)
                if coord is not None and hasattr(coord, "agent")
                else 0
            ),
            hier_fed_rounds=int(getattr(coord, "fed_rounds", 0) or 0),
            node_availability=availability,
        )

        if tw is not None:
            if fleet.completed == 0:
                tw.emit(
                    "run-warning",
                    t=self.engine.now,
                    warning="zero-completions",
                    message=(
                        "fleet run finished without completing any request; "
                        "latency statistics are NaN and sla_met is False"
                    ),
                )
            for i, m in enumerate(node_metrics):
                tw.emit(
                    "node-summary",
                    t=self.engine.now,
                    node=i,
                    routed=result.routed[i],
                    availability=result.node_availability[i],
                    downtime=life.downtime[i] if life else 0.0,
                    metrics=m.as_dict(),
                )
            tw.emit(
                "fleet-summary",
                t=self.engine.now,
                num_nodes=cfg.num_nodes,
                routed=result.routed,
                power_cap_watts=cfg.power_cap_watts,
                max_window_power=result.max_window_power,
                mean_window_power=result.mean_window_power,
                throttled_windows=result.throttled_windows,
                cap_ok=result.cap_ok,
                crashes=result.crashes,
                dropped_requests=result.dropped_requests,
                redispatches=result.redispatches,
                partitions=result.partitions,
                unroutable=result.unroutable,
                fleet_availability=result.fleet_availability,
                metrics=fleet.as_dict(),
            )
        if self.obs is not None:
            self.obs.flush()
        return result


# ---------------------------------------------------------------- grid cells

def run_cluster(
    config: ClusterConfig,
    trace: WorkloadTrace,
    trace_out: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    trace_segment_events: Optional[int] = None,
    trace_compress: Optional[str] = None,
    trace_shard_by_node: bool = False,
    fleet_agent: Any = None,
) -> Tuple[ClusterSim, FleetMetrics]:
    """Run one fleet, tracing to ``trace_out`` (with header ``meta``) if set.

    The trace is closed however the run ends.  Returns the finished
    simulator (for its fleet agent) and its metrics.
    """
    from ..obs import Observability

    obs = None
    if trace_out:
        obs = Observability.from_paths(
            trace_out=trace_out,
            meta=meta,
            trace_segment_events=trace_segment_events,
            trace_compress=trace_compress,
            trace_shard_key="node" if trace_shard_by_node else None,
        )
    try:
        sim = ClusterSim(config, trace, obs=obs, fleet_agent=fleet_agent)
        return sim, sim.run()
    finally:
        if obs is not None:
            obs.close()


@dataclass(frozen=True)
class FleetSpec:
    """One cell of a fleet grid — the fleet RunSpec: a fleet plus its trace.

    Exposes the same surface :func:`repro.parallel.run_grid` consumes:
    ``cache_payload()`` for the result cache, ``label`` / ``app`` /
    ``policy`` / ``seed`` for trace naming, ``trace_out`` for per-cell
    observability traces, and ``execute()`` for the pool worker.
    """

    config: ClusterConfig
    trace: WorkloadTrace
    label: str = ""
    trace_out: Optional[str] = None
    #: Trace storage layout (segment rotation, gzip/zstd codec, per-node
    #: shards).  Like ``trace_out`` these shape a side artifact, not the
    #: result, so they stay out of ``cache_payload``.
    trace_segment_events: Optional[int] = None
    trace_compress: Optional[str] = None
    trace_shard_by_node: bool = False

    @property
    def app(self) -> str:
        return self.config.app

    @property
    def policy(self) -> str:
        return self.config.policy

    @property
    def seed(self) -> int:
        return self.config.seed

    def cache_payload(self) -> dict:
        from ..parallel.cache import file_digest, plan_digest

        cfg = self.config
        return {
            "kind": "fleet-spec",
            "app": cfg.app,
            "policy": cfg.policy,
            "routing": cfg.routing,
            "trace_edges": self.trace.edges,
            "trace_rates": self.trace.rates,
            "num_nodes": cfg.num_nodes,
            "cores_per_node": cfg.cores_per_node,
            # These keys hold module constants; they stay so that results
            # cached under them still hit.
            "num_workers": None,
            "seed": cfg.seed,
            "policy_kwargs": [],
            "power_cap_watts": cfg.power_cap_watts,
            "cap_window": CAP_WINDOW,
            "cap_boost": CAP_BOOST,
            "agent_digest": file_digest(cfg.agent_path) if cfg.agent_path else None,
            "agent_seed": AGENT_SEED if cfg.agent_path else None,
            "label": self.label,
            # A faulted run must never collide with a clean run of the same
            # spec: the digest is None exactly when the plan is a no-op.
            "fault_plan": plan_digest(cfg.fault_plan),
            "health_aware": cfg.health_aware,
            "straggler_multiple": STRAGGLER_MULTIPLE,
            "degraded_penalty": DEGRADED_PENALTY,
            # Learned-coordinator runs must never collide with heuristic
            # runs of the same spec; the payload covers every
            # learning-relevant hier field.
            "hier": cfg.hier.cache_payload() if cfg.hier is not None else None,
        }

    def execute(self) -> Tuple[FleetMetrics, Dict[str, Any]]:
        """Build the fleet from scratch and run it (pool-worker entry)."""
        cfg = self.config
        meta = {
            "app": cfg.app,
            "policy": cfg.policy,
            "routing": cfg.routing,
            "num_nodes": cfg.num_nodes,
            "seed": cfg.seed,
            "label": self.label,
        }
        # Only hier runs carry the extra meta key: a hier-disabled
        # trace stays byte-identical to a pre-hier fleet trace.
        if cfg.hier is not None:
            meta["hier"] = cfg.hier.algo
        _, metrics = run_cluster(
            cfg,
            self.trace,
            trace_out=self.trace_out,
            meta=meta,
            trace_segment_events=self.trace_segment_events,
            trace_compress=self.trace_compress,
            trace_shard_by_node=self.trace_shard_by_node,
        )
        return metrics, {}


# ------------------------------------------------------------------- helpers

def fleet_trace(
    base_trace: WorkloadTrace,
    app_name: str,
    num_nodes: int,
    workers_per_node: int,
    load: float = 0.55,
) -> WorkloadTrace:
    """Scale a diurnal trace so the *fleet* runs at mean utilisation ``load``.

    The single shared stream must carry ``num_nodes`` times the traffic a
    one-node trace would: the mean rate targets ``load`` of the aggregate
    worker capacity across the whole fleet.
    """
    app = get_app(app_name)
    target = app.rps_for_load(load, num_nodes * workers_per_node)
    return base_trace.scaled_to_mean(target)


def fleet_power_budget(
    num_nodes: int,
    cores_per_node: int,
    fraction: float = 0.7,
) -> float:
    """A deterministic cluster budget ``fraction`` of the way up the
    fleet's controllable power range.

    The range runs from the aggregate fmin floor (every core busy at the
    lowest level — the least the coordinator can enforce) to the
    worst-case all-busy turbo draw.  Interpolating keeps the budget
    feasible for any ``fraction`` in (0, 1] regardless of how much the
    uncontrollable package constant dominates small sockets, while
    ``fraction < 1`` guarantees the cap bites under turbo-happy policies.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    busy = np.ones(cores_per_node, dtype=bool)
    floor = num_nodes * DEFAULT_POWER_MODEL.socket_power(
        np.full(cores_per_node, DEFAULT_TABLE.fmin), busy
    )
    worst_turbo = num_nodes * DEFAULT_POWER_MODEL.socket_power(
        np.full(cores_per_node, DEFAULT_TABLE.turbo), busy
    )
    return float(floor + fraction * (worst_turbo - floor))
