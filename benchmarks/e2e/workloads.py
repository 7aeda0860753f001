"""The benchmark's four workloads: built from a seed, run, summarised, checked.

Each workload calls only public entry points: ``run_policy`` for one node,
``ClusterSim(...)`` then ``.run()`` for a fleet.  Constructing a workload
is the benchmark's set-up (trace synthesis, agent and fleet construction);
:meth:`run` is the call that starts simulated time; :meth:`outcome` reads
public counters afterwards.  Clients are open-loop Poisson on each trace.

``duration`` (simulated seconds) defaults to the benchmark's size; tests
pass shorter ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.obs
from repro.baselines.simple import MaxFrequencyPolicy
from repro.cluster import ClusterConfig, ClusterSim, fleet_power_budget, fleet_trace
from repro.core.runtime import DeepPowerRuntime
from repro.experiments.fig7_main import tuned_agent_setup
from repro.experiments.runner import run_policy
from repro.faults.fleet import standard_chaos_plan
from repro.hier import HierConfig
from repro.server.metrics import RunMetrics
from repro.sim.rng import RngRegistry
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace, diurnal_trace

APP = "xapian"

#: Budget position inside each fleet's controllable power range.
CAP_FRACTION = 0.7

#: Per-layer counters read from public attributes after an untraced run;
#: a layer a workload does not exercise reports 0.
COUNTERS = (
    "sim.events",
    "workload.arrivals",
    "server.completions",
    "server.queue_wait_ms_p99",
    "cpu.dvfs_switches",
    "controller.ticks",
    "drl.steps",
    "drl.updates",
    "drl.skipped_updates",
    "dispatch.routed",
    "dispatch.unroutable",
    "powercap.windows",
    "powercap.throttled_frac",
    "hier.decisions",
    "hier.updates",
    "lifecycle.crashes",
    "lifecycle.redispatches",
    "lifecycle.dropped",
    "obs.trace_events",
    "obs.trace_bytes",
)


def _trace_rng(seed: int) -> np.random.Generator:
    return RngRegistry(seed).get("bench-trace")


def _p99_ms(samples) -> float:
    return float(np.quantile(samples, 0.99)) * 1e3 if len(samples) else 0.0


def _off_table(cpus) -> int:
    return sum(1 for cpu in cpus for core in cpu.cores if core.frequency not in cpu.table)


def _outcome(
    metrics: Dict[str, Any],
    summary: RunMetrics,
    conservation: Dict[str, int],
    cpus,
    counters: Dict[str, float],
    cap_ok: Optional[bool] = None,
    readback: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """The plain-data result of one run; :func:`check` validates it.

    ``metrics`` is the run's full metrics dict (hashed into the digest);
    ``summary`` the node or fleet-wide :class:`RunMetrics`.
    """
    counters = {key: counters.get(key, 0) for key in COUNTERS}
    c = conservation
    digest = hashlib.sha256(
        json.dumps({"metrics": metrics, "counters": counters}, sort_keys=True).encode()
    ).hexdigest()
    return {
        "sim": {
            "sim_p99_over_sla": summary.tail_latency / summary.sla,
            "sim_energy_j": summary.energy_joules,
            "sim_miss_frac": (summary.timeouts + c["dropped"] + c["unroutable"])
            / c["generated"],
        },
        "sim_digest": digest,
        "conservation": dict(conservation),
        "energy_j": summary.energy_joules,
        "cap_ok": cap_ok,
        "off_table_freqs": _off_table(cpus),
        "readback": readback,
        "counters": counters,
    }


def check(outcome: Dict[str, Any]) -> List[str]:
    """Failed output checks of one run (empty when the run is correct)."""
    failures = []
    c = outcome["conservation"]
    accounted = c["completed"] + c["dropped"] + c["unroutable"] + c["in_flight"]
    if c["generated"] != accounted:
        failures.append(
            f"requests not conserved: generated {c['generated']} != completed "
            f"+ dropped + unroutable + in flight {accounted}"
        )
    energy = outcome["energy_j"]
    if not (math.isfinite(energy) and energy > 0):
        failures.append(f"energy {energy!r} is not finite and positive")
    if outcome["cap_ok"] is False:
        failures.append("fleet power exceeded the cap")
    if outcome["off_table_freqs"]:
        failures.append(f"{outcome['off_table_freqs']} core frequencies off the DVFS table")
    rb = outcome["readback"]
    if rb is not None and not (
        rb["summary_nodes"] == rb["nodes"]
        and rb["query_events"] == rb["summary_windows"] > 0
    ):
        failures.append(f"trace read back inconsistently: {rb}")
    return failures


class NodeRun:
    """One node under ``run_policy``; ``make_policy(ctx)`` builds the policy."""

    nodes = 1

    def __init__(self, trace, num_cores: int, seed: int, make_policy: Callable) -> None:
        self.app = get_app(APP)
        self.trace = trace
        self.sim_seconds = trace.duration
        self.num_cores = num_cores
        self.seed = seed
        self._make_policy = make_policy
        self.ctx = self.policy = self.result = None

    @property
    def engine(self):
        return self.ctx.engine

    def _factory(self, ctx):
        self.ctx = ctx
        self.policy = self._make_policy(ctx)
        return self.policy

    def run(self) -> None:
        self.result = run_policy(
            self._factory, self.app, self.trace, self.num_cores, seed=self.seed
        )

    def readback(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def outcome(self) -> Dict[str, Any]:
        ctx, m, policy = self.ctx, self.result.metrics, self.policy
        recorder = ctx.server.metrics
        controller = getattr(policy, "controller", None)
        agent = getattr(policy, "agent", None)
        counters = {
            "sim.events": ctx.engine.processed_events,
            "workload.arrivals": ctx.source.generated,
            "server.completions": recorder.completed,
            "server.queue_wait_ms_p99": _p99_ms(recorder.queue_times),
            "cpu.dvfs_switches": ctx.cpu.total_switches(),
            "controller.ticks": controller.tick_count if controller else 0,
        }
        if agent is not None:
            counters.update({
                "drl.steps": policy.step_count,
                "drl.updates": agent.updates,
                "drl.skipped_updates": agent.skipped_updates,
            })
        conservation = {
            "generated": ctx.source.generated,
            "completed": recorder.completed,
            "dropped": 0,
            "unroutable": 0,
            "in_flight": ctx.server.drain_remaining(),
        }
        return _outcome(m.as_dict(), m, conservation, [ctx.cpu], counters)


class FleetRun:
    """One fleet: ``ClusterSim(config, trace, obs)`` then ``.run()``."""

    def __init__(self, config: ClusterConfig, trace, trace_dir: Optional[str] = None) -> None:
        self.nodes = config.num_nodes
        self.sim_seconds = trace.duration
        self.trace_dir = trace_dir
        self.trace_path = None
        self.obs = None
        if trace_dir is not None:
            self.trace_path = os.path.join(trace_dir, "fleet.trace.jsonl")
            self.obs = repro.obs.Observability.from_paths(
                trace_out=self.trace_path,
                meta={"workload": "fleet-chaos", "seed": config.seed},
                trace_segment_events=256,
                trace_compress="gzip",
                trace_shard_key="node",
            )
        self.sim = ClusterSim(config, trace, obs=self.obs)
        self.metrics = None
        self.readback_stats: Optional[Dict[str, int]] = None

    @property
    def engine(self):
        return self.sim.engine

    def run(self) -> None:
        self.metrics = self.sim.run()
        if self.obs is not None:
            self.obs.close()

    def readback(self) -> None:
        """Summarise the written trace and query one node's windows."""
        if self.trace_path is None:
            return
        summary = repro.obs.summarize_fleet_trace(self.trace_path)
        node3 = list(repro.obs.trace_query(self.trace_path, kind="node-window", node=3))
        self.readback_stats = {
            "nodes": self.nodes,
            "summary_nodes": len(summary.nodes),
            "summary_windows": summary.telemetry.get(3, {}).get("windows", 0),
            "query_events": len(node3),
        }

    def _trace_cap_ok(self, budget: float) -> bool:
        """Cap verdict on true per-window fleet power, summed from the
        trace's ``node-window`` events (first window skipped, 5 % slack,
        as the coordinator's ``cap_ok``).

        The coordinator's own verdict reads power from the telemetry it
        received: when a telemetry partition heals, the outage's energy
        lands in one window and reads as about twice the budget, so it
        cannot judge a run with telemetry faults.
        """
        totals: Dict[float, float] = {}
        for event in repro.obs.read_trace(self.trace_path):
            if event.get("kind") == "node-window":
                totals[event["t"]] = totals.get(event["t"], 0.0) + event["power_w"]
        steady = [totals[t] for t in sorted(totals)[1:]]
        return bool(steady) and max(steady) <= budget * 1.05

    def cleanup(self) -> None:
        if self.obs is not None:
            self.obs.close()
        if self.trace_dir is not None:
            shutil.rmtree(self.trace_dir, ignore_errors=True)

    def _trace_bytes(self) -> int:
        if self.trace_dir is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.trace_dir, f))
            for f in os.listdir(self.trace_dir)
        )

    def outcome(self) -> Dict[str, Any]:
        sim, m = self.sim, self.metrics
        nodes = sim.nodes
        coord = sim.coordinator
        windows = len(coord.history) if coord is not None else 0
        counters = {
            "sim.events": sim.engine.processed_events,
            "workload.arrivals": sim.source.generated,
            "server.completions": m.fleet.completed,
            "server.queue_wait_ms_p99": _p99_ms(
                [q for n in nodes for q in n.server.metrics.queue_times]
            ),
            "cpu.dvfs_switches": sum(n.cpu.total_switches() for n in nodes),
            "controller.ticks": sum(
                d.controller.tick_count for d in sim.drivers if hasattr(d, "controller")
            ),
            "dispatch.routed": sim.dispatcher.dispatched,
            "dispatch.unroutable": sim.dispatcher.unroutable,
            "powercap.windows": windows,
            "powercap.throttled_frac": m.throttled_windows / windows if windows else 0.0,
            "hier.decisions": m.hier_decisions,
            "hier.updates": m.hier_updates,
            "lifecycle.crashes": m.crashes,
            "lifecycle.redispatches": m.redispatches,
            "lifecycle.dropped": m.dropped_requests,
            "obs.trace_events": self.obs.trace.events_written if self.obs else 0,
            "obs.trace_bytes": self._trace_bytes(),
        }
        conservation = {
            "generated": sim.source.generated,
            "completed": m.fleet.completed,
            "dropped": m.dropped_requests,
            # With a lifecycle, an unroutable request is retried or dropped
            # there, so only a fleet without one ends a request unroutable.
            "unroutable": m.unroutable if sim.lifecycle is None else 0,
            "in_flight": sum(n.server.drain_remaining() for n in nodes),
        }
        cap_ok = None
        if m.power_cap_watts is not None:
            cap_ok = m.cap_ok if self.trace_path is None else self._trace_cap_ok(
                m.power_cap_watts
            )
        readback = self.readback_stats
        if readback is not None:
            readback = dict(readback, coordinator_cap_ok=m.cap_ok)
        return _outcome(
            m.as_dict(), m.fleet, conservation, [n.cpu for n in nodes], counters,
            cap_ok=cap_ok, readback=readback,
        )


def node_saturated(seed: int, duration: float = 600.0, workdir=None) -> NodeRun:
    """16 cores at turbo under a constant load of 0.8."""
    app = get_app(APP)
    trace = constant_trace(app.rps_for_load(0.8, 16), duration)
    return NodeRun(trace, 16, seed, MaxFrequencyPolicy)


def node_deeppower(seed: int, duration: float = 1200.0, workdir=None) -> NodeRun:
    """DeepPower training online on 4 cores, diurnal trace at mean load 0.5."""
    app = get_app(APP)
    trace = diurnal_trace(_trace_rng(seed), duration=duration).scaled_to_mean(
        app.rps_for_load(0.5, 4)
    )
    agent, cfg = tuned_agent_setup(seed, app)

    def make_policy(ctx):
        return DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)

    return NodeRun(trace, 4, seed, make_policy)


def fleet_capped(seed: int, duration: float = 8.0, workdir=None) -> FleetRun:
    """256 x 2-core nodes, fixed controllers, JSQ, under a 0.7 power cap."""
    nodes, cores = 256, 2
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=cores, policy="controller",
        routing="jsq", seed=seed,
        power_cap_watts=fleet_power_budget(nodes, cores, CAP_FRACTION),
    )
    base = diurnal_trace(_trace_rng(seed), duration=duration)
    return FleetRun(config, fleet_trace(base, APP, nodes, cores, load=0.3))


def fleet_chaos(seed: int, duration: float = 120.0, workdir=None) -> FleetRun:
    """8 x 4-core nodes with faults, a learned coordinator and a trace."""
    nodes, cores = 8, 4
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=cores, policy="controller",
        routing="jsq", seed=seed,
        power_cap_watts=fleet_power_budget(nodes, cores, CAP_FRACTION),
        fault_plan=standard_chaos_plan(1.0, nodes, duration, seed=seed),
        hier=HierConfig(),
    )
    base = diurnal_trace(_trace_rng(seed), duration=duration)
    trace = fleet_trace(base, APP, nodes, cores, load=0.35)
    return FleetRun(config, trace, trace_dir=tempfile.mkdtemp(prefix="chaos-", dir=workdir))


FACTORIES: Dict[str, Callable[..., Any]] = {
    "node-saturated": node_saturated,
    "node-deeppower": node_deeppower,
    "fleet-capped": fleet_capped,
    "fleet-chaos": fleet_chaos,
}
