"""Fleet stepping against golden digests, and controller-tick adoption.

Every fleet routes through one :class:`~repro.cluster.batch.FleetBatch`
and runs one controller tick event per tick time: the stacked tick from
``SCALAR_BATCH_CUTOFF`` nodes up, one event calling each node's own tick
below.  The oracle is ``fleet_goldens.json``: SHA-256 digests of the
sorted FleetMetrics JSON and of the node-tagged trace bytes of each config
below — plain fleets, chaos fleets mid-fault, power-capped fleets,
actuator faults on every node, injector rows mixed with capped rows,
DeepPower, windowed DeepPower, DeepPower on a lossy control bus and a
learned (hier) coordinator, at 4, 8, 16 and 64 nodes.  Most digests were
recorded while per-node tick tasks still ran every fleet and produced the
same bytes, so they pin that behaviour.  Regenerate them with
``PYTHONPATH=src python -c "from tests.test_fleet_batch import _regen;
_regen()"`` only for an intended behaviour change.

(The soak *experiment* itself — ``repro.experiments.soak`` — drives
single-node :func:`run_policy` and never touches ClusterSim; the
long-duration chaos + power-cap config and the lossy-bus DeepPower config
exercise the same code paths a fleet soak would.)
"""

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import repro.cluster.batch as batch_mod
import repro.cluster.node as node_mod
from repro.cluster import (
    ClusterConfig,
    ClusterSim,
    FleetSpec,
    fleet_power_budget,
)
from repro.cluster.batch import SCALAR_BATCH_CUTOFF, FleetBatch
from repro.cluster.node import AGENT_SEED
from repro.cpu.core import Core
from repro.control import ControlPlaneConfig
from repro.core.runtime import DeepPowerRuntime
from repro.experiments.fig7_main import tuned_agent_setup
from repro.experiments.soak import soak_trace
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FleetFaultPlan,
    standard_bus_plan,
    standard_chaos_plan,
)
from repro.hier import HierConfig
from repro.obs import Observability
from repro.parallel import content_key
from repro.sim.events import PRIORITY_CONTROL
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace

APP = "xapian"
GOLDEN_PATH = Path(__file__).with_name("fleet_goldens.json")


def _chaos(nodes, duration, intensity=0.6):
    return standard_chaos_plan(intensity, nodes, duration, seed=5)


def _cfg(
    nodes=4, duration=3.0, load=0.5, window_stats=False, bus=None, **overrides
):
    return dict(
        nodes=nodes, duration=duration, load=load,
        window_stats=window_stats, bus=bus, overrides=overrides,
    )


def _actuator_plan(i):
    """Node ``i``'s actuator faults: fail-only, fail + delay or delay-only
    writes by ``i % 3``, and one core offline for 0.4 s."""
    fail = (0.2, 0.1, 0.0)[i % 3]
    delay = (0.0, 0.3, 0.5)[i % 3]
    offline = FaultEvent(
        0.4 + 0.15 * i, "actuator.offline", duration=0.4, target=i % 2
    )
    return FaultPlan(
        events=(offline,), seed=i, dvfs_fail_prob=fail,
        dvfs_delay_prob=delay, dvfs_delay=0.005,
    )


#: Golden config name -> fleet shape and ClusterConfig overrides.
CONFIGS = {
    "controller-jsq-4": _cfg(policy="controller", routing="jsq"),
    "controller-round-robin-4": _cfg(
        policy="controller", routing="round-robin"
    ),
    "retail-jsq-4": _cfg(policy="retail", routing="jsq"),
    "controller-powercap-4": _cfg(
        policy="controller", routing="power-aware",
        power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
    ),
    "controller-chaos-4": _cfg(
        policy="controller", routing="jsq", fault_plan=_chaos(4, 3.0),
    ),
    # DRL policy: live tick_count sync feeds its window observations.
    "deeppower-jsq-4": _cfg(policy="deeppower", routing="jsq"),
    # Longest config in the matrix: faults + cap + degraded routing, the
    # fleet analogue of a soak run.
    "retail-chaos-powercap-4": _cfg(
        duration=8.0, policy="retail", routing="power-aware",
        power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
        fault_plan=_chaos(4, 8.0),
    ),
    # Controller window stats on, so the run-long per-controller
    # summaries join the metrics.  Fleet runtimes have no trace of their
    # own, so the stats are enabled directly.
    "deeppower-powercap-windowed-4": _cfg(
        policy="deeppower", routing="jsq", window_stats=True,
        power_cap_watts=fleet_power_budget(4, 2, fraction=0.4),
    ),
    # Actuator faults (failed and delayed writes) on every third node only,
    # so injector rows and capped vector rows share each tick.  Writes
    # delayed across a ceiling move pin that injector rows get the
    # unclamped request.
    "mixed-injector-cap-16": _cfg(
        nodes=16, load=0.4, policy="controller", routing="power-aware",
        power_cap_watts=fleet_power_budget(16, 2, fraction=0.4),
        fault_plan=FleetFaultPlan(
            node_plans=tuple(
                (i, FaultPlan(seed=i, dvfs_fail_prob=0.05,
                              dvfs_delay_prob=0.3, dvfs_delay=0.02))
                for i in range(0, 16, 3)
            ),
            seed=5,
        ),
    ),
    # Learned budget coordinator: its fleet observation reads backlog and
    # health masks once per window, across crashes and redispatch.
    "hier-chaos-powercap-16": _cfg(
        nodes=16, policy="controller", routing="power-aware",
        power_cap_watts=fleet_power_budget(16, 2, fraction=0.5),
        fault_plan=_chaos(16, 3.0), hier=HierConfig(),
    ),
    # Every node carries actuator faults (failed, delayed and parked
    # writes), so each tick writes through the fault injectors.
    "controller-actuator-faults-8": _cfg(
        nodes=8, policy="controller", routing="jsq",
        fault_plan=FleetFaultPlan(
            node_plans=tuple((i, _actuator_plan(i)) for i in range(8)),
            seed=5,
        ),
    ),
    # Soak-style lossy control bus: DeepPower nodes on the soak workload
    # whose bus partition makes each node endpoint bench its controller
    # for the fallback governor and restart it mid-run.
    "deeppower-bus-soak-4": _cfg(
        duration=12.0, load=0.6, bus=1.0, policy="deeppower", routing="jsq",
    ),
    "controller-jsq-64": _cfg(
        nodes=64, duration=2.0, load=0.3, policy="controller", routing="jsq",
    ),
    "controller-chaos-powercap-64": _cfg(
        nodes=64, duration=2.0, load=0.3,
        policy="controller", routing="power-aware",
        power_cap_watts=fleet_power_budget(64, 2, fraction=0.5),
        fault_plan=_chaos(64, 2.0),
    ),
    "controller-powercap-64": _cfg(
        nodes=64, duration=2.0, load=0.3, policy="controller", routing="jsq",
        power_cap_watts=fleet_power_budget(64, 2, fraction=0.4),
    ),
}


def _bus_deeppower_driver(intensity, duration):
    """The fleet's DeepPower node driver with a lossy control bus (a
    :func:`standard_bus_plan` seeded by node id)."""

    def build(node, agent_path):
        agent, cfg = tuned_agent_setup(AGENT_SEED, app=node.app)
        cfg.train = False
        cfg.record_steps = False
        cfg.control = ControlPlaneConfig(
            fault_plan=standard_bus_plan(
                intensity, duration, seed=node.node_id, long_time=cfg.long_time
            )
        )
        return DeepPowerRuntime(node.engine, node.server, node.monitor, agent, cfg)

    return build


def _run(out_dir, name):
    """One traced fleet run; returns (metrics-as-sorted-json, trace bytes)."""
    spec = CONFIGS[name]
    nodes = spec["nodes"]
    rps = get_app(APP).rps_for_load(spec["load"], nodes * 2)
    if spec["bus"] is None:
        trace = constant_trace(rps, spec["duration"])
    else:
        trace = soak_trace(spec["duration"]).scaled_to_mean(rps)
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=2, seed=11,
        **spec["overrides"],
    )
    path = Path(out_dir) / f"{name}.trace.jsonl"
    obs = Observability.from_paths(trace_out=str(path), meta={"kind": "parity"})
    try:
        with mock.patch.dict(node_mod.NODE_POLICIES):
            if spec["bus"] is not None:
                node_mod.NODE_POLICIES["deeppower"] = _bus_deeppower_driver(
                    spec["bus"], spec["duration"]
                )
            sim = ClusterSim(config, trace, obs=obs)
        if spec["window_stats"]:
            for driver in sim.drivers:
                driver.controller.enable_window_stats()
        result = sim.run().as_dict()
    finally:
        obs.close()
    if spec["window_stats"]:
        result["windows"] = [d.controller.window_summary() for d in sim.drivers]
    return json.dumps(result, sort_keys=True), path.read_bytes()


def _digests(out_dir, name):
    metrics, trace = _run(out_dir, name)
    return {
        "metrics": hashlib.sha256(metrics.encode()).hexdigest(),
        "trace": hashlib.sha256(trace).hexdigest(),
    }


def _regen(path=GOLDEN_PATH):
    """Re-record every golden digest (only for intended behaviour changes)."""
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _digests(tmp, name) for name in CONFIGS}
    Path(path).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _golden(name):
    return json.loads(GOLDEN_PATH.read_text())[name]


def _assert_golden(tmp_path, name):
    assert _digests(tmp_path, name) == _golden(name), name


def _spy_adoption(monkeypatch):
    """Record every ``adopt_controllers`` verdict of the runs that follow."""
    verdicts = []
    real = FleetBatch.adopt_controllers

    def spy(self, *args, **kwargs):
        verdicts.append(real(self, *args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(FleetBatch, "adopt_controllers", spy)
    return verdicts


def test_golden_table_covers_every_config():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CONFIGS)


class TestParitySmallFleet:
    """4 and 8 nodes — below the cutoff, so one event runs every node's
    own controller tick."""

    def test_controller_jsq(self, tmp_path):
        _assert_golden(tmp_path, "controller-jsq-4")

    def test_controller_round_robin(self, tmp_path):
        _assert_golden(tmp_path, "controller-round-robin-4")

    def test_retail_jsq(self, tmp_path):
        _assert_golden(tmp_path, "retail-jsq-4")

    def test_controller_powercap(self, tmp_path):
        _assert_golden(tmp_path, "controller-powercap-4")

    def test_controller_chaos(self, tmp_path):
        _assert_golden(tmp_path, "controller-chaos-4")

    def test_deeppower(self, tmp_path):
        _assert_golden(tmp_path, "deeppower-jsq-4")

    def test_soak_style_chaos_powercap(self, tmp_path):
        _assert_golden(tmp_path, "retail-chaos-powercap-4")

    def test_actuator_faults_on_every_node(self, tmp_path):
        _assert_golden(tmp_path, "controller-actuator-faults-8")

    def test_bus_faulted_soak_style(self, tmp_path):
        _assert_golden(tmp_path, "deeppower-bus-soak-4")


class TestParityLargeFleet:
    """64 nodes — above the cutoff, on the adopted fleet tick."""

    def test_controller_jsq(self, tmp_path):
        _assert_golden(tmp_path, "controller-jsq-64")

    def test_controller_chaos_powercap(self, tmp_path):
        _assert_golden(tmp_path, "controller-chaos-powercap-64")


class TestParityCappedVectorLane:
    """Power-capped rows stay on the vector lane (the ceiling is a column);
    only fault-injector rows take the per-node lane."""

    def test_controller_powercap_no_faults_64(self, tmp_path):
        _assert_golden(tmp_path, "controller-powercap-64")

    def test_mixed_injector_and_cap_rows(self, tmp_path):
        _assert_golden(tmp_path, "mixed-injector-cap-16")

    def test_hier_chaos_powercap(self, tmp_path):
        _assert_golden(tmp_path, "hier-chaos-powercap-16")

    def test_deeppower_powercap(self, tmp_path, monkeypatch):
        # Window stats are per-controller state the fleet tick does not
        # feed: even with the cutoff out of the way, a windowed fleet
        # keeps its per-node ticks.
        monkeypatch.setattr(batch_mod, "SCALAR_BATCH_CUTOFF", 1)
        verdicts = _spy_adoption(monkeypatch)
        _assert_golden(tmp_path, "deeppower-powercap-windowed-4")
        assert verdicts == [False]


class TestCeilingInvariant:
    """No worker core ever runs above its socket's ceiling, and every
    frequency is a table level, while the ceiling moves mid-run."""

    def test_batched_capped_fleet_respects_moving_ceilings(self, monkeypatch):
        writes = []
        real_set = Core.set_frequency

        def counted_set(core, freq, *, quantize=True):
            writes.append(freq)
            return real_set(core, freq, quantize=quantize)

        monkeypatch.setattr(Core, "set_frequency", counted_set)
        nodes, cores = 16, 2
        rps = get_app(APP).rps_for_load(0.5, nodes * cores)
        config = ClusterConfig(
            app=APP, num_nodes=nodes, cores_per_node=cores, seed=11,
            policy="controller", routing="jsq",
            power_cap_watts=fleet_power_budget(nodes, cores, fraction=0.6),
        )
        sim = ClusterSim(config, constant_trace(rps, 4.0))
        engine, coord = sim.engine, sim.coordinator
        table = sim.nodes[0].cpu.table
        levels = set(table.levels)
        checks = []
        snaps = []

        def check():
            batch = sim.batch
            # The fleet tick is adopted and every capped row is vectorised.
            assert batch._tick_task is not None and batch._ov_rows == []
            for i, node in enumerate(sim.nodes):
                cpu = node.cpu
                worker = cpu.frequencies()[: node.server.num_workers]
                assert worker.max() <= cpu.ceiling, (engine.now, i)
                assert set(cpu.frequencies().tolist()) <= levels
                assert batch._ceil[i, 0] == cpu.ceiling
            checks.append(engine.now)

        def lower_half():
            for node in sim.nodes[: nodes // 2]:
                node.cpu.set_ceiling(table.levels[0])

        def snapshot():
            snap = coord.state_dict()
            snap["ceilings"] = [table.levels[2]] * nodes
            snaps.append(snap)

        engine.every(
            0.001, check, start_delay=0.0005, priority=PRIORITY_CONTROL + 5
        )
        engine.schedule_at(1.2003, lower_half)
        engine.schedule_at(2.1, snapshot)
        engine.schedule_at(2.4003, lambda: coord.load_state_dict(snaps[0]))
        sim.run()
        assert sim.batch._controllers == []  # detached after the run
        assert len(checks) >= 3900
        assert any(w.ceilings[0] < table.turbo for w in coord.history)
        # The tick clamps before it diffs, so every write changes a level.
        assert len(writes) == sum(n.cpu.total_switches() for n in sim.nodes)


def _small_fleet(nodes):
    rps = get_app(APP).rps_for_load(0.3, nodes * 2)
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=2,
        policy="controller", routing="jsq", seed=11,
    )
    return ClusterSim(config, constant_trace(rps, 1.0))


def _count_stacked_ticks(monkeypatch):
    """Record every run of the stacked fleet tick that follows."""
    calls = []
    real = FleetBatch._tick_all

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(FleetBatch, "_tick_all", counted)
    return calls


def _probe_ticks(nodes):
    """Run a controller fleet; report its tick topology at t = 0.5 s."""
    sim = _small_fleet(nodes)
    assert isinstance(sim.batch, FleetBatch)
    assert sim.dispatcher.batch is sim.batch
    seen = {}

    def probe():
        seen["fleet_tick"] = sim.batch._tick_task is not None
        seen["node_ticks"] = [
            not d.controller._task.stopped for d in sim.drivers
        ]
        seen["counts"] = [d.controller.tick_count for d in sim.drivers]

    sim.engine.schedule_at(0.5, probe)
    metrics = sim.run()
    seen["final"] = [d.controller.tick_count for d in sim.drivers]
    return seen, metrics


class TestCutover:
    """Below ``SCALAR_BATCH_CUTOFF`` nodes one engine task runs every
    node's own controller tick; the stacked fleet tick stays idle."""

    def test_auto_below_cutoff_is_scalar(self, monkeypatch):
        # Each node runs its own scalar tick, all from one engine task.
        nodes = SCALAR_BATCH_CUTOFF - 1
        stacked = _count_stacked_ticks(monkeypatch)
        seen, _ = _probe_ticks(nodes)
        assert seen["fleet_tick"]
        assert seen["node_ticks"] == [False] * nodes
        assert stacked == []
        assert all(b > a > 0 for a, b in zip(seen["counts"], seen["final"]))

    def test_scalar_fallback_runs(self, monkeypatch):
        # The per-node scalar tick is not dead code: small fleets simulate.
        stacked = _count_stacked_ticks(monkeypatch)
        for nodes in (1, 2):
            seen, metrics = _probe_ticks(nodes)
            assert seen["fleet_tick"]
            assert seen["node_ticks"] == [False] * nodes
            assert all(b > a > 0 for a, b in zip(seen["counts"], seen["final"]))
            assert metrics.fleet.completed > 0
        assert stacked == []

    @pytest.mark.parametrize("nodes", [2, SCALAR_BATCH_CUTOFF])
    def test_adopted_controller_refuses_start_and_stop(self, nodes):
        # A per-node task restarted under the fleet tick would tick the
        # node twice; until detach, start() and stop() raise instead.
        sim = _small_fleet(nodes)
        refused = []

        def probe():
            ctrl = sim.drivers[0].controller
            for call in (ctrl.start, ctrl.stop):
                with pytest.raises(RuntimeError, match="detach the FleetBatch"):
                    call()
                refused.append(call.__name__)

        sim.engine.schedule_at(0.5, probe)
        sim.run()
        assert refused == ["start", "stop"]
        ctrl = sim.drivers[0].controller
        ctrl.start()
        assert not ctrl._task.stopped
        ctrl.stop()
        assert ctrl._task.stopped

    def test_profiled_controllers_keep_their_timed_ticks(self, monkeypatch):
        # bind_spans wraps tick on the instance; such a fleet keeps its
        # per-node tasks and every tick is still timed.
        verdicts = _spy_adoption(monkeypatch)

        class Spans:
            def __init__(self):
                self.names = []

            def record(self, name, dt):
                self.names.append(name)

        spans = Spans()
        sim = _small_fleet(2)
        for driver in sim.drivers:
            driver.controller.bind_spans(spans)
        sim.run()
        assert verdicts == [False]
        ticks = sum(d.controller.tick_count for d in sim.drivers)
        assert ticks > 0
        assert spans.names == ["controller.tick"] * ticks


class TestAdoption:
    """The fleet tick replaces per-node controller ticks from
    ``SCALAR_BATCH_CUTOFF`` nodes up; dispatch always runs on the batch."""

    def test_at_cutoff_adopts(self):
        seen, metrics = _probe_ticks(SCALAR_BATCH_CUTOFF)
        assert seen["fleet_tick"]
        assert seen["node_ticks"] == [False] * SCALAR_BATCH_CUTOFF
        assert metrics.fleet.completed > 0

    @pytest.mark.parametrize(
        "name, adopts",
        [
            ("controller-jsq-4", True),
            ("controller-round-robin-4", True),
            ("controller-powercap-4", True),
            ("controller-chaos-4", True),
            ("deeppower-jsq-4", True),
            ("retail-jsq-4", False),
            ("controller-actuator-faults-8", True),
            # Its node endpoints bench and restart their controllers.
            ("deeppower-bus-soak-4", False),
        ],
    )
    def test_forced_adoption_matches_golden(
        self, tmp_path, monkeypatch, name, adopts
    ):
        # Tick parity: with the cutoff lowered, small fleets run the
        # stacked fleet tick and must still reproduce their goldens.
        monkeypatch.setattr(batch_mod, "SCALAR_BATCH_CUTOFF", 4)
        verdicts = _spy_adoption(monkeypatch)
        _assert_golden(tmp_path, name)
        assert verdicts == ([True] if adopts else [])


#: ``content_key`` of the spec below, recorded before the single-path change.
RECORDED_CACHE_KEY = (
    "82429fc82a51e4a5f151fd0b0269c6d20846005cd04468ce622a4b386324c59a"
)


class TestSpecCacheKey:
    def test_cache_key_matches_recorded(self):
        # Fleet results cached before the fleet had a single stepping
        # path stay valid: the cache key of this spec is pinned.
        spec = FleetSpec(
            ClusterConfig(app=APP, policy="controller", num_nodes=4,
                          cores_per_node=2, seed=11, routing="jsq"),
            constant_trace(60.0, 1.0),
        )
        assert content_key(spec.cache_payload()) == RECORDED_CACHE_KEY
