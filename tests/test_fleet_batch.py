"""Batched fleet stepping: bitwise parity with the scalar path (ISSUE 8).

The load-bearing guarantee of the cross-node vectorisation: with
``stepping="batched"``, :class:`~repro.cluster.sim.ClusterSim` produces
**byte-identical** node-tagged traces and **identical** FleetMetrics to
the per-node scalar path, on every configuration — plain fleets, chaos
fleets mid-fault, power-capped fleets, and long soak-style runs — at
fleet sizes on both sides of the batching cutover.

(The soak *experiment* itself — ``repro.experiments.soak`` — drives
single-node :func:`run_policy` and never touches ClusterSim, so its
parity coverage here is the long-duration chaos + power-cap fleet
config, which exercises the same code paths a fleet soak would.)
"""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSim,
    FleetSpec,
    fleet_power_budget,
)
from repro.cluster.batch import SCALAR_BATCH_CUTOFF, FleetBatch
from repro.cpu.core import Core
from repro.faults import FaultPlan, FleetFaultPlan, standard_chaos_plan
from repro.obs import Observability
from repro.parallel import content_key
from repro.sim.events import PRIORITY_CONTROL
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace

APP = "xapian"


def _run(tmp_path, stepping, nodes, cores, duration, load,
         window_stats=False, **overrides):
    """One fleet run; returns (metrics-as-sorted-json, trace bytes).

    ``window_stats`` turns on every controller's per-tick frequency
    window and adds the run-long summaries to the metrics.
    """
    rps = get_app(APP).rps_for_load(load, nodes * cores)
    trace = constant_trace(rps, duration)
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=cores, seed=11,
        stepping=stepping, **overrides,
    )
    path = tmp_path / f"{stepping}.trace.jsonl"
    obs = Observability.from_paths(trace_out=str(path), meta={"kind": "parity"})
    try:
        sim = ClusterSim(config, trace, obs=obs)
        if window_stats:
            for driver in sim.drivers:
                driver.controller.enable_window_stats()
        result = sim.run().as_dict()
    finally:
        obs.close()
    if window_stats:
        result["windows"] = [d.controller.window_summary() for d in sim.drivers]
    return json.dumps(result, sort_keys=True), path.read_bytes()


def _assert_parity(tmp_path, nodes=4, cores=2, duration=3.0, load=0.5,
                   **overrides):
    m_scalar, t_scalar = _run(
        tmp_path, "scalar", nodes, cores, duration, load, **overrides
    )
    m_batched, t_batched = _run(
        tmp_path, "batched", nodes, cores, duration, load, **overrides
    )
    assert m_scalar == m_batched
    assert t_scalar == t_batched


def _chaos(nodes, duration, intensity=0.6):
    return standard_chaos_plan(intensity, nodes, duration, seed=5)


class TestParitySmallFleet:
    """4 nodes — below the auto cutover, forced into each mode."""

    def test_controller_jsq(self, tmp_path):
        _assert_parity(tmp_path, policy="controller", routing="jsq")

    def test_controller_round_robin(self, tmp_path):
        _assert_parity(tmp_path, policy="controller", routing="round-robin")

    def test_retail_jsq(self, tmp_path):
        _assert_parity(tmp_path, policy="retail", routing="jsq")

    def test_controller_powercap(self, tmp_path):
        _assert_parity(
            tmp_path, policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
        )

    def test_controller_chaos(self, tmp_path):
        _assert_parity(
            tmp_path, policy="controller", routing="jsq",
            fault_plan=_chaos(4, 3.0),
        )

    def test_deeppower(self, tmp_path):
        # DRL policy: live tick_count sync feeds window observations.
        _assert_parity(tmp_path, policy="deeppower", routing="jsq")

    def test_soak_style_chaos_powercap(self, tmp_path):
        # Longest config in the matrix: faults + cap + degraded routing,
        # the fleet analogue of a soak run.
        _assert_parity(
            tmp_path, duration=8.0, policy="retail", routing="power-aware",
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
            fault_plan=_chaos(4, 8.0),
        )


class TestParityLargeFleet:
    """64 nodes — above the cutover, where auto already batches."""

    def test_controller_jsq(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.3,
            policy="controller", routing="jsq",
        )

    def test_controller_chaos_powercap(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.3,
            policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(64, 2, fraction=0.5),
            fault_plan=_chaos(64, 2.0),
        )


class TestParityCappedVectorLane:
    """Power-capped rows stay on the vector lane (the ceiling is a column);
    only fault-injector rows take the per-node lane."""

    def test_controller_powercap_no_faults_64(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.3,
            policy="controller", routing="jsq",
            power_cap_watts=fleet_power_budget(64, 2, fraction=0.4),
        )

    def test_mixed_injector_and_cap_rows(self, tmp_path):
        # Actuator faults (failed and delayed writes) on every third node
        # only, so injector rows and capped vector rows share each tick.
        # Writes delayed across a ceiling move pin that injector rows get
        # the unclamped request.
        plan = FleetFaultPlan(
            node_plans=tuple(
                (i, FaultPlan(seed=i, dvfs_fail_prob=0.05,
                              dvfs_delay_prob=0.3, dvfs_delay=0.02))
                for i in range(0, 16, 3)
            ),
            seed=5,
        )
        _assert_parity(
            tmp_path, nodes=16, duration=3.0, load=0.4,
            policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(16, 2, fraction=0.4),
            fault_plan=plan,
        )

    def test_deeppower_powercap(self, tmp_path):
        # Traced DeepPower fleet with controller window stats on, so the
        # batch's window rows observe capped frequencies.  Fleet runtimes
        # have no trace of their own, so the stats are enabled directly.
        _assert_parity(
            tmp_path, policy="deeppower", routing="jsq", window_stats=True,
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.4),
        )


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
            policy="controller", routing="jsq", stepping="batched",
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


class TestCutover:
    def _sim(self, stepping, nodes):
        rps = get_app(APP).rps_for_load(0.3, nodes * 2)
        config = ClusterConfig(
            app=APP, num_nodes=nodes, cores_per_node=2,
            policy="controller", routing="jsq", seed=11, stepping=stepping,
        )
        return ClusterSim(config, constant_trace(rps, 1.0))

    def test_auto_below_cutoff_is_scalar(self):
        sim = self._sim("auto", SCALAR_BATCH_CUTOFF - 1)
        assert sim.batch is None

    def test_auto_at_cutoff_is_batched(self):
        sim = self._sim("auto", SCALAR_BATCH_CUTOFF)
        assert isinstance(sim.batch, FleetBatch)

    def test_forced_modes_override_auto(self):
        assert self._sim("batched", 2).batch is not None
        assert self._sim("scalar", SCALAR_BATCH_CUTOFF).batch is None

    def test_scalar_fallback_runs(self):
        # The fallback below the cutoff is not dead code: it simulates.
        sim = self._sim("auto", 2)
        assert sim.batch is None
        metrics = sim.run()
        assert metrics.fleet.completed > 0

    def test_invalid_stepping_rejected(self):
        with pytest.raises(ValueError, match="stepping"):
            ClusterConfig(app=APP, num_nodes=2, cores_per_node=2,
                          stepping="vector")


class TestSpecCacheKey:
    def test_stepping_excluded_from_cache_payload(self):
        # A cached scalar result must satisfy a batched request and vice
        # versa — the two modes are bitwise identical by construction.
        kw = dict(
            app=APP, policy="controller", trace=constant_trace(60.0, 1.0),
            num_nodes=4, cores_per_node=2, seed=11, routing="jsq",
        )
        keys = {
            content_key(FleetSpec(stepping=s, **kw).cache_payload())
            for s in ("auto", "batched", "scalar")
        }
        assert len(keys) == 1
