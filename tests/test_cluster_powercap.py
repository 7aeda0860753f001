"""Tests for the socket frequency ceiling and the PowerCapCoordinator."""

import numpy as np
import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.powercap import PowerCapCoordinator
from repro.cluster.sim import fleet_power_budget
from repro.cpu.dvfs import DEFAULT_TABLE
from repro.cpu.power import DEFAULT_POWER_MODEL
from repro.cpu.topology import Cpu
from repro.faults.injectors import ActuatorFaults
from repro.faults.plan import FaultPlan
from repro.sim.engine import Engine
from repro.workload.apps import get_app


def _nodes(n=2, cores=2, seed=3):
    engine = Engine()
    app = get_app("xapian")
    return engine, [
        ClusterNode(engine, i, app, cores, seed=seed) for i in range(n)
    ]


class TestFrequencyCap:
    """The socket frequency ceiling, :meth:`Cpu.set_ceiling`."""

    def test_clamps_writes_above_ceiling(self):
        _, nodes = _nodes(1)
        cpu = nodes[0].cpu
        cpu.set_ceiling(1.5)
        cpu.cores[0].set_frequency(cpu.table.turbo)
        assert cpu.cores[0].frequency == pytest.approx(1.5)
        # Writes at/below the ceiling pass through untouched.
        cpu.cores[0].set_frequency(1.0)
        assert cpu.cores[0].frequency == pytest.approx(1.0)

    def test_batched_path_respects_cap(self):
        for cores in (3, 20):  # the scalar and the numpy lane
            cpu = Cpu(Engine(), cores)
            cpu.set_ceiling(1.2)
            raw = np.linspace(0.5, 3.5, cores)
            applied = cpu.set_frequencies(raw).copy()
            expected = [cpu.table.quantize(min(f, 1.2)) for f in raw.tolist()]
            assert applied.tolist() == expected
            assert cpu.frequencies().tolist() == expected

    def test_set_ceiling_clamps_cores_already_above(self):
        _, nodes = _nodes(1)
        cpu = nodes[0].cpu
        cpu.cores[0].set_frequency(cpu.table.turbo)
        cpu.set_ceiling(1.0)
        assert cpu.cores[0].frequency == pytest.approx(1.0)

    def test_turbo_ceiling_restores_full_range(self):
        _, nodes = _nodes(1)
        cpu = nodes[0].cpu
        cpu.set_ceiling(1.0)
        cpu.set_ceiling(cpu.table.turbo)
        cpu.cores[0].set_frequency(cpu.table.turbo)
        assert cpu.cores[0].frequency == pytest.approx(cpu.table.turbo)

    def test_coordinator_stop_lifts_ceilings(self):
        engine, nodes = _nodes(2)
        coord = PowerCapCoordinator(
            engine, nodes, fleet_power_budget(2, 2, fraction=0.1)
        )
        coord.start()
        engine.run_until(2.5)
        assert all(n.cpu.ceiling < n.cpu.table.turbo for n in nodes)
        coord.stop()
        assert all(n.cpu.ceiling == n.cpu.table.turbo for n in nodes)

    def test_chains_with_prior_instance_override(self):
        # An armed actuator injector sees the raw request (here every
        # write is delayed, so the pending write holds it); the core still
        # ends at or below the ceiling, and set_ceiling's own clamp goes
        # through the injector.
        engine, nodes = _nodes(1)
        cpu = nodes[0].cpu
        core = cpu.cores[0]
        plan = FaultPlan(seed=1, dvfs_delay_prob=1.0, dvfs_delay=0.01)
        inj = ActuatorFaults(engine, plan, np.random.default_rng(0), cpu)
        inj.arm()

        def delayed_core0():
            return [
                ev.args[0] for _, _, _, ev in sorted(engine._heap)
                if not ev.cancelled and ev.callback == core._true_set_frequency
            ]

        cpu.set_ceiling(1.3)
        assert delayed_core0() == [1.3]
        assert core.set_frequency(cpu.table.turbo) == core.frequency
        assert delayed_core0()[-1] == cpu.table.turbo
        engine.run_until(0.02)
        assert core.frequency <= 1.3 + 1e-12
        cpu.set_frequencies([cpu.table.turbo, cpu.table.turbo])
        assert delayed_core0() == [cpu.table.turbo]
        engine.run_until(0.04)
        assert core.frequency <= 1.3 + 1e-12
        assert inj.counts["actuator.delay"] == 5

    def test_delayed_write_is_clamped_when_it_lands(self):
        engine, nodes = _nodes(1)
        cpu = nodes[0].cpu
        plan = FaultPlan(seed=1, dvfs_delay_prob=1.0, dvfs_delay=0.01)
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()
        cpu.cores[0].set_frequency(cpu.table.turbo)  # lands at t=0.01
        cpu.set_ceiling(1.4)  # its own clamp is delayed too
        engine.run_until(0.02)
        assert cpu.cores[0].frequency == pytest.approx(1.4)


class TestApportion:
    def _coordinator(self, budget, n=2, cores=2):
        engine, nodes = _nodes(n, cores)
        return PowerCapCoordinator(engine, nodes, budget)

    def test_under_budget_redistributes_headroom(self):
        budget = fleet_power_budget(2, 2, fraction=0.9)
        coord = self._coordinator(budget)
        targets = coord.apportion(np.array([6.0, 6.0]))
        assert float(targets.sum()) <= budget + 1e-9
        # Symmetric demand, symmetric split.
        assert targets[0] == pytest.approx(targets[1])
        assert np.all(targets <= coord._cap + 1e-9)

    def test_over_budget_scales_above_floors(self):
        budget = fleet_power_budget(2, 2, fraction=0.3)
        coord = self._coordinator(budget)
        targets = coord.apportion(coord._cap.copy())  # both maxed out
        assert float(targets.sum()) == pytest.approx(budget)
        assert np.all(targets >= coord._floor - 1e-9)

    def test_loaded_node_gets_more_than_idle_node(self):
        budget = fleet_power_budget(2, 2, fraction=0.5)
        coord = self._coordinator(budget)
        targets = coord.apportion(np.array([coord._cap[0], coord._floor[1]]))
        assert targets[0] > targets[1]

    def test_infeasible_budget_pins_floors(self):
        coord = self._coordinator(1.0)  # 1 W for a whole fleet
        assert not coord.feasible
        targets = coord.apportion(np.array([50.0, 50.0]))
        assert np.allclose(targets, coord._floor)

    def test_ceiling_for_is_highest_fitting_level(self):
        coord = self._coordinator(fleet_power_budget(2, 2))
        worst, levels = coord._level_power[0], coord._levels[0]
        # Exactly the worst-case power of a mid level fits that level.
        mid = len(levels) // 2
        assert coord._ceiling_for(0, float(worst[mid])) == levels[mid]
        # Below everything -> fmin; at/above turbo worst -> turbo.
        assert coord._ceiling_for(0, 0.0) == levels[0]
        assert coord._ceiling_for(0, float(worst[-1])) == levels[-1]

    def test_rejects_bad_parameters(self):
        engine, nodes = _nodes(1)
        with pytest.raises(ValueError, match="budget_watts"):
            PowerCapCoordinator(engine, nodes, 0.0)


class TestCoordinatorStateDict:
    """Satellite: coordinator window state must checkpoint/restore exactly."""

    def _ran_coordinator(self):
        engine, nodes = _nodes(2)
        budget = fleet_power_budget(2, 2, fraction=0.5)
        coord = PowerCapCoordinator(engine, nodes, budget)
        coord.start()
        engine.run_until(3.5)  # a few cap windows of history
        return engine, nodes, coord, budget

    def test_round_trip_restores_everything(self):
        _, _, coord, budget = self._ran_coordinator()
        assert coord.history  # the snapshot carries real window state
        snap = coord.state_dict()
        engine2, nodes2 = _nodes(2)
        fresh = PowerCapCoordinator(engine2, nodes2, budget)
        fresh.load_state_dict(snap)

        def _as_json(state):
            import json

            return json.dumps(
                state, default=lambda o: o.tolist(), sort_keys=True
            )

        assert _as_json(fresh.state_dict()) == _as_json(snap)
        # Restored ceilings are re-applied to the sockets.
        for node, ceiling in zip(nodes2, snap["ceilings"]):
            assert node.cpu.ceiling == pytest.approx(ceiling)
        assert fresh.throttled_windows == coord.throttled_windows
        np.testing.assert_array_equal(fresh._last_energy, coord._last_energy)
        np.testing.assert_array_equal(fresh._last_powers, coord._last_powers)
        np.testing.assert_array_equal(fresh._last_drawn, coord._last_drawn)
        np.testing.assert_array_equal(fresh._drawn_powers, coord._drawn_powers)
        assert [w.reason for w in fresh.history] == [
            w.reason for w in coord.history
        ]

    def test_snapshot_is_plain_data(self):
        import json

        _, _, coord, _ = self._ran_coordinator()
        encoded = json.dumps(
            coord.state_dict(), default=lambda o: o.tolist(), sort_keys=True
        )
        assert "powercap-coordinator" in encoded

    def test_rejects_mismatched_snapshot(self):
        _, _, coord, budget = self._ran_coordinator()
        snap = coord.state_dict()
        engine2, nodes2 = _nodes(3)
        other = PowerCapCoordinator(
            engine2, nodes2, fleet_power_budget(3, 2, fraction=0.5)
        )
        with pytest.raises(ValueError, match="node"):
            other.load_state_dict(snap)
        with pytest.raises(ValueError, match="powercap-coordinator"):
            coord.load_state_dict({"kind": "something-else"})


class TestFleetPowerBudget:
    def test_always_feasible_and_monotone(self):
        floor = 2 * DEFAULT_POWER_MODEL.socket_power(
            np.full(2, DEFAULT_TABLE.fmin), np.ones(2, dtype=bool)
        )
        worst = 2 * DEFAULT_POWER_MODEL.socket_power(
            np.full(2, DEFAULT_TABLE.turbo), np.ones(2, dtype=bool)
        )
        lo = fleet_power_budget(2, 2, fraction=0.1)
        hi = fleet_power_budget(2, 2, fraction=1.0)
        assert floor <= lo < hi <= worst + 1e-9

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            fleet_power_budget(2, 2, fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            fleet_power_budget(2, 2, fraction=1.5)


class TestTelemetryPartition:
    """A partition freezes what the coordinator reads, not what nodes draw."""

    def test_cap_ok_reports_drawn_power(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cluster.sim import ClusterConfig, ClusterSim
        from repro.faults.fleet import FleetEvent, FleetFaultPlan
        from repro.obs import Observability
        from repro.workload.trace import constant_trace

        plan = FleetFaultPlan(
            events=(FleetEvent(4.0, "telemetry.partition", node=0, duration=4.0),)
        )
        config = ClusterConfig(
            app="xapian", num_nodes=4, cores_per_node=2, policy="controller",
            routing="jsq", seed=5, fault_plan=plan,
            power_cap_watts=fleet_power_budget(4, 2, 0.7),
        )
        trace = constant_trace(get_app("xapian").rps_for_load(0.5, 8), 12.0)
        path = str(tmp_path / "partition.trace.jsonl")
        obs = Observability.from_paths(trace_out=path)
        try:
            sim = ClusterSim(config, trace, obs=obs)
            read_totals = []
            apportion = sim.coordinator.apportion

            def spy(powers, live=None):
                read_totals.append(float(np.sum(powers)))
                return apportion(powers, live)

            sim.coordinator.apportion = spy
            metrics = sim.run()
        finally:
            obs.close()
        assert metrics.partitions == 1
        # Apportioning still runs on the frozen reading, whose catch-up
        # jump at the heal reads as more than the whole budget ...
        assert max(read_totals) > config.power_cap_watts
        # ... but the nodes never drew it, and the verdict says so.
        assert metrics.cap_ok
        assert metrics.max_window_power <= config.power_cap_watts
        assert main(["trace", "summarize", path, "--group-by", "node"]) == 0
        assert "cap_ok=True" in capsys.readouterr().out
