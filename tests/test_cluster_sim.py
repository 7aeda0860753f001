"""End-to-end tests for ClusterSim: determinism, cap compliance, baselines
under dispatcher-fed arrivals, fleet metrics merging, and grid fan-out."""

import json

import numpy as np
import pytest

from repro.cluster.sim import (
    ClusterConfig,
    ClusterSim,
    FleetSpec,
    fleet_power_budget,
    fleet_trace,
)
from repro.parallel import RunResultCache, run_grid
from repro.server.metrics import LatencyRecorder
from repro.workload.apps import get_app
from repro.workload.trace import WorkloadTrace, constant_trace, diurnal_trace
from repro.sim.rng import RngRegistry


APP = "xapian"


def _trace(duration=6.0, load=0.5, nodes=2, cores=2):
    rps = get_app(APP).rps_for_load(load, nodes * cores)
    return constant_trace(rps, duration)


def _config(**overrides):
    base = dict(
        app=APP, num_nodes=2, cores_per_node=2, policy="retail",
        routing="jsq", seed=11,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _run_json(config, trace):
    metrics = ClusterSim(config, trace).run()
    # NaN != NaN breaks dict equality; the serialised form compares exactly.
    return json.dumps(metrics.as_dict(), sort_keys=True)


class TestClusterConfig:
    def test_validates_shape(self):
        with pytest.raises(ValueError, match="num_nodes"):
            _config(num_nodes=0)
        with pytest.raises(ValueError, match="cores_per_node"):
            _config(cores_per_node=0)
        with pytest.raises(ValueError, match="node policy"):
            _config(policy="nonsense")
        with pytest.raises(ValueError, match="routing"):
            _config(routing="nonsense")
        with pytest.raises(ValueError, match="power_cap_watts"):
            _config(power_cap_watts=-1.0)


class TestDeterminism:
    def test_same_seed_same_fleet(self):
        trace = _trace()
        assert _run_json(_config(), trace) == _run_json(_config(), trace)

    def test_capped_run_deterministic(self):
        trace = _trace()
        budget = fleet_power_budget(2, 2, fraction=0.5)
        cfg = _config(policy="baseline", routing="power-aware",
                      power_cap_watts=budget)
        assert _run_json(cfg, trace) == _run_json(cfg, trace)

    def test_seed_changes_fleet(self):
        trace = _trace()
        assert _run_json(_config(seed=11), trace) != _run_json(
            _config(seed=12), trace
        )


class TestPowerCapCompliance:
    def test_fleet_power_stays_under_budget(self):
        # Run-at-max baseline against a budget that forces throttling.
        budget = fleet_power_budget(2, 2, fraction=0.5)
        cfg = _config(policy="baseline", routing="power-aware",
                      power_cap_watts=budget)
        metrics = ClusterSim(cfg, _trace(duration=10.0)).run()
        assert metrics.cap_ok
        assert metrics.max_window_power <= budget * 1.05
        assert metrics.throttled_windows > 0
        assert metrics.fleet.completed > 0

    def test_uncapped_run_reports_vacuous_cap(self):
        metrics = ClusterSim(_config(), _trace()).run()
        assert metrics.cap_ok
        assert np.isnan(metrics.max_window_power)
        assert metrics.throttled_windows == 0


class TestBaselinesUnderDispatch:
    """ReTail and Gemini fed by the dispatcher instead of their own source."""

    @pytest.mark.parametrize("policy", ["retail", "gemini"])
    @pytest.mark.parametrize("routing", ["round-robin", "jsq", "power-aware"])
    def test_policy_serves_fleet(self, policy, routing):
        cfg = _config(policy=policy, routing=routing)
        metrics = ClusterSim(cfg, _trace()).run()
        assert metrics.fleet.completed > 0
        assert all(m.completed > 0 for m in metrics.node_metrics)
        assert sum(metrics.routed) >= metrics.fleet.completed
        assert np.isfinite(metrics.fleet.tail_latency)
        assert np.isfinite(metrics.fleet.avg_power_watts)

    def test_gemini_boosts_then_queue_drains_to_zero_mid_window(self):
        """Two-stage boost under overload, then a zero-rate tail: the boost
        check keeps ticking over drained (empty-queue) nodes without
        firing or failing."""
        app = get_app(APP)
        burst = app.rps_for_load(1.4, 2 * 2)  # fleet-wide overload
        trace = WorkloadTrace([0.0, 2.0, 4.0], [burst, 0.0])
        cfg = _config(policy="gemini", routing="jsq")
        sim = ClusterSim(cfg, trace)
        metrics = sim.run()
        # Stage 2 fired during the burst (queue risk / deadline projection).
        boosts = [d.boosts for d in sim.drivers]
        assert sum(boosts) > 0
        # The zero-rate tail drained every node's queue to empty while the
        # per-node boost-check tasks were still running.
        assert all(n.queue_len() == 0 for n in sim.nodes)
        assert all(n.busy_workers() == 0 for n in sim.nodes)
        assert metrics.fleet.completed == sum(n.routed for n in sim.nodes)

    def test_retail_under_burst_drain(self):
        app = get_app(APP)
        burst = app.rps_for_load(1.2, 2 * 2)
        trace = WorkloadTrace([0.0, 2.0, 4.0], [burst, 0.0])
        metrics = ClusterSim(_config(policy="retail"), trace).run()
        assert metrics.fleet.completed > 0
        assert metrics.fleet.completed == sum(metrics.routed)


class TestMergeRunMetrics:
    def test_pooled_equals_concatenated(self):
        # Fleet metrics pool every node's raw per-request samples; they are
        # not an average of per-node quantiles.
        trace = _trace()
        sim = ClusterSim(_config(), trace)
        fleet = sim.run().fleet
        pooled = LatencyRecorder(sim.app.sla)
        for node in sim.nodes:
            rec = node.server.metrics
            pooled.latencies.extend(rec.latencies)
            pooled.service_times.extend(rec.service_times)
            pooled.queue_times.extend(rec.queue_times)
            pooled.arrived += rec.arrived
            pooled.completed += rec.completed
            pooled.timeouts += rec.timeouts
        direct = pooled.summarize(trace.duration)
        direct.energy_joules = fleet.energy_joules
        direct.avg_power_watts = fleet.avg_power_watts
        direct.dvfs_switches = fleet.dvfs_switches
        assert fleet.completed == sum(n.server.metrics.completed for n in sim.nodes) > 0
        assert json.dumps(fleet.as_dict(), sort_keys=True) == json.dumps(
            direct.as_dict(), sort_keys=True
        )


class TestFleetHelpers:
    def test_fleet_trace_scales_to_fleet_capacity(self):
        rngs = RngRegistry(3)
        base = diurnal_trace(rngs.get("t"), duration=30.0)
        scaled = fleet_trace(base, APP, num_nodes=4, workers_per_node=2,
                             load=0.5)
        app = get_app(APP)
        assert scaled.mean_rate() == pytest.approx(
            app.rps_for_load(0.5, 8), rel=1e-9
        )


class TestFleetSpecGrid:
    def _specs(self):
        trace = _trace(duration=4.0, load=0.4)
        return [
            FleetSpec(_config(policy="retail", seed=7, routing=routing),
                      trace, label="test-fleet")
            for routing in ("round-robin", "jsq")
        ]

    def test_parallel_matches_serial(self):
        serial = run_grid(self._specs(), jobs=1)
        parallel = run_grid(self._specs(), jobs=2)
        for a, b in zip(serial, parallel):
            assert json.dumps(a.unwrap().as_dict(), sort_keys=True) == \
                json.dumps(b.unwrap().as_dict(), sort_keys=True)

    def test_cache_round_trip(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        first = run_grid(self._specs(), jobs=1, cache=cache)
        second = run_grid(self._specs(), jobs=1, cache=cache)
        assert not any(o.from_cache for o in first)
        assert all(o.from_cache for o in second)
        for a, b in zip(first, second):
            assert json.dumps(a.unwrap().as_dict(), sort_keys=True) == \
                json.dumps(b.unwrap().as_dict(), sort_keys=True)

    def test_failed_cell_isolated(self):
        specs = self._specs()
        bad = FleetSpec(
            _config(policy="deeppower", seed=7,
                    agent_path="/nonexistent/agent.npz"),
            specs[0].trace,
        )
        outcomes = run_grid([specs[0], bad], jobs=1)
        assert outcomes[0].ok
        assert not outcomes[1].ok and outcomes[1].error
