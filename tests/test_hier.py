"""Tests for the hierarchical fleet-RL layer (ISSUE 10).

Covers the fleet agent (build/act/persistence across all three algos),
the fleet observer, the learned budget coordinator end-to-end through
ClusterSim (determinism, cap compliance, chaos compatibility, checkpoint
round trips), the frozen fleet node agents below it, and the off-switch
guarantee that ``hier=None`` runs stay untouched.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.powercap import PowerCapCoordinator
from repro.cluster.sim import (
    ClusterConfig,
    ClusterSim,
    FleetSpec,
    fleet_power_budget,
)
from repro.hier import (
    FEATURES_PER_NODE,
    FleetObserver,
    HierConfig,
    build_fleet_agent,
    fleet_state_dim,
)
from repro.hier import agent as hier_agent
from repro.hier.obs import window_p99
from repro.obs import Observability, render_fleet_summary, summarize_fleet_trace
from repro.parallel.cells import derive_seed
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace

APP = "xapian"


def _trace(duration=8.0, load=0.5, nodes=2, cores=2):
    rps = get_app(APP).rps_for_load(load, nodes * cores)
    return constant_trace(rps, duration)


@pytest.fixture(autouse=True)
def small_learner(monkeypatch):
    """A learner small enough to update within a few seconds of trace."""
    for name, value in (("WARMUP", 2), ("BATCH_SIZE", 4),
                        ("BUFFER_CAPACITY", 64), ("NOISE_SIGMA", 0.1)):
        monkeypatch.setattr(hier_agent, name, value)


def _config(**overrides):
    base = dict(
        app=APP, num_nodes=2, cores_per_node=2, policy="baseline",
        routing="power-aware", seed=11,
        power_cap_watts=fleet_power_budget(2, 2, fraction=0.7),
        hier=HierConfig(),
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _run_json(config, trace):
    metrics = ClusterSim(config, trace).run()
    return json.dumps(metrics.as_dict(), sort_keys=True)


def _normalize(tree):
    """Nested state dicts with numpy leaves -> comparable plain data."""
    if isinstance(tree, dict):
        return {k: _normalize(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_normalize(v) for v in tree]
    if isinstance(tree, np.ndarray):
        return ["nd", tree.dtype.str, tree.shape, tree.tolist()]
    if isinstance(tree, (np.integer, np.floating)):
        return tree.item()
    return tree


class TestHierConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="algo"):
            HierConfig(algo="dqn")

    def test_cache_payload_distinguishes_configs(self):
        a = HierConfig()
        b = HierConfig(train=False)
        assert a.cache_payload() != b.cache_payload()
        assert a.cache_payload() == HierConfig().cache_payload()


class TestFleetAgent:
    @pytest.mark.parametrize("algo", ["ddpg", "td3", "sac"])
    def test_builds_acts_and_round_trips(self, algo, tmp_path):
        cfg = HierConfig(algo=algo)
        agent = build_fleet_agent(3, cfg, seed=5)
        assert agent.state_dim == fleet_state_dim(3) == 3 * FEATURES_PER_NODE
        state = np.linspace(0.0, 1.0, agent.state_dim)
        action = agent.act(state, explore=False)
        assert action.shape == (3,)
        assert np.all(action >= 0.0) and np.all(action <= 1.0)
        # Parameter .npz round trip: a fresh agent loads to the same policy.
        path = str(tmp_path / f"{algo}.npz")
        agent.save(path)
        other = build_fleet_agent(3, cfg, seed=99)
        other.load(path)
        np.testing.assert_allclose(
            other.act(state, explore=False), action, rtol=0, atol=0
        )

    def test_untrained_actor_starts_at_init_share(self):
        agent = build_fleet_agent(2, HierConfig(), seed=5)
        action = agent.act(np.zeros(agent.state_dim), explore=False)
        np.testing.assert_allclose(action, 0.65, atol=0.02)

    def test_warmup_exploration_is_suppressed(self, monkeypatch):
        # Before the replay pool holds `warmup` transitions, explore=True
        # must act exactly like explore=False (no uniform-random budgets).
        monkeypatch.setattr(hier_agent, "WARMUP", 4)
        agent = build_fleet_agent(2, HierConfig(), seed=5)
        state = np.full(agent.state_dim, 0.5)
        np.testing.assert_array_equal(
            agent.act(state, explore=True), agent.act(state, explore=False)
        )

    def test_act_validates_state_shape(self):
        agent = build_fleet_agent(2, HierConfig(), seed=5)
        with pytest.raises(ValueError, match="shape"):
            agent.act(np.zeros(3))

    def test_state_dict_round_trip_preserves_learner(self):
        cfg = HierConfig()
        agent = build_fleet_agent(2, cfg, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(12):
            s = rng.random(agent.state_dim)
            a = agent.act(s)
            agent.observe(s, a, -1.0, rng.random(agent.state_dim))
            if agent.ready:
                agent.update()
        assert agent.updates > 0
        snap = agent.state_dict()
        other = build_fleet_agent(2, cfg, seed=77)
        other.load_state_dict(snap)
        assert _normalize(other.state_dict()) == _normalize(agent.state_dict())

    def test_state_dict_rejects_mismatched_shape(self):
        snap = build_fleet_agent(2, HierConfig(), seed=5).state_dict()
        with pytest.raises(ValueError, match="node fleet"):
            build_fleet_agent(3, HierConfig(), seed=5).load_state_dict(snap)


class TestFleetObserver:
    def test_shape_and_bounds(self):
        from repro.cluster.node import ClusterNode
        from repro.sim.engine import Engine

        engine = Engine()
        app = get_app(APP)
        nodes = [ClusterNode(engine, i, app, 2, seed=3) for i in range(3)]
        obs = FleetObserver(nodes, sla=app.sla, cap_watts=np.full(3, 20.0))
        state = obs.observe(powers=np.array([5.0, 10.0, 40.0]))
        assert state.shape == (obs.state_dim,) == (3 * FEATURES_PER_NODE,)
        assert np.all(state >= 0.0) and np.all(state <= 1.0)
        # No traffic yet: routed share is uniform, masks are clear.
        per_node = state.reshape(3, FEATURES_PER_NODE)
        np.testing.assert_allclose(per_node[:, 4], 0.0)  # down mask
        np.testing.assert_allclose(per_node[:, 5], 0.0)  # degraded mask


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1, max_size=300,
    )
)
@settings(max_examples=300, deadline=None)
def test_window_p99_is_numpy_quantile_bit_for_bit(values):
    assert window_p99(values) == float(np.quantile(values, 0.99))


class TestLearnedCoordinatorSim:
    def test_deterministic_and_capped(self):
        trace = _trace()
        cfg = _config()
        a = _run_json(cfg, trace)
        b = _run_json(cfg, trace)
        assert a == b
        metrics = json.loads(a)
        assert metrics["cap_ok"]
        assert metrics["hier_decisions"] > 0
        assert metrics["hier_updates"] > 0

    def test_seed_changes_hier_run(self):
        trace = _trace()
        assert _run_json(_config(seed=11), trace) != _run_json(
            _config(seed=12), trace
        )

    def test_eval_mode_runs_frozen(self):
        trace = _trace()
        metrics = json.loads(
            _run_json(_config(hier=HierConfig(train=False)), trace)
        )
        assert metrics["hier_decisions"] > 0
        assert metrics["hier_updates"] == 0

    def test_chaos_membership_change_reapportions(self):
        from repro.faults import standard_chaos_plan

        trace = _trace(duration=10.0)
        plan = standard_chaos_plan(1.5, 2, trace.duration, seed=11)
        metrics = ClusterSim(_config(fault_plan=plan), trace).run()
        assert metrics.hier_decisions > 0
        assert metrics.crashes > 0  # the plan actually exercised membership
        # Fault-injected DVFS writes can pierce any coordinator's ceilings;
        # the guarantee is the learned layer is no worse than the heuristic.
        heuristic = ClusterSim(
            _config(fault_plan=plan, hier=None), trace
        ).run()
        assert metrics.cap_ok == heuristic.cap_ok
        assert metrics.max_window_power <= heuristic.max_window_power + 1e-6

    def test_fleet_agent_arg_requires_hier(self):
        agent = build_fleet_agent(2, HierConfig(), seed=5)
        with pytest.raises(ValueError, match="hier"):
            ClusterSim(_config(hier=None), _trace(), fleet_agent=agent)

    def test_hier_requires_power_cap(self):
        with pytest.raises(ValueError, match="power_cap_watts"):
            _config(power_cap_watts=None)

    def test_preseeded_agent_resumes_learning(self):
        trace = _trace()
        cfg = _config()
        first = ClusterSim(cfg, trace)
        first.run()
        updates_after_first = first.fleet_agent.updates
        assert updates_after_first > 0
        # Continue with the trained agent: updates accumulate.
        resumed = build_fleet_agent(
            2, cfg.hier, derive_seed(cfg.seed, "hier", "fleet-agent")
        )
        resumed.load_state_dict(first.fleet_agent.state_dict())
        second = ClusterSim(cfg, trace, fleet_agent=resumed)
        second.run()
        assert second.fleet_agent.updates > updates_after_first

    def test_coordinator_state_dict_round_trip(self):
        trace = _trace()
        cfg = _config()
        sim = ClusterSim(cfg, trace)
        sim.run()
        snap = sim.coordinator.state_dict()
        assert snap["kind"] == "learned-coordinator"
        other = ClusterSim(cfg, trace)
        other.coordinator.load_state_dict(snap)
        assert _normalize(other.coordinator.state_dict()) == _normalize(snap)

    def test_coordinator_snapshot_with_pooled_replay_is_rejected(self):
        trace = _trace()
        sim = ClusterSim(_config(), trace)
        sim.run()
        snap = sim.coordinator.state_dict()
        other = ClusterSim(_config(), trace).coordinator
        # Snapshots from before the removal carry an averaging-round count
        # and, when pooling was off, no replay state: they still load.
        other.load_state_dict(dict(snap, fed_rounds=0))
        assert _normalize(other.state_dict()) == _normalize(snap)
        with pytest.raises(ValueError, match="shared-replay"):
            other.load_state_dict(dict(snap, shared_replay={"buffer": {}}))


class TestFrozenNodeAgents:
    """Fleet DeepPower nodes act but never learn, and all load one agent.

    So pooling their transitions or averaging their networks cannot change
    a run.  If fleet nodes ever learn, pooling might matter again.
    """

    @pytest.mark.parametrize("hier", [True, False], ids=["hier", "heuristic"])
    def test_node_agents_never_update_and_stay_identical(self, hier):
        cfg = _config(policy="deeppower", **({} if hier else {"hier": None}))
        sim = ClusterSim(cfg, _trace(duration=70.0))
        sim.run()
        # Long enough to fill a batch: a learning node would have updated.
        assert all(d.agent.ready for d in sim.drivers)
        agents = [d.agent for d in sim.drivers]
        assert [a.updates for a in agents] == [0] * cfg.num_nodes
        for name in ("actor", "actor_target", "critic", "critic_target"):
            flats = [getattr(a, name).get_flat() for a in agents]
            for flat in flats[1:]:
                assert np.array_equal(flat, flats[0])


class TestHierOffSwitch:
    """``hier=None`` must leave the pre-hier execution path untouched."""

    def test_plain_fleet_draws_no_dispatch_rng(self):
        sim = ClusterSim(_config(hier=None), _trace())
        assert sim.dispatcher.rng is None
        assert sim.fleet_agent is None
        assert isinstance(sim.coordinator, PowerCapCoordinator)
        assert type(sim.coordinator) is PowerCapCoordinator

    def test_disabled_trace_has_no_hier_events(self, tmp_path):
        path = tmp_path / "plain.trace.jsonl"
        obs = Observability.from_paths(trace_out=str(path), meta={"kind": "t"})
        try:
            ClusterSim(_config(hier=None), _trace(), obs=obs).run()
        finally:
            obs.close()
        kinds = {
            json.loads(line).get("kind")
            for line in path.read_text().splitlines()
        }
        assert "coordinator-decision" not in kinds
        summary = summarize_fleet_trace(str(path))
        assert summary.hier == {}
        assert "hier:" not in render_fleet_summary(summary)

    def test_metrics_dict_reports_zero_hier_counters(self):
        metrics = json.loads(_run_json(_config(hier=None), _trace()))
        assert metrics["hier_decisions"] == 0
        assert metrics["hier_updates"] == 0


class TestHierTraceSummary:
    def test_decisions_streamed_into_summary(self, tmp_path):
        path = tmp_path / "hier.trace.jsonl"
        obs = Observability.from_paths(trace_out=str(path), meta={"kind": "t"})
        try:
            ClusterSim(_config(), _trace(), obs=obs).run()
        finally:
            obs.close()
        summary = summarize_fleet_trace(str(path))
        assert summary.hier["decisions"] > 0
        assert summary.hier["learned"] > 0
        assert "mean_reward" in summary.hier
        assert "hier:" in render_fleet_summary(summary)


class TestFleetSpecHier:
    def test_cache_payload_covers_hier(self):
        trace = _trace()
        base = dict(
            app=APP, policy="baseline", num_nodes=2, cores_per_node=2,
            seed=11, routing="power-aware",
            power_cap_watts=fleet_power_budget(2, 2, fraction=0.7),
        )
        plain = FleetSpec(ClusterConfig(**base), trace)
        learned = FleetSpec(ClusterConfig(hier=HierConfig(), **base), trace)
        other = FleetSpec(ClusterConfig(hier=HierConfig(train=False), **base), trace)
        keys = {
            json.dumps(s.cache_payload(), sort_keys=True, default=str)
            for s in (plain, learned, other)
        }
        assert len(keys) == 3

    def test_execute_tags_trace_meta(self, tmp_path):
        trace = _trace(duration=4.0)
        base = dict(
            app=APP, policy="baseline", num_nodes=2, cores_per_node=2,
            seed=11, routing="power-aware",
            power_cap_watts=fleet_power_budget(2, 2, fraction=0.7),
        )
        path = tmp_path / "spec.trace.jsonl"
        spec = FleetSpec(ClusterConfig(hier=HierConfig(), **base), trace,
                         trace_out=str(path))
        metrics, _ = spec.execute()
        assert metrics.hier_decisions > 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header["meta"]["hier"] == "ddpg"
        # Hier-disabled specs carry no hier meta key at all.
        plain_path = tmp_path / "plain.trace.jsonl"
        FleetSpec(ClusterConfig(**base), trace, trace_out=str(plain_path)).execute()
        plain_header = json.loads(plain_path.read_text().splitlines()[0])
        assert "hier" not in plain_header["meta"]
