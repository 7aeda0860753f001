"""Integration tests for the DeepPower runtime and training loop."""

import numpy as np
import pytest

from repro.core import (
    DeepPowerAgent,
    DeepPowerConfig,
    DeepPowerRuntime,
    default_ddpg_config,
    train_deeppower,
)
from repro.core.agent import build_actor
from repro.experiments.runner import build_context
from repro.sim import RngRegistry
from repro.workload import constant_trace, diurnal_trace


def _agent(seed=1, **over):
    rngs = RngRegistry(seed)
    return DeepPowerAgent(rngs.get("a"), default_ddpg_config(**over))


class TestDeepPowerAgent:
    def test_actor_architecture(self):
        rng = np.random.default_rng(0)
        actor = build_actor(rng)
        y = actor.forward(np.random.rand(3, 8))
        assert y.shape == (3, 2)
        assert np.all((y >= 0) & (y <= 1))

    def test_actor_starts_near_center(self):
        """Small final-layer init keeps the sigmoid unsaturated at start."""
        rng = np.random.default_rng(0)
        actor = build_actor(rng)
        y = actor.forward(np.random.rand(20, 8))
        assert np.all(np.abs(y - 0.5) < 0.1)

    def test_parameter_count_order_of_paper(self):
        agent = _agent()
        # paper reports 2096; the shared-trunk + two-branch topology here
        # lands in the same few-thousand range.
        assert 1500 < agent.parameter_count() < 4000

    def test_save_load_roundtrip(self, tmp_path):
        agent = _agent()
        s = np.random.rand(8)
        a_before = agent.act(s, explore=False)
        path = str(tmp_path / "agent.npz")
        agent.save(path)
        other = _agent(seed=99)
        assert not np.allclose(other.act(s, explore=False), a_before)
        other.load(path)
        assert np.allclose(other.act(s, explore=False), a_before)

    def test_dimension_validation(self):
        rngs = RngRegistry(0)
        with pytest.raises(ValueError):
            DeepPowerAgent(rngs.get("a"), default_ddpg_config(state_dim=4))

    def test_config_override_validation(self):
        with pytest.raises(TypeError):
            default_ddpg_config(bogus_field=1.0)


class TestRuntime:
    def _run(self, tiny_app, duration=4.0, train=True, rate_load=0.4):
        trace = constant_trace(tiny_app.rps_for_load(rate_load, 2), duration)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        agent = _agent(warmup=2, batch_size=4)
        cfg = DeepPowerConfig(long_time=0.5, train=train)
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(duration)
        rt.stop()
        return rt, ctx, agent

    def test_steps_happen_at_long_time_cadence(self, tiny_app):
        rt, _, _ = self._run(tiny_app, duration=4.0)
        assert rt.step_count == 8  # 4 s / 0.5 s

    def test_records_capture_series(self, tiny_app):
        rt, _, _ = self._run(tiny_app)
        assert len(rt.records) == rt.step_count
        r = rt.records[-1]
        assert r.power_watts > 0
        assert 0 <= r.action[0] <= 1 and 0 <= r.action[1] <= 1
        assert r.rps > 0

    def test_training_pushes_transitions_and_updates(self, tiny_app):
        rt, _, agent = self._run(tiny_app, train=True)
        assert len(agent.replay) >= rt.step_count - 1
        assert agent.updates > 0
        assert rt.last_losses is not None

    def test_eval_mode_freezes_networks(self, tiny_app):
        agent_params_before = None
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 3.0)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        agent = _agent(warmup=2, batch_size=4)
        agent_params_before = agent.actor.get_flat().copy()
        cfg = DeepPowerConfig(long_time=0.5, train=False)
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(3.0)
        assert np.allclose(agent.actor.get_flat(), agent_params_before)
        assert agent.updates == 0

    def test_controller_params_follow_actions(self, tiny_app):
        rt, _, _ = self._run(tiny_app)
        last = rt.records[-1]
        assert rt.controller.base_freq == pytest.approx(float(last.action[0]))
        assert rt.controller.scaling_coef == pytest.approx(float(last.action[1]))

    def test_action_and_reward_histories(self, tiny_app):
        rt, _, _ = self._run(tiny_app)
        assert rt.action_history().shape == (rt.step_count, 2)
        assert rt.reward_history().shape == (rt.step_count,)
        assert np.all(rt.reward_history() <= 0)  # reward is a cost


class TestTrainingLoop:
    def test_train_returns_stats_per_episode(self, tiny_app, rngs):
        trace = diurnal_trace(rngs.get("t"), duration=6.0, num_segments=6)
        trace = trace.scaled_to_mean(tiny_app.rps_for_load(0.4, 2))
        agent = _agent(warmup=4, batch_size=8)
        cfg = DeepPowerConfig(long_time=0.5)
        res = train_deeppower(
            tiny_app, trace, episodes=3, num_cores=2, seed=9, agent=agent, config=cfg
        )
        assert len(res.episodes) == 3
        assert all(e.completed > 0 for e in res.episodes)
        assert res.reward_curve().shape == (3,)

    def test_evaluate_runs_frozen(self, monkeypatch):
        """A DeepPower run cell plays its trained agent frozen: every act
        is exploration-free and no update runs."""
        from dataclasses import replace

        from repro.experiments.fig7_main import agent_recipe
        from repro.experiments.scenarios import SMOKE
        from repro.parallel import RunSpec
        from repro.parallel.grid import execute_run_spec

        explores = []
        real_act = DeepPowerAgent.act

        def act(self, state, explore=True):
            explores.append(explore)
            return real_act(self, state, explore)

        monkeypatch.setattr(DeepPowerAgent, "act", act)
        monkeypatch.setattr(
            DeepPowerAgent, "update", lambda self: pytest.fail("a frozen run updated")
        )
        trace = constant_trace(200.0, 3.0)
        recipe = agent_recipe("xapian", trace, SMOKE, 4)
        training = replace(recipe, arrays=recipe.fresh_agent().network_arrays())
        spec = RunSpec(
            "xapian", "deeppower", trace, 4, seed=11, training=training,
            extras=("step_series",),
        )
        metrics, extras = execute_run_spec(spec)
        assert metrics.completed > 0
        assert metrics.avg_power_watts > 0
        assert len(extras["step_series"]["time"]) > 0
        assert explores and not any(explores)

    def test_invalid_episode_count(self, tiny_app, rngs):
        trace = constant_trace(10.0, 1.0)
        with pytest.raises(ValueError):
            train_deeppower(tiny_app, trace, episodes=0)

    def test_shared_agent_accumulates_experience(self, tiny_app, rngs):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 4.0)
        agent = _agent(warmup=4, batch_size=8)
        cfg = DeepPowerConfig(long_time=0.5)
        train_deeppower(
            tiny_app, trace, episodes=2, num_cores=2, seed=9, agent=agent, config=cfg
        )
        n1 = agent.replay.total_pushed
        train_deeppower(
            tiny_app, trace, episodes=1, num_cores=2, seed=10, agent=agent, config=cfg
        )
        assert agent.replay.total_pushed > n1
