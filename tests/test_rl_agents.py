"""Tests for the DRL algorithms (DDPG, DQN/DDQN, SAC, critics)."""

import numpy as np
import pytest

from repro.nn import TwoHeadMLP, numerical_gradient
from repro.rl import (
    DdpgAgent,
    DdpgConfig,
    DqnAgent,
    DqnConfig,
    SacAgent,
    SacConfig,
    StateActionCritic,
    TwinCritic,
    action_grid,
)


def _actor_factory(rng):
    return lambda: TwoHeadMLP(3, [16], [8], rng, output_activation="sigmoid")


class TestStateActionCritic:
    def test_forward_shape(self, rng):
        c = StateActionCritic(3, 2, rng, hidden=(8, 6, 4))
        q = c.forward_sa(rng.standard_normal((5, 3)), rng.random((5, 2)))
        assert q.shape == (5, 1)

    def test_module_forward_splits_concat(self, rng):
        c = StateActionCritic(3, 2, rng, hidden=(8, 6, 4))
        s = rng.standard_normal((4, 3))
        a = rng.random((4, 2))
        x = np.concatenate([s, a], axis=1)
        assert np.allclose(c.forward(x), c.forward_sa(s, a))

    def test_parameter_gradcheck(self, rng):
        c = StateActionCritic(2, 1, rng, hidden=(4, 3, 3))
        s = rng.standard_normal((3, 2))
        a = rng.random((3, 1))
        x = np.concatenate([s, a], axis=1)
        q = c.forward(x)
        target = rng.standard_normal(q.shape)
        from repro.nn import mse_loss

        _, grad = mse_loss(q, target)
        c.zero_grad()
        c.backward(grad)
        analytic = np.concatenate([p.grad.ravel() for p in c.parameters()])
        numeric = numerical_gradient(c, x, lambda y: mse_loss(y, target)[0])
        assert np.abs(analytic - numeric).max() < 1e-6

    def test_action_gradient_matches_numeric(self, rng):
        c = StateActionCritic(2, 2, rng, hidden=(6, 5, 4))
        s = rng.standard_normal((1, 2))
        a = rng.random((1, 2))
        _, ga = c.action_gradient(s, a)
        eps = 1e-6
        for j in range(2):
            ap = a.copy()
            ap[0, j] += eps
            am = a.copy()
            am[0, j] -= eps
            num = (c.forward_sa(s, ap)[0, 0] - c.forward_sa(s, am)[0, 0]) / (2 * eps)
            assert ga[0, j] == pytest.approx(num, abs=1e-5)

    def test_action_gradient_leaves_param_grads_zero(self, rng):
        c = StateActionCritic(2, 1, rng)
        c.action_gradient(rng.standard_normal((2, 2)), rng.random((2, 1)))
        assert all(np.allclose(p.grad, 0.0) for p in c.parameters())

    def test_hidden_validation(self, rng):
        with pytest.raises(ValueError):
            StateActionCritic(2, 1, rng, hidden=(4, 3))

    def test_twin_min(self, rng):
        tw = TwinCritic(2, 1, rng, hidden=(4, 3, 3))
        s = rng.standard_normal((4, 2))
        a = rng.random((4, 1))
        q1, q2 = tw.forward_sa(s, a)
        assert np.allclose(tw.min_q(s, a), np.minimum(q1, q2))


class TestDdpg:
    def test_warmup_actions_uniform(self, rng):
        cfg = DdpgConfig(state_dim=3, action_dim=2, warmup=100)
        agent = DdpgAgent(_actor_factory(rng), cfg, rng)
        acts = np.stack([agent.act(rng.random(3)) for _ in range(50)])
        assert np.all((acts >= 0) & (acts <= 1))
        assert acts.std() > 0.2  # near-uniform spread

    def test_exploit_actions_bounded(self, rng):
        cfg = DdpgConfig(state_dim=3, action_dim=2, warmup=0)
        agent = DdpgAgent(_actor_factory(rng), cfg, rng)
        for _ in range(20):
            a = agent.act(rng.random(3), explore=True)
            assert np.all((a >= 0) & (a <= 1))

    def test_update_returns_none_before_ready(self, rng):
        cfg = DdpgConfig(state_dim=3, action_dim=2, warmup=10, batch_size=8)
        agent = DdpgAgent(_actor_factory(rng), cfg, rng)
        assert agent.update() is None

    def test_update_changes_parameters_and_targets(self, rng):
        cfg = DdpgConfig(state_dim=3, action_dim=2, warmup=8, batch_size=8, tau=0.1)
        agent = DdpgAgent(_actor_factory(rng), cfg, rng)
        for _ in range(16):
            s = rng.random(3)
            agent.observe(s, rng.random(2), -1.0, rng.random(3))
        before = agent.actor.get_flat().copy()
        t_before = agent.actor_target.get_flat().copy()
        out = agent.update()
        assert out is not None and "critic_loss" in out
        assert not np.allclose(agent.actor.get_flat(), before)
        assert not np.allclose(agent.actor_target.get_flat(), t_before)

    def test_learns_state_independent_optimum(self, rng):
        """Reward peaks at a fixed action: DDPG should move toward it."""
        cfg = DdpgConfig(
            state_dim=3, action_dim=2, warmup=32, batch_size=32,
            noise_sigma=0.4, noise_decay=0.99, noise_mu=0.0,
        )
        agent = DdpgAgent(_actor_factory(rng), cfg, rng)
        target = np.array([0.8, 0.2])
        s = rng.random(3)
        for _ in range(400):
            a = agent.act(s)
            r = -float(np.sum((a - target) ** 2))
            s2 = rng.random(3)
            agent.observe(s, a, r, s2)
            agent.update()
            s = s2
        final = agent.act(rng.random(3), explore=False)
        assert np.abs(final - target).max() < 0.35


class TestDqn:
    def test_action_in_range(self, rng):
        agent = DqnAgent(DqnConfig(state_dim=2, num_actions=4, warmup=0), rng)
        agent.epsilon = 0.0
        for _ in range(10):
            assert 0 <= agent.act(rng.random(2)) < 4

    def test_epsilon_decays_to_floor(self, rng):
        cfg = DqnConfig(state_dim=2, num_actions=4, epsilon_decay=0.5, epsilon_end=0.1)
        agent = DqnAgent(cfg, rng)
        for _ in range(50):
            agent.observe(rng.random(2), 0, 0.0, rng.random(2))
        assert agent.epsilon == pytest.approx(0.1)

    def test_learns_bandit(self, rng):
        cfg = DqnConfig(state_dim=2, num_actions=4, warmup=16, batch_size=16)
        agent = DqnAgent(cfg, rng)
        for _ in range(300):
            s = rng.random(2)
            a = agent.act(s)
            agent.observe(s, a, 1.0 if a == 2 else 0.0, rng.random(2))
            agent.update()
        greedy = [agent.act(rng.random(2), explore=False) for _ in range(10)]
        assert greedy.count(2) >= 8

    def test_target_sync(self, rng):
        cfg = DqnConfig(
            state_dim=2, num_actions=3, warmup=8, batch_size=8, target_sync_interval=2
        )
        agent = DqnAgent(cfg, rng)
        for _ in range(16):
            agent.observe(rng.random(2), 0, 1.0, rng.random(2))
        agent.update()
        assert not np.allclose(agent.q.get_flat(), agent.q_target.get_flat())
        agent.update()  # second update triggers sync
        assert np.allclose(agent.q.get_flat(), agent.q_target.get_flat())

    def test_action_grid(self):
        g = action_grid(2, 3)
        assert g.shape == (9, 2)
        assert np.allclose(g.min(axis=0), 0.0) and np.allclose(g.max(axis=0), 1.0)
        with pytest.raises(ValueError):
            action_grid(2, 1)


class TestSac:
    def test_actions_bounded(self, rng):
        agent = SacAgent(SacConfig(state_dim=3, action_dim=2, warmup=0), rng)
        for _ in range(20):
            a = agent.act(rng.random(3), explore=True)
            assert np.all((a > 0) & (a < 1))

    def test_deterministic_eval_action(self, rng):
        agent = SacAgent(SacConfig(state_dim=3, action_dim=2, warmup=0), rng)
        s = rng.random(3)
        a1 = agent.act(s, explore=False)
        a2 = agent.act(s, explore=False)
        assert np.allclose(a1, a2)

    def test_log_prob_reasonable(self, rng):
        agent = SacAgent(SacConfig(state_dim=3, action_dim=2), rng)
        _, logp, _ = agent.policy.sample(rng.random((16, 3)), rng)
        assert logp.shape == (16,)
        assert np.isfinite(logp).all()

    def test_update_runs_and_reports(self, rng):
        cfg = SacConfig(state_dim=3, action_dim=2, warmup=16, batch_size=16)
        agent = SacAgent(cfg, rng)
        for _ in range(32):
            s = rng.random(3)
            agent.observe(s, rng.random(2), -1.0, rng.random(3))
        out = agent.update()
        assert out is not None
        assert set(out) == {"critic_loss", "actor_loss", "entropy"}

    def test_learns_bandit(self, rng):
        cfg = SacConfig(state_dim=3, action_dim=2, warmup=32, batch_size=32, alpha=0.02)
        agent = SacAgent(cfg, rng)
        target = np.array([0.7, 0.3])
        s = rng.random(3)
        for _ in range(400):
            a = agent.act(s)
            r = -float(np.sum((a - target) ** 2))
            s2 = rng.random(3)
            agent.observe(s, a, r, s2)
            agent.update()
            s = s2
        final = agent.act(rng.random(3), explore=False)
        assert np.abs(final - target).max() < 0.35
