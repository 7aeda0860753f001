"""Tests for the TD3 extension agent and the MMPP arrival trace."""

import numpy as np
import pytest

from repro.nn import TwoHeadMLP
from repro.rl import Td3Agent, Td3Config
from repro.workload import mmpp_trace


def _actor_factory(rng):
    return lambda: TwoHeadMLP(3, [16], [8], rng, output_activation="sigmoid")


class TestTd3:
    def test_actions_bounded(self, rng):
        agent = Td3Agent(_actor_factory(rng), Td3Config(state_dim=3, action_dim=2, warmup=0), rng)
        for _ in range(20):
            a = agent.act(rng.random(3), explore=True)
            assert np.all((a >= 0) & (a <= 1))

    def test_delayed_policy_updates(self, rng):
        cfg = Td3Config(state_dim=3, action_dim=2, warmup=8, batch_size=8, policy_delay=2)
        agent = Td3Agent(_actor_factory(rng), cfg, rng)
        for _ in range(16):
            agent.observe(rng.random(3), rng.random(2), -1.0, rng.random(3))
        before = agent.actor.get_flat().copy()
        out1 = agent.update()  # critic only
        assert np.allclose(agent.actor.get_flat(), before)
        assert np.isnan(out1["actor_loss"])
        out2 = agent.update()  # actor too
        assert not np.allclose(agent.actor.get_flat(), before)
        assert not np.isnan(out2["actor_loss"])

    def test_warmup_random(self, rng):
        agent = Td3Agent(_actor_factory(rng), Td3Config(state_dim=3, warmup=100), rng)
        acts = np.stack([agent.act(rng.random(3)) for _ in range(30)])
        assert acts.std() > 0.2

    def test_learns_bandit(self, rng):
        cfg = Td3Config(
            state_dim=3, action_dim=2, warmup=32, batch_size=32,
            noise_sigma=0.4, noise_decay=0.995, noise_min_sigma=0.05,
        )
        agent = Td3Agent(_actor_factory(rng), cfg, rng)
        target = np.array([0.75, 0.25])
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

    def test_update_not_ready(self, rng):
        agent = Td3Agent(_actor_factory(rng), Td3Config(state_dim=3, warmup=50), rng)
        assert agent.update() is None


class TestMmppTrace:
    def test_alternating_rates(self, rng):
        t = mmpp_trace(rng, duration=100.0, calm_rate=10.0, burst_rate=100.0,
                       mean_calm=5.0, mean_burst=1.0)
        rates = set(np.unique(t.rates))
        assert rates <= {10.0, 100.0}
        assert len(rates) == 2
        assert t.duration == pytest.approx(100.0)

    def test_dwell_time_proportions(self, rng):
        t = mmpp_trace(rng, duration=8000.0, calm_rate=1.0, burst_rate=2.0,
                       mean_calm=8.0, mean_burst=2.0)
        widths = np.diff(t.edges)
        calm_time = widths[t.rates == 1.0].sum()
        burst_time = widths[t.rates == 2.0].sum()
        assert calm_time / burst_time == pytest.approx(4.0, rel=0.3)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            mmpp_trace(rng, duration=0.0, calm_rate=1.0, burst_rate=2.0,
                       mean_calm=1.0, mean_burst=1.0)
        with pytest.raises(ValueError):
            mmpp_trace(rng, duration=10.0, calm_rate=1.0, burst_rate=2.0,
                       mean_calm=0.0, mean_burst=1.0)
