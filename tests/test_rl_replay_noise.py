"""Tests for the replay buffer and exploration noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import GaussianNoise, ReplayBuffer, Transition


class TestReplayBuffer:
    def _fill(self, buf, n):
        for i in range(n):
            buf.push(
                np.full(buf.state_dim, float(i)),
                np.full(buf.action_dim, float(i)),
                float(i),
                np.full(buf.state_dim, float(i + 1)),
                i % 2 == 0,
            )

    def test_size_growth_and_cap(self):
        buf = ReplayBuffer(5, 2, 1)
        self._fill(buf, 3)
        assert len(buf) == 3 and not buf.full
        self._fill(buf, 5)
        assert len(buf) == 5 and buf.full
        assert buf.total_pushed == 8

    def test_oldest_overwritten(self):
        buf = ReplayBuffer(3, 1, 1)
        self._fill(buf, 5)
        stored_rewards = set(buf._rewards[:3].tolist())
        assert stored_rewards == {2.0, 3.0, 4.0}

    def test_sample_shapes(self, rng):
        buf = ReplayBuffer(10, 4, 2)
        self._fill(buf, 10)
        s, a, r, s2, d = buf.sample(6, rng)
        assert s.shape == (6, 4) and a.shape == (6, 2)
        assert r.shape == (6,) and s2.shape == (6, 4) and d.shape == (6,)
        assert d.dtype == bool

    def test_sample_consistency(self, rng):
        buf = ReplayBuffer(10, 1, 1)
        self._fill(buf, 10)
        s, a, r, s2, _ = buf.sample(32, rng)
        # each transition satisfies s2 = s + 1 and r = s
        assert np.allclose(s2[:, 0], s[:, 0] + 1)
        assert np.allclose(r, s[:, 0])

    def test_sample_returns_copies(self, rng):
        buf = ReplayBuffer(4, 1, 1)
        self._fill(buf, 4)
        s, *_ = buf.sample(2, rng)
        s[...] = 999.0
        assert not np.any(buf._states == 999.0)

    def test_empty_sample_raises(self, rng):
        with pytest.raises(ValueError):
            ReplayBuffer(4, 1, 1).sample(1, rng)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 1, 1)

    def test_clear(self, rng):
        buf = ReplayBuffer(4, 1, 1)
        self._fill(buf, 4)
        buf.clear()
        assert len(buf) == 0

    def test_push_transition_dataclass(self):
        buf = ReplayBuffer(4, 2, 1)
        tr = Transition(np.zeros(2), np.ones(1), 1.5, np.ones(2), True)
        buf.push_transition(tr)
        assert len(buf) == 1
        assert buf._rewards[0] == 1.5

    @given(cap=st.integers(1, 50), pushes=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_property_size_never_exceeds_capacity(self, cap, pushes):
        buf = ReplayBuffer(cap, 1, 1)
        for i in range(pushes):
            buf.push(np.zeros(1), np.zeros(1), 0.0, np.zeros(1))
        assert len(buf) == min(cap, pushes)


class TestGaussianNoise:
    def test_sample_statistics(self, rng):
        noise = GaussianNoise(1, rng, mu=0.3, sigma=0.5)
        samples = np.array([noise.sample()[0] for _ in range(20_000)])
        assert samples.mean() == pytest.approx(0.3, abs=0.02)
        assert samples.std() == pytest.approx(0.5, abs=0.02)

    def test_decay_reduces_sigma_and_mu(self, rng):
        noise = GaussianNoise(1, rng, mu=0.4, sigma=1.0, decay=0.5, min_sigma=0.1)
        noise.step_decay()
        assert noise.sigma == pytest.approx(0.5)
        assert noise.mu == pytest.approx(0.2)

    def test_sigma_floor(self, rng):
        noise = GaussianNoise(1, rng, sigma=0.2, decay=0.1, min_sigma=0.15)
        for _ in range(10):
            noise.step_decay()
        assert noise.sigma == pytest.approx(0.15)

    def test_reset_restores_initial(self, rng):
        noise = GaussianNoise(1, rng, mu=0.3, sigma=1.0, decay=0.5)
        noise.step_decay()
        noise.reset()
        assert noise.sigma == 1.0 and noise.mu == 0.3

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GaussianNoise(0, rng)
        with pytest.raises(ValueError):
            GaussianNoise(1, rng, sigma=-1.0)
        with pytest.raises(ValueError):
            GaussianNoise(1, rng, decay=0.0)
