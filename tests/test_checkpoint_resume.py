"""Deterministic kill/resume tests (the PR's acceptance criteria).

The headline guarantee: training checkpointed at episode k, killed, and
resumed with a *brand-new* process-equivalent agent produces bitwise
identical reward, action and per-core frequency histories to the same-seed
uninterrupted run — for DDPG and TD3.  Plus round-trip tests for every
``state_dict`` provider feeding those snapshots, and the corruption
fallback wired through a real training resume.
"""

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager
from repro.control import ControlPlaneConfig
from repro.core import (
    DeepPowerAgent,
    DeepPowerConfig,
    DeepPowerRuntime,
    default_ddpg_config,
    train_deeppower,
)
from repro.core.agent import build_actor
from repro.faults.bus import BusEvent, BusFaultPlan, LinkFaults
from repro.experiments.runner import build_context
from repro.nn.layers import Parameter
from repro.nn.optim import SGD, Adam
from repro.rl.noise import GaussianNoise
from repro.rl.replay import ReplayBuffer
from repro.rl.sac import SacAgent, SacConfig
from repro.rl.td3 import Td3Agent, Td3Config
from repro.sim import RngRegistry
from repro.workload import constant_trace

from .test_checkpoint_manager import assert_tree_equal


# --------------------------------------------------------------------------
# component round-trips
# --------------------------------------------------------------------------


class TestReplayRoundTrip:
    def _filled(self, pushes):
        buf = ReplayBuffer(8, state_dim=3, action_dim=2)
        rng = np.random.default_rng(0)
        for i in range(pushes):
            buf.push(rng.random(3), rng.random(2), float(i), rng.random(3), i % 5 == 0)
        return buf

    @pytest.mark.parametrize("pushes", [3, 8, 11])  # partial, full, wrapped
    def test_roundtrip_preserves_contents_and_cursor(self, pushes):
        src = self._filled(pushes)
        dst = ReplayBuffer(8, state_dim=3, action_dim=2)
        dst.load_state_dict(src.state_dict())
        assert len(dst) == len(src)
        assert dst.total_pushed == src.total_pushed
        # identical next-write slot: one more push lands in the same place
        src.push(np.ones(3), np.ones(2), 9.0, np.ones(3), True)
        dst.push(np.ones(3), np.ones(2), 9.0, np.ones(3), True)
        np.testing.assert_array_equal(src._states, dst._states)
        np.testing.assert_array_equal(src._rewards, dst._rewards)
        np.testing.assert_array_equal(src._dones, dst._dones)
        # identical sampling under identical generator state
        a = src.sample(16, np.random.default_rng(7))
        b = dst.sample(16, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_dimension_mismatch_raises(self):
        src = self._filled(5)
        with pytest.raises(ValueError, match="state_dim"):
            ReplayBuffer(8, state_dim=4, action_dim=2).load_state_dict(src.state_dict())
        with pytest.raises(ValueError, match="capacity"):
            ReplayBuffer(16, state_dim=3, action_dim=2).load_state_dict(src.state_dict())

    def test_corrupt_cursor_raises(self):
        state = self._filled(5).state_dict()
        state["pos"] = 99
        with pytest.raises(ValueError, match="cursor"):
            ReplayBuffer(8, state_dim=3, action_dim=2).load_state_dict(state)


class TestOptimizerRoundTrip:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return [Parameter(rng.random((4, 3))), Parameter(rng.random(3))]

    def _steps(self, opt, params, n, seed=1):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            for p in params:
                p.grad[...] = rng.random(p.data.shape)
            opt.step()
            opt.zero_grad()

    @pytest.mark.parametrize(
        "make",
        [
            lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            lambda ps: Adam(ps, lr=0.01, weight_decay=1e-4),
        ],
        ids=["sgd-momentum", "adam"],
    )
    def test_resumed_optimizer_matches_uninterrupted(self, make):
        p1, p2 = self._params(), self._params()
        o1, o2 = make(p1), make(p2)
        self._steps(o1, p1, 5)
        self._steps(o2, p2, 5)
        snap = o1.state_dict()
        # fresh params at o1's values, fresh optimizer restored from snapshot
        p3 = [Parameter(p.data.copy()) for p in p1]
        o3 = make(p3)
        o3.load_state_dict(snap)
        self._steps(o1, p1, 5, seed=2)
        self._steps(o3, p3, 5, seed=2)
        for a, b in zip(p1, p3):
            np.testing.assert_array_equal(a.data, b.data)
        # sanity: the slot state mattered (cold optimizer diverges)
        self._steps(o2, p2, 5, seed=2)

    def test_slot_count_mismatch_raises(self):
        ps = self._params()
        opt = Adam(ps, lr=0.01)
        self._steps(opt, ps, 1)
        snap = opt.state_dict()
        other = Adam([Parameter(np.zeros((2, 2)))], lr=0.01)
        with pytest.raises(ValueError, match="slots"):
            other.load_state_dict(snap)

    def test_adam_restores_time_step(self):
        ps = self._params()
        opt = Adam(ps, lr=0.01)
        self._steps(opt, ps, 7)
        other = Adam(self._params(), lr=0.01)
        other.load_state_dict(opt.state_dict())
        assert other.t == 7


class TestNoiseRoundTrip:
    def test_gaussian_restores_decayed_sigma(self):
        rng = np.random.default_rng(0)
        n1 = GaussianNoise(2, rng, sigma=0.8, decay=0.9, min_sigma=0.05)
        for _ in range(10):
            n1.sample()
            n1.step_decay()
        n2 = GaussianNoise(2, np.random.default_rng(0), sigma=0.8, decay=0.9, min_sigma=0.05)
        n2.load_state_dict(n1.state_dict())
        assert n2.sigma == n1.sigma
        n2.reset()
        assert n2.sigma == n1.sigma0 == 0.8  # reset() restores the *initial* schedule


class TestAgentRoundTrip:
    def _drive(self, agent, seed, k):
        env = np.random.default_rng(seed)
        acts = []
        for _ in range(k):
            s = env.random(8)
            a = agent.act(s, explore=True)
            agent.observe(s, a, -float(env.random()), env.random(8))
            agent.update()
            acts.append(a)
        return np.stack(acts)

    def test_ddpg_restored_agent_continues_bitwise(self):
        a1 = DeepPowerAgent(
            RngRegistry(3).get("agent"), default_ddpg_config(warmup=4, batch_size=8)
        )
        self._drive(a1, 0, 30)
        snap = a1.state_dict()
        cont = self._drive(a1, 1, 15)
        a2 = DeepPowerAgent(
            RngRegistry(99).get("agent"), default_ddpg_config(warmup=4, batch_size=8)
        )
        a2.load_state_dict(snap)
        np.testing.assert_array_equal(self._drive(a2, 1, 15), cont)

    def test_td3_restored_agent_continues_bitwise(self):
        def fresh(seed):
            rng = RngRegistry(seed).get("agent")
            return Td3Agent(lambda: build_actor(rng), Td3Config(warmup=4, batch_size=8), rng)

        a1 = fresh(3)
        self._drive(a1, 0, 30)
        snap = a1.state_dict()
        cont = self._drive(a1, 1, 15)
        a2 = fresh(99)
        a2.load_state_dict(snap)
        np.testing.assert_array_equal(self._drive(a2, 1, 15), cont)

    def test_sac_restored_agent_continues_bitwise(self):
        # The load path of ``fleet --hier sac --resume``.
        def fresh(seed):
            return SacAgent(
                SacConfig(warmup=4, batch_size=8), RngRegistry(seed).get("agent")
            )

        a1 = fresh(3)
        self._drive(a1, 0, 30)
        snap = a1.state_dict()
        cont = self._drive(a1, 1, 15)
        a2 = fresh(99)
        a2.load_state_dict(snap)
        np.testing.assert_array_equal(self._drive(a2, 1, 15), cont)

    def test_algo_tag_mismatch_raises(self):
        rng = RngRegistry(1).get("a")
        ddpg = DeepPowerAgent(rng, default_ddpg_config())
        td3 = Td3Agent(lambda: build_actor(rng), Td3Config(), rng)
        with pytest.raises(ValueError, match="td3"):
            ddpg.load_state_dict(td3.state_dict())


# --------------------------------------------------------------------------
# runtime snapshots
# --------------------------------------------------------------------------


def _fresh_runtime(tiny_app, duration, cfg):
    trace = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
    ctx = build_context(tiny_app, trace, 2, seed=4)
    agent = DeepPowerAgent(
        RngRegistry(1).get("a"), default_ddpg_config(warmup=2, batch_size=4)
    )
    rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
    return rt, ctx


class TestRuntimeCheckpoint:
    def test_state_dict_roundtrip(self, tiny_app):
        rt1, ctx = _fresh_runtime(tiny_app, 3.0, DeepPowerConfig(long_time=0.5))
        rt1.start()
        ctx.source.start()
        ctx.engine.run_until(3.0)
        rt1.stop()
        snap = rt1.state_dict()
        assert snap["kind"] == "deeppower-runtime"
        assert snap["step_count"] == rt1.step_count > 0

        rt2, _ = _fresh_runtime(tiny_app, 3.0, DeepPowerConfig(long_time=0.5))
        rt2.load_state_dict(snap)
        assert_tree_equal(rt2.state_dict(), snap)

    def test_load_rejects_wrong_kind(self, tiny_app):
        rt, _ = _fresh_runtime(tiny_app, 1.0, DeepPowerConfig(long_time=0.5))
        with pytest.raises(ValueError, match="snapshot"):
            rt.load_state_dict({"kind": "something-else"})


# --------------------------------------------------------------------------
# training kill/resume (acceptance criteria)
# --------------------------------------------------------------------------

_HISTORY_KEYS = ("rewards", "actions", "avg_frequency", "core_frequencies")


def _make_ddpg():
    return DeepPowerAgent(
        RngRegistry(11).get("agent"),
        default_ddpg_config(warmup=2, batch_size=4),
    )


def _make_td3():
    rng = RngRegistry(11).get("agent")
    return Td3Agent(lambda: build_actor(rng), Td3Config(warmup=2, batch_size=4), rng)


def _train(tiny_app, agent, episodes, **kw):
    trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 3.0)
    return train_deeppower(
        tiny_app,
        trace,
        episodes=episodes,
        num_cores=2,
        seed=5,
        agent=agent,
        config=DeepPowerConfig(long_time=0.5, record_freq_trace=True),
        keep_histories=True,
        **kw,
    )


def _train_bus(tiny_app, agent, episodes, **kw):
    """Training over a lossy in-process bus: sensor drops plus a mid-episode
    sensor partition, so every episode has genuine degraded windows."""
    plan = BusFaultPlan(
        sensor=LinkFaults(drop_prob=0.3),
        events=(BusEvent(time=1.0, duration=1.0, direction="sensor"),),
        seed=3,
    )
    trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 3.0)
    return train_deeppower(
        tiny_app,
        trace,
        episodes=episodes,
        num_cores=2,
        seed=5,
        agent=agent,
        config=DeepPowerConfig(
            long_time=0.5, control=ControlPlaneConfig(fault_plan=plan)
        ),
        keep_histories=True,
        **kw,
    )


class TestTrainingResume:
    @pytest.mark.parametrize("make_agent", [_make_ddpg, _make_td3], ids=["ddpg", "td3"])
    def test_resume_is_bitwise_identical_to_uninterrupted(
        self, tiny_app, tmp_path, make_agent
    ):
        baseline = _train(tiny_app, make_agent(), 3)

        ckdir = str(tmp_path / "ck")
        # "killed" after episode 2: the snapshot on disk says next_episode=2
        _train(tiny_app, make_agent(), 2, checkpoint_dir=ckdir)
        resumed = _train(
            tiny_app, make_agent(), 3, checkpoint_dir=ckdir, resume=True
        )

        assert resumed.resumed_from == 2
        assert len(resumed.histories) == len(baseline.histories) == 3
        for hb, hr in zip(baseline.histories, resumed.histories):
            for key in _HISTORY_KEYS:
                np.testing.assert_array_equal(hb[key], hr[key], err_msg=key)
        assert resumed.histories[0]["core_frequencies"].size > 0
        assert [s.mean_reward for s in resumed.episodes] == [
            s.mean_reward for s in baseline.episodes
        ]
        assert [s.avg_power_watts for s in resumed.episodes] == [
            s.avg_power_watts for s in baseline.episodes
        ]

    def test_resume_while_degraded_is_bitwise_identical(self, tiny_app, tmp_path):
        """Kill/resume with the controller riding a lossy bus: the resumed
        run must reproduce the outage bookkeeping (degraded flags) as well
        as the learner trajectory, bit for bit."""
        baseline = _train_bus(tiny_app, _make_ddpg(), 3)
        # The scenario must actually degrade the controller, or this test
        # is just the fault-free case again.
        assert any(h["degraded"].any() for h in baseline.histories)

        ckdir = str(tmp_path / "ck")
        _train_bus(tiny_app, _make_ddpg(), 2, checkpoint_dir=ckdir)
        resumed = _train_bus(
            tiny_app, _make_ddpg(), 3, checkpoint_dir=ckdir, resume=True
        )

        assert resumed.resumed_from == 2
        for hb, hr in zip(baseline.histories, resumed.histories):
            for key in _HISTORY_KEYS + ("degraded",):
                np.testing.assert_array_equal(hb[key], hr[key], err_msg=key)

    def test_resume_after_corrupt_newest_uses_previous_snapshot(
        self, tiny_app, tmp_path
    ):
        ckdir = tmp_path / "ck"
        _train(tiny_app, _make_ddpg(), 2, checkpoint_dir=str(ckdir))
        mgr = CheckpointManager(str(ckdir), prefix="train")
        assert mgr.list_steps() == [1, 2]
        with open(mgr.path_for(2), "r+b") as f:
            f.truncate(64)
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            resumed = _train(
                tiny_app, _make_ddpg(), 3, checkpoint_dir=str(ckdir), resume=True
            )
        # fell back to the episode-1 snapshot, then retrained 2 and 3
        assert resumed.resumed_from == 1
        assert len(resumed.episodes) == 3
        baseline = _train(tiny_app, _make_ddpg(), 3)
        for hb, hr in zip(baseline.histories[1:], resumed.histories[1:]):
            for key in _HISTORY_KEYS:
                np.testing.assert_array_equal(hb[key], hr[key], err_msg=key)

    def test_resume_with_empty_directory_starts_fresh(self, tiny_app, tmp_path):
        result = _train(
            tiny_app, _make_ddpg(), 2, checkpoint_dir=str(tmp_path / "new"), resume=True
        )
        assert result.resumed_from == 0
        assert len(result.episodes) == 2

    def test_checkpoint_every_skips_intermediate_saves(self, tiny_app, tmp_path):
        _train(
            tiny_app, _make_ddpg(), 3, checkpoint_dir=str(tmp_path), checkpoint_every=2
        )
        # episode 2 (cadence) and episode 3 (final) — never episode 1
        assert CheckpointManager(str(tmp_path), prefix="train").list_steps() == [2, 3]

    def test_invalid_checkpoint_every_raises(self, tiny_app):
        with pytest.raises(ValueError, match="checkpoint_every"):
            _train(tiny_app, _make_ddpg(), 1, checkpoint_every=0)

