"""Checkpoint save/load micro-benchmarks.

Times one full learner snapshot (networks, targets, optimizer slots,
replay pool, RNG state) through the atomic ``CheckpointManager`` path —
the cost a training run pays per autosave.  The budget argument mirrors
§5.5's overhead case: with a 1 s DRL interval and per-episode autosaves,
a snapshot costing tens of milliseconds is invisible.
"""

import time

import numpy as np

from repro.checkpoint import CheckpointManager
from repro.core.agent import DeepPowerAgent, default_ddpg_config
from repro.sim import RngRegistry


def _warmed_agent(replay_items=2000):
    """An agent with a realistically filled replay pool."""
    agent = DeepPowerAgent(
        RngRegistry(7).get("agent"), default_ddpg_config(warmup=8, batch_size=16)
    )
    env = np.random.default_rng(0)
    for _ in range(replay_items):
        s = env.random(8)
        a = agent.act(s, explore=True)
        agent.observe(s, a, -float(env.random()), env.random(8))
    agent.update()
    return agent


def _timed(benchmark, fn):
    """``(result, mean seconds per call)`` of ``fn`` under ``benchmark``.

    With pytest-benchmark disabled (``--benchmark-disable``) it runs ``fn``
    once untimed and keeps no stats, so the call is timed here instead.
    """
    if benchmark.disabled:
        start = time.perf_counter()
        result = benchmark(fn)
        return result, time.perf_counter() - start
    result = benchmark(fn)
    return result, benchmark.stats.stats.mean


def test_checkpoint_save_bench(benchmark, emit, tmp_path):
    agent = _warmed_agent()
    mgr = CheckpointManager(str(tmp_path), keep_last=2)
    state = {"agent": agent.state_dict()}

    path, mean_s = _timed(benchmark, lambda: mgr.save(state, step=1))

    import os

    size_kb = os.path.getsize(path) / 1024
    emit(
        "checkpoint save",
        f"snapshot size: {size_kb:.1f} KiB "
        f"(2000-transition replay pool + 4 networks + optimizer slots)",
    )
    # an autosave must stay negligible next to a 1 s DRL interval
    assert mean_s < 0.25


def test_checkpoint_load_bench(benchmark, emit, tmp_path):
    agent = _warmed_agent()
    mgr = CheckpointManager(str(tmp_path), keep_last=2)
    mgr.save({"agent": agent.state_dict()}, step=1)

    record, mean_s = _timed(benchmark, mgr.load_latest)

    assert record is not None and record.step == 1
    # the restored snapshot is accepted by a fresh agent
    other = DeepPowerAgent(
        RngRegistry(9).get("agent"), default_ddpg_config(warmup=8, batch_size=16)
    )
    other.load_state_dict(record.state["agent"])
    s = np.random.default_rng(1).random(8)
    np.testing.assert_array_equal(
        other.act(s, explore=False), agent.act(s, explore=False)
    )
    emit(
        "checkpoint load",
        f"load+verify mean: {mean_s * 1e3:.2f} ms",
    )
    assert mean_s < 0.25
