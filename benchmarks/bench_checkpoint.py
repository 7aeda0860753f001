"""Checkpoint save/load micro-benchmarks.

Times one full learner snapshot (networks, targets, optimizer slots,
replay pool, RNG state) through the atomic ``CheckpointManager`` path —
the cost a training run pays per autosave.  The budget argument mirrors
§5.5's overhead case: with a 1 s DRL interval and per-episode autosaves,
a snapshot costing tens of milliseconds is invisible.

Run with ``python -m pytest benchmarks/bench_checkpoint.py -s`` to see the
measured means.
"""

import os
import time

import numpy as np

from repro.checkpoint import CheckpointManager
from repro.core.agent import DeepPowerAgent, default_ddpg_config
from repro.sim import RngRegistry

#: Calls timed per operation; the reported cost is their mean.
CALLS = 20


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


def _timed(fn):
    """``(last result, mean seconds per call)`` of ``CALLS`` calls of ``fn``."""
    start = time.perf_counter()
    for _ in range(CALLS):
        result = fn()
    return result, (time.perf_counter() - start) / CALLS


def test_checkpoint_save_bench(tmp_path):
    agent = _warmed_agent()
    mgr = CheckpointManager(str(tmp_path), keep_last=2)
    state = {"agent": agent.state_dict()}

    path, mean_s = _timed(lambda: mgr.save(state, step=1))

    size_kb = os.path.getsize(path) / 1024
    print(
        f"\ncheckpoint save mean: {mean_s * 1e3:.2f} ms over {CALLS} calls; "
        f"snapshot size: {size_kb:.1f} KiB "
        f"(2000-transition replay pool + 4 networks + optimizer slots)"
    )
    # an autosave must stay negligible next to a 1 s DRL interval
    assert mean_s < 0.25


def test_checkpoint_load_bench(tmp_path):
    agent = _warmed_agent()
    mgr = CheckpointManager(str(tmp_path), keep_last=2)
    mgr.save({"agent": agent.state_dict()}, step=1)

    record, mean_s = _timed(mgr.load_latest)

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
    print(f"\ncheckpoint load mean: {mean_s * 1e3:.2f} ms over {CALLS} calls")
    assert mean_s < 0.25
