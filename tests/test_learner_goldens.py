"""The DRL learners against golden digests.

The oracle is ``learner_goldens.json``: for every cell below, the SHA-256
of a canonical encoding of the learner after ``UPDATES`` updates on a
seeded replay pool.  The encoding covers every online and target network
parameter, the optimizer moments and step counts, the RNG state, the
replay pool, ``skipped_updates`` and every loss dict ``update`` returned,
bit for bit (floats are hashed by their IEEE-754 bytes).  A change to the
learner (layers, optimizers, gradient clipping, the Polyak target update,
replay sampling) that moves a single bit of any of these changes a digest.

Cells cover the tuned DeepPower DDPG agent, the fleet agent on DDPG, TD3
and SAC, a Double-DQN and the MLP service predictor.  The fleet cells'
replay pools hold a few NaN rewards, so some of their minibatches take the
skipped-update path.  Rewards are scaled so that gradient clipping both
fires and stays idle within the run (see
``test_cells_cover_both_clip_regimes``).

Regenerate with ``PYTHONPATH=src python -c "from tests.test_learner_goldens
import _regen; _regen()"`` only for an intended behaviour change.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import repro.rl.ddpg as ddpg_mod
import repro.rl.dqn as dqn_mod
import repro.rl.sac as sac_mod
import repro.rl.td3 as td3_mod
from repro.baselines.predictors import MlpServicePredictor
from repro.experiments.fig7_main import tuned_agent_setup
from repro.hier.agent import build_fleet_agent
from repro.hier.config import HierConfig
from repro.rl.dqn import DqnAgent, DqnConfig
from repro.sim.rng import generator_state
from repro.workload.apps import get_app

GOLDEN_PATH = Path(__file__).with_name("learner_goldens.json")
SEED = 1
UPDATES = 160
REPLAY = 2000
FLEET_NODES = 3


def _canon(obj, out):
    """Append a type-tagged, order-preserving encoding of ``obj`` to ``out``."""
    if isinstance(obj, dict):
        out.append(b"{%d" % len(obj))
        for key in sorted(obj, key=str):
            _canon(str(key), out)
            _canon(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append(b"[%d" % len(obj))
        for item in obj:
            _canon(item, out)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out.append(f"a{arr.dtype.str}{arr.shape}".encode())
        out.append(arr.tobytes())
    elif obj is None:
        out.append(b"n")
    elif isinstance(obj, (bool, np.bool_)):
        out.append(b"b%d" % bool(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        out.append(b"s" + obj.encode() + b"\0")
    else:
        raise TypeError(f"cannot encode {type(obj).__name__}")


def _fill(agent, state_dim, action_dim, reward_scale, poison=False, discrete=0):
    """Push ``REPLAY`` seeded transitions; ``poison`` makes every 400th
    reward NaN."""
    rng = np.random.default_rng(SEED + 100)
    for i in range(REPLAY):
        s, s2 = rng.random(state_dim), rng.random(state_dim)
        if discrete:
            a = int(rng.integers(discrete))
        else:
            a = rng.random(action_dim)
        r = float(reward_scale * rng.standard_normal())
        if poison and i % 400 == 200:
            r = float("nan")
        agent.observe(s, a, r, s2, bool(rng.random() < 0.01))


def _train(agent):
    return [agent.update() for _ in range(UPDATES)]


def _ddpg_deeppower():
    agent, _ = tuned_agent_setup(SEED, get_app("xapian"))
    _fill(agent, 8, 2, reward_scale=5.0)
    losses = _train(agent)
    return {"agent": agent.state_dict(), "losses": losses}


def _fleet(algo):
    def run():
        agent = build_fleet_agent(FLEET_NODES, HierConfig(algo=algo), SEED)
        _fill(agent, agent.state_dim, agent.action_dim, reward_scale=8.0, poison=True)
        losses = _train(agent)
        return {"agent": agent.state_dict(), "losses": losses}

    return run


def _dqn():
    cfg = DqnConfig(state_dim=8, num_actions=9, double=True, target_sync_interval=40)
    agent = DqnAgent(cfg, np.random.default_rng(SEED))
    _fill(agent, 8, 1, reward_scale=20.0, discrete=cfg.num_actions)
    losses = _train(agent)
    return {
        "q": agent.q.state_dict(),
        "q_target": agent.q_target.state_dict(),
        "opt": agent.opt.state_dict(),
        "rng": generator_state(agent.rng),
        "replay": agent.replay.state_dict(),
        "epsilon": agent.epsilon,
        "steps": agent.steps,
        "updates": agent.updates,
        "losses": losses,
    }


def _predictor():
    rng = np.random.default_rng(SEED)
    x = rng.random((300, 4))
    y = 1.0 + x @ np.array([0.5, -0.2, 0.8, 0.1]) + 0.3 * np.sin(6.0 * x[:, 0])
    model = MlpServicePredictor(np.random.default_rng(SEED), epochs=8)
    model.fit(x, y)
    return {
        "net": model.net.state_dict(),
        "rng": generator_state(model.rng),
        "predict": model.predict(x[:50]),
    }


CELLS = {
    "ddpg-deeppower": _ddpg_deeppower,
    "fleet-ddpg": _fleet("ddpg"),
    "fleet-td3": _fleet("td3"),
    "fleet-sac": _fleet("sac"),
    "ddqn": _dqn,
    "mlp-predictor": _predictor,
}


def _digest(cell):
    out = []
    _canon(CELLS[cell](), out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def _regen(path=GOLDEN_PATH):
    """Re-record every golden digest (only for intended behaviour changes)."""
    table = {cell: _digest(cell) for cell in CELLS}
    Path(path).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def test_golden_table_covers_every_cell():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_learner_golden(cell):
    assert _digest(cell) == json.loads(GOLDEN_PATH.read_text())[cell], cell


def test_fleet_cells_take_the_skip_path():
    for algo in ("ddpg", "td3", "sac"):
        agent = build_fleet_agent(FLEET_NODES, HierConfig(algo=algo), SEED)
        _fill(agent, agent.state_dim, agent.action_dim, reward_scale=8.0, poison=True)
        _train(agent)
        assert 0 < agent._agent.skipped_updates < UPDATES // 4, algo


def test_cells_cover_both_clip_regimes(monkeypatch):
    """Across the cells, gradient clipping both scales and leaves alone."""
    counts = {"scaled": 0, "kept": 0}
    for mod in (ddpg_mod, td3_mod, sac_mod, dqn_mod):
        orig = mod.clip_grad_norm

        def counting(params, max_norm, _orig=orig):
            norm = _orig(params, max_norm)
            counts["scaled" if norm > max_norm else "kept"] += 1
            return norm

        monkeypatch.setattr(mod, "clip_grad_norm", counting)
    _ddpg_deeppower()
    deeppower = dict(counts)
    for cell in ("fleet-ddpg", "fleet-td3", "fleet-sac", "ddqn"):
        CELLS[cell]()
    # The tuned agent alone sees both regimes, as in a node-deeppower run.
    assert deeppower["scaled"] > 0 and deeppower["kept"] > 0, deeppower
    assert counts["scaled"] > deeppower["scaled"], counts
    assert counts["kept"] > deeppower["kept"], counts
