"""Tests for the .npz module (de)serialization helpers.

Regression coverage for the extension bug: ``np.savez("foo")`` writes
``foo.npz``, so saving to ``"foo"`` and loading from ``"foo"`` used to
raise ``FileNotFoundError``.  Both directions now
normalise the extension, and writes are atomic (temp file + rename).
"""

import os

import numpy as np
import pytest

from repro.core.agent import DeepPowerAgent, build_actor, default_ddpg_config
from repro.nn.serialization import load_modules, save_modules
from repro.sim import RngRegistry


def _actor(seed=0):
    return build_actor(np.random.default_rng(seed))


class TestExtensionNormalisation:
    def test_save_load_without_extension(self, tmp_path):
        """The original bug: a path without .npz must round-trip."""
        path = str(tmp_path / "weights")  # no extension
        m1 = _actor(0)
        save_modules({"actor": m1}, path)
        assert os.path.exists(path + ".npz")  # np.savez's real output name
        m2 = _actor(1)
        load_modules({"actor": m2}, path)
        x = np.random.default_rng(2).random((4, 8))
        np.testing.assert_array_equal(m1.forward(x), m2.forward(x))

    def test_save_load_with_extension(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        m1 = _actor(0)
        save_modules({"actor": m1}, path)
        assert os.path.exists(path)
        m2 = _actor(1)
        load_modules({"actor": m2}, path)
        x = np.random.default_rng(2).random((4, 8))
        np.testing.assert_array_equal(m1.forward(x), m2.forward(x))

    def test_save_modules_without_extension(self, tmp_path):
        path = str(tmp_path / "pair")
        mods1 = {"actor": _actor(0), "other": _actor(3)}
        save_modules(mods1, path)
        mods2 = {"actor": _actor(1), "other": _actor(4)}
        load_modules(mods2, path)
        x = np.random.default_rng(2).random((4, 8))
        for k in mods1:
            np.testing.assert_array_equal(mods1[k].forward(x), mods2[k].forward(x))

    def test_agent_cache_roundtrip_without_extension(self, tmp_path):
        """DeepPowerAgent.save/.load (the fig7 cache path) inherits the fix."""
        agent = DeepPowerAgent(RngRegistry(1).get("a"), default_ddpg_config())
        path = str(tmp_path / "agent-cache")
        agent.save(path)
        other = DeepPowerAgent(RngRegistry(2).get("a"), default_ddpg_config())
        other.load(path)
        s = np.random.default_rng(0).random(8)
        np.testing.assert_array_equal(
            agent.act(s, explore=False), other.act(s, explore=False)
        )

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_modules({"a": _actor()}, str(tmp_path / "absent"))

    def test_load_modules_missing_prefix_raises(self, tmp_path):
        path = str(tmp_path / "x")
        save_modules({"actor": _actor(0)}, path)
        with pytest.raises(KeyError, match="critic"):
            load_modules({"critic": _actor(1)}, path)


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_modules({"actor": _actor()}, str(tmp_path / "m"))
        assert sorted(os.listdir(tmp_path)) == ["m.npz"]

    def test_overwrite_is_replace_not_append(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_modules({"actor": _actor(0)}, path)
        first = os.path.getsize(path)
        save_modules({"actor": _actor(1)}, path)
        assert os.path.getsize(path) == first  # same architecture, same size
        load_modules({"actor": _actor(2)}, path)  # still a valid archive
