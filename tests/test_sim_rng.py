"""Tests for seeded RNG streams."""

import json

import numpy as np
import pytest

from repro.sim import RngRegistry, generator_state, restore_generator


class TestRngRegistry:
    def test_same_name_returns_cached_generator(self):
        rngs = RngRegistry(1)
        assert rngs.get("a") is rngs.get("a")

    def test_different_names_give_independent_streams(self):
        rngs = RngRegistry(1)
        a = rngs.get("alpha").random(100)
        b = rngs.get("beta").random(100)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_streams(self):
        a = RngRegistry(42).get("x").random(50)
        b = RngRegistry(42).get("x").random(50)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).get("x").random(50)
        b = RngRegistry(2).get("x").random(50)
        assert not np.allclose(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngRegistry(7)
        _ = r1.get("a").random(10)
        vals1 = r1.get("a").random(10)

        r2 = RngRegistry(7)
        _ = r2.get("a").random(10)
        _ = r2.get("new-stream").random(10)  # extra consumer
        vals2 = r2.get("a").random(10)
        assert np.array_equal(vals1, vals2)

    def test_get_fresh_is_uncached_and_deterministic(self):
        rngs = RngRegistry(3)
        a = rngs.get_fresh("ep").random(5)
        b = rngs.get_fresh("ep").random(5)
        assert np.array_equal(a, b)  # fresh generator restarts the stream

    def test_spawn_offsets_differ(self):
        rngs = RngRegistry(3)
        a = rngs.spawn("ep", 0).random(5)
        b = rngs.spawn("ep", 1).random(5)
        assert not np.allclose(a, b)

    def test_reset_clears_cache(self):
        rngs = RngRegistry(5)
        first = rngs.get("s").random(5)
        rngs.reset()
        again = rngs.get("s").random(5)
        assert np.array_equal(first, again)


class TestGeneratorState:
    def test_roundtrip_continues_stream_bitwise(self):
        gen = np.random.default_rng(3)
        gen.random(100)  # advance mid-stream
        snap = generator_state(gen)
        expected = gen.random(50)
        other = np.random.default_rng(999)
        restore_generator(other, snap)
        assert np.array_equal(other.random(50), expected)

    def test_snapshot_is_json_safe(self):
        """PCG64's 128-bit state words must survive an actual JSON trip."""
        gen = np.random.default_rng(3)
        gen.random(10)
        snap = json.loads(json.dumps(generator_state(gen)))
        expected = gen.random(20)
        other = np.random.default_rng(0)
        restore_generator(other, snap)
        assert np.array_equal(other.random(20), expected)

    def test_bit_generator_mismatch_raises(self):
        pcg_state = generator_state(np.random.default_rng(1))
        mt = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(ValueError, match="mismatch"):
            restore_generator(mt, pcg_state)


class TestRngStatePersistence:
    def test_cached_streams_continue_after_restore(self):
        r1 = RngRegistry(9)
        r1.get("arrivals").random(33)
        r1.get("service").random(7)
        snap = r1.state_dict()
        expected = {
            "arrivals": r1.get("arrivals").random(20),
            "service": r1.get("service").random(20),
        }
        r2 = RngRegistry(0)  # wrong seed, pre-consumed streams: all overwritten
        r2.get("arrivals").random(5)
        r2.load_state_dict(snap)
        assert r2.seed == 9
        for name, vals in expected.items():
            assert np.array_equal(r2.get(name).random(20), vals)

    def test_restored_spawn_and_get_fresh_continue_exact_sequences(self):
        """spawn/get_fresh are pure in (seed, name): a restored registry
        reproduces their streams exactly without them being snapshotted."""
        r1 = RngRegistry(9)
        r1.get("agent").random(10)
        snap = r1.state_dict()
        assert "agent" in snap["streams"] and "ep#3" not in snap["streams"]
        expected_spawn = r1.spawn("ep", 3).random(6)
        expected_fresh = r1.get_fresh("init").random(6)

        r2 = RngRegistry(0)
        r2.load_state_dict(snap)
        assert np.array_equal(r2.spawn("ep", 3).random(6), expected_spawn)
        assert np.array_equal(r2.get_fresh("init").random(6), expected_fresh)

    def test_snapshot_isolated_from_later_draws(self):
        r1 = RngRegistry(4)
        r1.get("x").random(5)
        snap = r1.state_dict()
        expected = r1.get("x").random(10)  # draws after the snapshot
        r2 = RngRegistry(4)
        r2.load_state_dict(snap)
        assert np.array_equal(r2.get("x").random(10), expected)

    def test_state_dict_is_json_safe(self):
        r1 = RngRegistry(6)
        r1.get("a").random(3)
        snap = json.loads(json.dumps(r1.state_dict()))
        expected = r1.get("a").random(8)
        r2 = RngRegistry(6)
        r2.load_state_dict(snap)
        assert np.array_equal(r2.get("a").random(8), expected)


class TestStreamSeed:
    def test_stable_across_calls(self):
        # The stream key is a CRC32 of the name, not python's salted hash:
        # the first draw is pinned across processes and interpreter runs.
        draw = RngRegistry(10).get_fresh("arrivals").integers(2**62)
        assert draw == 3187685637667581988

    def test_distinct_names_distinct_keys(self):
        rngs = RngRegistry(10)
        assert rngs.get_fresh("a").integers(2**62) != rngs.get_fresh("b").integers(2**62)
