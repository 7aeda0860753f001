"""Tests for the content-addressed run-result cache (repro.parallel.cache)."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    RunResultCache,
    content_key,
    default_cache_root,
    file_digest,
    plan_digest,
    resolve_cache,
)


@dataclass(frozen=True)
class _Payload:
    name: str
    value: float


class TestContentKey:
    def test_stable_across_calls(self):
        p = {"a": 1, "b": [1.5, "x"], "c": np.arange(4.0)}
        assert content_key(p) == content_key(p)

    def test_dict_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_float_exactness(self):
        assert content_key(0.1) != content_key(0.1 + 1e-12)

    def test_ndarray_content_sensitive(self):
        a = np.arange(8.0)
        b = a.copy()
        assert content_key(a) == content_key(b)
        b[3] += 1e-9
        assert content_key(a) != content_key(b)

    def test_ndarray_shape_matters(self):
        a = np.arange(6.0)
        assert content_key(a) != content_key(a.reshape(2, 3))

    def test_dataclass_payload(self):
        assert content_key(_Payload("x", 1.0)) == content_key(_Payload("x", 1.0))
        assert content_key(_Payload("x", 1.0)) != content_key(_Payload("x", 2.0))

    def test_distinguishes_types_and_containers(self):
        assert content_key(1) != content_key("1")
        assert content_key([1, 2]) != content_key((1, (2,)))

    def test_rejects_unhashable_objects(self):
        with pytest.raises(TypeError, match="stable cache key"):
            content_key(object())


class TestFileDigest:
    def test_missing_file_is_none(self, tmp_path):
        assert file_digest(str(tmp_path / "nope.bin")) is None

    def test_digest_tracks_content(self, tmp_path):
        p = tmp_path / "agent.npz"
        p.write_bytes(b"weights-v1")
        d1 = file_digest(str(p))
        p.write_bytes(b"weights-v2")
        assert file_digest(str(p)) != d1


class TestPlanDigest:
    def test_none_and_empty_plans_share_the_null_digest(self):
        """Absent plan and empty plan are the same simulation, so they must
        hit the same cache entries as historical (pre-chaos) runs."""
        from repro.faults import FleetFaultPlan

        assert plan_digest(None) is None
        assert plan_digest(FleetFaultPlan()) is None

    def test_active_plan_digest_tracks_content(self):
        from repro.faults import FleetEvent, FleetFaultPlan

        crash = FleetFaultPlan(
            events=(FleetEvent(1.0, "node.crash", node=1, duration=2.0),)
        )
        same = FleetFaultPlan(
            events=(FleetEvent(1.0, "node.crash", node=1, duration=2.0),)
        )
        other = FleetFaultPlan(
            events=(FleetEvent(1.0, "node.crash", node=1, duration=3.0),)
        )
        assert plan_digest(crash) is not None
        assert plan_digest(crash) == plan_digest(same)
        assert plan_digest(crash) != plan_digest(other)

    def test_fleet_spec_cache_key_regression(self):
        """The bug this guards: a chaos cell and a clean cell of the same
        spec used to share a cache key, so whichever ran first poisoned the
        other's results."""
        from repro.cluster.sim import ClusterConfig, FleetSpec
        from repro.faults import FleetEvent, FleetFaultPlan
        from repro.hier import HierConfig
        from repro.workload.trace import constant_trace

        trace = constant_trace(10.0, 4.0)
        plan = FleetFaultPlan(
            events=(FleetEvent(1.0, "node.crash", node=1, duration=2.0),)
        )

        def key(**over):
            config = ClusterConfig(
                app="xapian", policy="retail", num_nodes=2, cores_per_node=2,
                seed=7, **over,
            )
            return content_key(FleetSpec(config, trace).cache_payload())

        assert key() != key(fault_plan=plan)
        assert key() == key(fault_plan=FleetFaultPlan())  # empty plan = clean
        assert key(fault_plan=plan) != key(fault_plan=plan, health_aware=False)
        # Keys recorded when FleetSpec still mirrored ClusterConfig's fields
        # one by one, re-recorded once when the label left the key: results
        # cached under them must still hit.
        assert key() == (
            "596f61b694f55774996a53da79439c4ecc5ce5fa7b2401376a8ce5c7eb1f5602"
        )
        assert key(fault_plan=plan, health_aware=False) == (
            "2a346961e320a817f20eb44927b306ed256307b35888aae5b2ecbe20a11a92f1"
        )
        assert key(
            routing="power-aware", power_cap_watts=40.0,
            hier=HierConfig(algo="ddpg"),
        ) == "85702d498bf40f6d838076cd2b62b041322a14d5ebd941f80a52ac49e202695b"


class TestRunResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        key = cache.key({"app": "xapian", "seed": 3})
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, {"metric": 1.25})
        assert cache.get(key) == {"metric": 1.25}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.contains(key)

    def test_corrupt_entry_evicted_as_miss(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        key = cache.key("payload")
        cache.put(key, [1, 2, 3])
        path = cache.path_for(key)
        with open(path, "wb") as f:
            f.write(b"\x00truncated garbage")
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_schema_version_namespaces_entries(self, tmp_path):
        c1 = RunResultCache(root=str(tmp_path), schema_version=1)
        c2 = RunResultCache(root=str(tmp_path), schema_version=2)
        assert c1.dir != c2.dir
        assert c1.key("same payload") != c2.key("same payload")
        c1.put(c1.key("same payload"), "v1 value")
        assert c2.get(c2.key("same payload")) is None

    def test_entries_sharded_under_versioned_dir(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        key = cache.key("x")
        path = cache.put(key, 1)
        expected = os.path.join(
            str(tmp_path), "runs", f"v{CACHE_SCHEMA_VERSION}", key[:2], f"{key}.pkl"
        )
        assert path == expected
        assert os.path.exists(expected)


class TestResolveCache:
    def test_true_builds_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        cache = resolve_cache(True)
        assert isinstance(cache, RunResultCache)
        assert cache.root == str(tmp_path)

    def test_false_and_none_disable(self):
        assert resolve_cache(False) is None
        assert resolve_cache(None) is None

    def test_instance_passthrough(self, tmp_path):
        mine = RunResultCache(root=str(tmp_path))
        assert resolve_cache(mine) is mine

    def test_default_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "store"))
        assert default_cache_root() == str(tmp_path / "store")
