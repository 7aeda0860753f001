"""Determinism + caching tests for the grid executor (repro.parallel.grid).

The load-bearing guarantee of ISSUE 3: ``run_grid(specs, jobs=N)`` is
*bitwise identical* to the serial run — same metrics floats, same extras
arrays — because every cell rebuilds its world (engine, RNG registry,
server) from the spec alone.
"""

import multiprocessing

import numpy as np
import pytest

from repro.parallel import RunSpec, RunResultCache, run_grid
from repro.parallel.grid import EXTRAS_COLLECTORS, execute_run_spec
from repro.workload.trace import constant_trace

EXTRAS = ("worker_completed", "final_frequencies", "event_count")

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _specs(duration=1.5):
    specs = []
    for app in ("xapian", "moses"):
        for policy in ("baseline", "gemini"):
            specs.append(
                RunSpec(
                    app=app,
                    policy=policy,
                    trace=constant_trace(120.0, duration),
                    num_cores=4,
                    seed=11,
                    extras=EXTRAS,
                    label="grid-test",
                )
            )
    return specs


def _assert_outcomes_bitwise_equal(a_list, b_list):
    assert len(a_list) == len(b_list)
    for a, b in zip(a_list, b_list):
        assert a.ok and b.ok
        # RunMetrics is a dataclass of floats/ints: == is exact, not approx.
        assert a.metrics == b.metrics
        assert a.extras["event_count"] == b.extras["event_count"]
        assert np.array_equal(a.extras["worker_completed"], b.extras["worker_completed"])
        assert np.array_equal(
            a.extras["final_frequencies"], b.extras["final_frequencies"]
        )


class TestRunSpec:
    def test_cache_payload_tracks_inputs(self):
        from repro.parallel import content_key

        base = _specs()[0]
        same = _specs()[0]
        # Payloads hold trace ndarrays, so compare their content addresses.
        assert content_key(base.cache_payload()) == content_key(same.cache_payload())
        for changed in (
            RunSpec(**{**_kw(base), "seed": 12}),
            RunSpec(**{**_kw(base), "trace": constant_trace(121.0, 1.5)}),
            RunSpec(**{**_kw(base), "label": "other"}),
            RunSpec(**{**_kw(base), "policy_kwargs": (("use_turbo", False),)}),
        ):
            assert content_key(changed.cache_payload()) != content_key(
                base.cache_payload()
            )

    def test_unknown_policy_raises(self):
        spec = RunSpec(**{**_kw(_specs()[0]), "policy": "nope"})
        with pytest.raises(KeyError, match="unknown grid policy"):
            execute_run_spec(spec)

    def test_unknown_extras_collector_raises(self):
        spec = RunSpec(**{**_kw(_specs()[0]), "extras": ("bogus",)})
        with pytest.raises(KeyError, match="unknown extras collector"):
            execute_run_spec(spec)

    def test_extras_registry_names(self):
        assert set(EXTRAS) <= set(EXTRAS_COLLECTORS)

    def test_deeppower_runs_the_specs_worker_count(self, tmp_path):
        """Masstree's half-socket pool holds for every policy, DeepPower too."""
        from repro.experiments.fig7_main import tuned_agent_setup
        from repro.workload import get_app

        agent_path = str(tmp_path / "agent.npz")
        tuned_agent_setup(7, app=get_app("masstree"))[0].save(agent_path)
        for policy in ("baseline", "deeppower"):
            spec = RunSpec(
                app="masstree", policy=policy, trace=constant_trace(200.0, 2.0),
                num_cores=4, seed=3, num_workers=2,
                agent_path=agent_path if policy == "deeppower" else None,
                extras=("worker_completed",),
            )
            _, extras = execute_run_spec(spec)
            assert len(extras["worker_completed"]) == 2, policy


def _kw(spec: RunSpec) -> dict:
    return {
        "app": spec.app,
        "policy": spec.policy,
        "trace": spec.trace,
        "num_cores": spec.num_cores,
        "seed": spec.seed,
        "num_workers": spec.num_workers,
        "policy_kwargs": spec.policy_kwargs,
        "agent_path": spec.agent_path,
        "agent_seed": spec.agent_seed,
        "extras": spec.extras,
        "label": spec.label,
    }


class TestGridDeterminism:
    @pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
    def test_jobs4_bitwise_identical_to_serial(self):
        specs = _specs()
        serial = run_grid(specs, jobs=1)
        fanned = run_grid(specs, jobs=4)
        _assert_outcomes_bitwise_equal(serial, fanned)

    def test_serial_rerun_bitwise_identical(self):
        specs = _specs(duration=1.0)[:2]
        a = run_grid(specs, jobs=1)
        b = run_grid(specs, jobs=1)
        _assert_outcomes_bitwise_equal(a, b)


class TestPreForkImports:
    """The parent imports what the cells execute before it forks."""

    @pytest.mark.parametrize("policy", ["baseline", "retail", "gemini", "deeppower", "controller"])
    def test_named_modules_exist(self, policy):
        import importlib

        from repro.parallel.cells import policy_modules

        assert policy_modules(policy)
        for name in policy_modules(policy):
            importlib.import_module(name)

    def test_fleet_spec_names_its_policy_and_coordinator(self):
        from repro.cluster import ClusterConfig, FleetSpec
        from repro.hier import HierConfig

        config = ClusterConfig(app="xapian", num_nodes=2, cores_per_node=2, policy="retail")
        spec = FleetSpec(config, constant_trace(10.0, 1.0))
        assert spec.imports() == ("repro.baselines.retail",)
        hier = FleetSpec(
            ClusterConfig(app="xapian", num_nodes=2, cores_per_node=2, policy="controller",
                          power_cap_watts=200.0, hier=HierConfig()),
            constant_trace(10.0, 1.0),
        )
        assert hier.imports() == ("repro.core.thread_controller", "repro.hier.coordinator")

    @pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
    def test_forked_grid_imports_the_policy_in_the_parent(self):
        # A fresh interpreter has not imported gemini; the cell runs in a
        # worker, so only the pre-fork import can load it in the parent.
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "from repro.parallel import RunSpec, run_grid\n"
            "from repro.workload.trace import constant_trace\n"
            "spec = RunSpec(app='xapian', policy='gemini', trace=constant_trace(50.0, 0.3),"
            " num_cores=2, seed=1)\n"
            "assert 'repro.baselines.gemini' not in sys.modules\n"
            "assert run_grid([spec, spec], jobs=2)[0].ok\n"
            "print('repro.baselines.gemini' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0])),
        )
        assert proc.stdout.split() == ["True"]


class TestGridCache:
    def test_cold_then_warm_identical(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        specs = _specs(duration=1.0)[:2]
        cold = run_grid(specs, jobs=1, cache=cache)
        assert cache.hits == 0 and cache.misses == len(specs)
        assert all(not o.from_cache for o in cold)

        warm = run_grid(specs, jobs=1, cache=cache)
        assert cache.hits == len(specs)
        assert all(o.from_cache for o in warm)
        _assert_outcomes_bitwise_equal(cold, warm)

    @pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
    def test_warm_cache_matches_parallel_cold(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        specs = _specs(duration=1.0)[:3]
        cold = run_grid(specs, jobs=2, cache=cache)
        warm = run_grid(specs, jobs=2, cache=cache)
        _assert_outcomes_bitwise_equal(cold, warm)

    def test_errors_are_not_cached(self, tmp_path):
        cache = RunResultCache(root=str(tmp_path))
        bad = RunSpec(
            app="no-such-app",
            policy="baseline",
            trace=constant_trace(50.0, 0.5),
            num_cores=2,
            seed=1,
        )
        (out,) = run_grid([bad], jobs=1, cache=cache)
        assert not out.ok
        assert not cache.contains(cache.key(bad.cache_payload()))


class TestGridKillAndRerun:
    """Each cell is stored as soon as it finishes, so a killed grid keeps
    every finished cell and a rerun computes only the rest."""

    def test_rerun_executes_only_the_cells_not_stored(self, tmp_path):
        import os
        import pickle
        import signal
        import subprocess
        import sys
        import time

        import repro

        specs = _specs(duration=0.5)
        n, k = len(specs), 2
        with open(tmp_path / "specs.pkl", "wb") as f:
            pickle.dump(specs, f)
        root = tmp_path / "cache"
        # Serial, so no orphaned worker outlives the kill.  Cell k blocks
        # until the kill lands; cells 0..k-1 have been stored by then.
        code = (
            "import pickle, sys, time\n"
            "import repro.parallel.grid as grid\n"
            "from repro.parallel import RunResultCache, run_grid\n"
            "root, specs_path, k = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "real, calls = grid.execute_run_spec, []\n"
            "def execute(spec):\n"
            "    if len(calls) == k:\n"
            "        time.sleep(600)\n"
            "    calls.append(spec)\n"
            "    return real(spec)\n"
            "grid.execute_run_spec = execute\n"
            "specs = pickle.load(open(specs_path, 'rb'))\n"
            "run_grid(specs, jobs=1, cache=RunResultCache(root=root))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(root), str(tmp_path / "specs.pkl"), str(k)],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0])),
        )

        def stored():
            return len(list(root.glob("runs/*/*/*.pkl")))

        try:
            deadline = time.monotonic() + 120.0
            while stored() < k and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert stored() == k

        cache = RunResultCache(root=str(root))
        rerun = run_grid(specs, jobs=1, cache=cache)
        assert [o.from_cache for o in rerun] == [True] * k + [False] * (n - k)
        assert stored() == n
        _assert_outcomes_bitwise_equal(rerun, run_grid(specs, jobs=1))


class TestGridFailureIsolation:
    @pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
    def test_one_bad_cell_does_not_kill_siblings(self):
        good = _specs(duration=0.8)[:2]
        bad = RunSpec(
            app="no-such-app",
            policy="baseline",
            trace=constant_trace(50.0, 0.5),
            num_cores=2,
            seed=1,
        )
        outs = run_grid([good[0], bad, good[1]], jobs=2)
        assert outs[0].ok and outs[2].ok
        assert not outs[1].ok
        assert "no-such-app" in outs[1].error or "KeyError" in outs[1].error
        with pytest.raises(RuntimeError, match="grid cell"):
            outs[1].unwrap()
        # Spec order is preserved regardless of which worker finished first.
        assert [o.spec.app for o in outs] == [good[0].app, "no-such-app", good[1].app]
