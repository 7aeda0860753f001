"""Determinism + caching tests for the grid executor (repro.parallel.grid).

The load-bearing guarantee of ISSUE 3: ``run_grid(specs, jobs=N)`` is
*bitwise identical* to the serial run — same metrics floats, same extras
arrays — because every cell rebuilds its world (engine, RNG registry,
server) from the spec alone.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.control import ControlPlaneConfig
from repro.faults import FaultPlan, standard_fault_plan
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


def _assert_same(a, b):
    """``a`` and ``b`` are equal to the bit: arrays, numbers and their
    containers."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        # Bytes, not ==: an idle worker's begin time is NaN.
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


def _assert_outcomes_bitwise_equal(a_list, b_list):
    assert len(a_list) == len(b_list)
    for a, b in zip(a_list, b_list):
        assert a.ok and b.ok
        # RunMetrics is a dataclass of floats/ints: == is exact, not approx.
        assert a.metrics == b.metrics
        assert a.extras.keys() == set(a.spec.extras)
        _assert_same(a.extras, b.extras)


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
            RunSpec(**{**_kw(base), "policy_kwargs": (("use_turbo", False),)}),
            RunSpec(**{**_kw(base), "training": _untrained("xapian", 4)}),
            RunSpec(**{**_kw(base), "fault_plan": standard_fault_plan(0.05, 1.5)}),
        ):
            assert content_key(changed.cache_payload()) != content_key(
                base.cache_payload()
            )
        # The label only names the cell's trace: a relabelled cell is the
        # same world and keys the same.
        relabelled = RunSpec(**{**_kw(base), "label": "other"})
        assert content_key(relabelled.cache_payload()) == content_key(base.cache_payload())
        # Plans key by content; arming an empty plan changes nothing, so it
        # keys like no plan.
        plan_keys = {
            content_key(RunSpec(**{**_kw(base), "fault_plan": plan}).cache_payload())
            for plan in (standard_fault_plan(0.05, 1.5), standard_fault_plan(0.05, 1.5, seed=1))
        }
        assert len(plan_keys) == 2
        empty = RunSpec(**{**_kw(base), "fault_plan": FaultPlan()})
        assert content_key(empty.cache_payload()) == content_key(base.cache_payload())

    def test_unknown_policy_raises(self):
        spec = RunSpec(**{**_kw(_specs()[0]), "policy": "nope"})
        with pytest.raises(KeyError, match="unknown grid policy") as exc:
            execute_run_spec(spec)
        assert "'controller'" in str(exc.value) and "'deeppower'" in str(exc.value)

    def test_controller_cell_runs_the_fixed_controller(self):
        """A ``controller`` cell is ``FixedController`` at its
        ``policy_kwargs``: the same metrics as the plain run."""
        from repro.core import FixedController
        from repro.experiments.runner import run_policy
        from repro.workload.apps import get_app

        spec = _probe_specs()[-1]
        metrics, _ = execute_run_spec(spec)
        plain = run_policy(
            lambda ctx: FixedController(ctx, 0.8, 0.75), get_app("xapian"),
            spec.trace, 4, seed=11,
        ).metrics
        assert metrics.as_dict() == plain.as_dict()

    def test_unknown_extras_collector_raises(self):
        spec = RunSpec(**{**_kw(_specs()[0]), "extras": ("bogus",)})
        with pytest.raises(KeyError, match="unknown extras collector"):
            execute_run_spec(spec)

    def test_extras_registry_names(self):
        assert set(EXTRAS) <= set(EXTRAS_COLLECTORS)

    def test_every_collector_stores_plain_data(self):
        """Each collector's output survives a pickle round trip unchanged
        and holds no simulator object, so a stored cell never carries a
        live engine, controller, runtime or watchdog."""
        trace = constant_trace(200.0, 2.0)
        spec = RunSpec(
            app="xapian", policy="deeppower", trace=trace, num_cores=4, seed=3,
            training=_untrained("xapian", 4), extras=tuple(EXTRAS_COLLECTORS),
            policy_kwargs=(("control", ControlPlaneConfig(watchdog=True)),),
            fault_plan=standard_fault_plan(0.05, 2.0, long_time=0.25, seed=3),
        )
        _, extras = execute_run_spec(spec)
        assert extras.keys() == EXTRAS_COLLECTORS.keys()
        _assert_plain(extras)
        _assert_same(pickle.loads(pickle.dumps(extras)), extras)

    def test_deeppower_runs_the_specs_worker_count(self):
        """Masstree's half-socket pool holds for every policy, DeepPower too."""
        training = _untrained("masstree", 2)
        for policy in ("baseline", "deeppower"):
            spec = RunSpec(
                app="masstree", policy=policy, trace=constant_trace(200.0, 2.0),
                num_cores=4, seed=3, num_workers=2,
                training=training if policy == "deeppower" else None,
                extras=("worker_completed",),
            )
            _, extras = execute_run_spec(spec)
            assert len(extras["worker_completed"]) == 2, policy


def _assert_plain(value):
    """``value`` is numbers, strings, arrays of numbers and containers."""
    if isinstance(value, dict):
        for k, v in value.items():
            assert isinstance(k, str)
            _assert_plain(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _assert_plain(v)
    elif isinstance(value, np.ndarray):
        assert value.dtype.kind in "biuf"
    else:
        assert isinstance(value, (bool, int, float, str, np.generic)), type(value)


def _untrained(app: str, workers: int):
    """The standard agent's training cell, holding its untrained arrays."""
    from dataclasses import replace

    from repro.experiments.fig7_main import agent_recipe
    from repro.experiments.scenarios import SMOKE

    spec = agent_recipe(app, constant_trace(200.0, 2.0), SMOKE, workers)
    return replace(spec, arrays=spec.fresh_agent().network_arrays())


def _kw(spec: RunSpec) -> dict:
    return {
        "app": spec.app,
        "policy": spec.policy,
        "trace": spec.trace,
        "num_cores": spec.num_cores,
        "seed": spec.seed,
        "num_workers": spec.num_workers,
        "policy_kwargs": spec.policy_kwargs,
        "training": spec.training,
        "extras": spec.extras,
        "fault_plan": spec.fault_plan,
        "label": spec.label,
    }


def _probe_specs(duration=1.5):
    """A faulted cell counting its faults, a frequency-sampled one and a
    fixed-parameter controller sampling begin times and request spans."""
    trace = constant_trace(120.0, duration)
    return [
        RunSpec(
            app="xapian", policy="gemini", trace=trace, num_cores=4, seed=11,
            extras=("fault_counts",),
            fault_plan=standard_fault_plan(0.05, duration, long_time=0.25, seed=3),
        ),
        RunSpec(
            app="xapian", policy="retail", trace=trace, num_cores=4, seed=11,
            extras=("freq_samples",),
        ),
        RunSpec(
            app="xapian", policy="controller", trace=trace, num_cores=4, seed=11,
            policy_kwargs=(("base_freq", 0.8), ("scaling_coef", 0.75)),
            extras=("begin_samples", "request_spans"),
        ),
    ]


class TestGridDeterminism:
    @pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
    def test_jobs4_bitwise_identical_to_serial(self):
        specs = _specs() + _probe_specs()
        serial = run_grid(specs, jobs=1)
        fanned = run_grid(specs, jobs=4)
        _assert_outcomes_bitwise_equal(serial, fanned)
        assert serial[-3].extras["fault_counts"]["injected"] > 0
        assert serial[-2].extras["freq_samples"][1].size > 0
        controller = serial[-1]
        assert controller.extras["begin_samples"][1].shape[1] == 4
        assert controller.extras["request_spans"]["finish"].size == controller.metrics.completed

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


@pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
def test_agent_trained_in_a_worker_equals_in_process(monkeypatch):
    """A training cell run in a forked worker trains the same bits as one
    run in-process: the same network arrays and the same fig7 rows."""
    from dataclasses import replace

    import repro.experiments.scenarios as scenarios
    from repro.core.training import train_agents
    from repro.experiments.fig7_main import agent_recipe, render_fig7, run_fig7

    short = replace(scenarios.SMOKE, trace_duration=6.0, trace_segments=3, train_episodes=1)
    monkeypatch.setattr(scenarios, "SMOKE", short)
    recipes = [
        agent_recipe(app, constant_trace(120.0, 6.0), short, 4)
        for app in ("xapian", "img-dnn")
    ]
    serial = train_agents(recipes, jobs=1)
    forked = train_agents(recipes, jobs=2)
    for a, b in zip(serial, forked):
        for net in ("actor", "actor_target", "critic", "critic_target"):
            for k, want in a.arrays[net].items():
                np.testing.assert_array_equal(b.arrays[net][k], want)

    apps = ("xapian", "img-dnn")
    serial = run_fig7(apps=apps, jobs=1, result_cache=False)
    forked = run_fig7(apps=apps, jobs=2, result_cache=False)
    for app in apps:
        assert (
            forked[app].outcomes["deeppower"].metrics
            == serial[app].outcomes["deeppower"].metrics
        )
    assert render_fig7(forked) == render_fig7(serial)
