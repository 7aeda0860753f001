"""Deeper tests of individual experiment modules at tiny scale."""

import numpy as np
import pytest

from repro.cpu import DEFAULT_TABLE
from repro.parallel import CACHE_SCHEMA_VERSION
from repro.experiments.fig4_controller import run_fig4
from repro.experiments.scenarios import SMOKE
from repro.experiments.table3_load_latency import render_table3, run_table3
from repro.workload import constant_trace, get_app


class TestFig4:
    def test_trace_structure(self):
        res = run_fig4(window=0.3, full=False)  # 0.3 s physical -> 3 s dilated
        assert len(res.times) == len(res.frequency)
        assert len(res.param_updates) == 1
        # all frequencies are legal table levels
        for f in np.unique(res.frequency):
            assert f in DEFAULT_TABLE

    def test_param_update_changes_floor(self):
        res = run_fig4(
            window=0.4,
            params_before=(0.2, 0.5),
            params_after=(0.8, 0.5),
            full=False,
        )
        half = len(res.times) // 2
        floor_before = res.frequency[:half].min()
        floor_after = res.frequency[half + 2 :].min()
        assert floor_after > floor_before

    def test_requests_recorded_for_core(self):
        res = run_fig4(window=0.5, load=0.7, full=False)
        assert len(res.request_spans) >= 1
        for start, end in res.request_spans:
            assert end > start


class TestTable3:
    def test_measured_load_accounts_for_contention(self, monkeypatch):
        import repro.parallel

        class _Captured(Exception):
            pass

        specs = []

        def capture(cells, **kwargs):
            specs.extend(cells)
            raise _Captured

        monkeypatch.setattr(repro.parallel, "run_grid", capture)
        with pytest.raises(_Captured):
            run_table3(apps=["masstree"], loads=(0.7,), full=False)
        app = get_app("masstree")
        nominal = app.rps_for_load(0.7, specs[0].num_workers)
        measured = float(specs[0].trace.rates[0])
        assert measured < nominal
        assert measured == pytest.approx(nominal / (1 + app.contention), rel=1e-9)

    def test_single_app_rows(self):
        res = run_table3(apps=["img-dnn"], loads=(0.2, 0.5), full=False)
        row = res["img-dnn"]
        assert set(row.p99_ms) == {0.2, 0.5}
        assert row.sla_ms == pytest.approx(50.0)
        assert row.p99_ms[0.5] > 0

    def test_render_contains_all_apps(self):
        res = run_table3(apps=["img-dnn", "xapian"], loads=(0.2,), full=False)
        out = render_table3(res)
        assert "img-dnn" in out and "xapian" in out


class TestFig7Helpers:
    def test_calibration_targets(self):
        from repro.experiments.fig7_main import calibration_target_for

        assert calibration_target_for("moses") == pytest.approx(0.85)
        assert calibration_target_for("img-dnn") == pytest.approx(0.5)
        assert calibration_target_for("xapian") == pytest.approx(0.7)

    def test_tuned_setup_uses_app_long_time(self):
        from repro.experiments.fig7_main import tuned_agent_setup

        sphinx = get_app("sphinx")
        _, cfg = tuned_agent_setup(seed=1, app=sphinx)
        assert cfg.long_time == pytest.approx(sphinx.long_time)
        assert cfg.long_time == pytest.approx(1.0)
        _, cfg_default = tuned_agent_setup(seed=1)
        assert cfg_default.long_time == pytest.approx(1.0)

    def test_reward_override_applied(self):
        from repro.experiments.fig7_main import tuned_agent_setup

        _, cfg = tuned_agent_setup(seed=1, app=get_app("sphinx"))
        assert cfg.reward.beta == pytest.approx(30.0)
        _, cfg = tuned_agent_setup(seed=1, app=get_app("xapian"))
        assert cfg.reward.beta == pytest.approx(26.0)
        _, cfg = tuned_agent_setup(seed=1, app=get_app("moses"))
        assert cfg.reward.beta == pytest.approx(20.0)

    def test_agent_cache_roundtrip(self, agent_store):
        """A stored agent loads back with its trained weights."""
        fig7, trained, root = agent_store
        first, _, path = fig7.trained_agent("xapian", constant_trace(100.0, 10.0), SMOKE, 4)
        again, _, path2 = fig7.trained_agent("xapian", constant_trace(100.0, 10.0), SMOKE, 4)
        assert len(trained) == 1 and path2 == path
        assert path.startswith(str(root / "runs" / f"v{CACHE_SCHEMA_VERSION}"))
        assert path.endswith(".npz")
        want, got = first.actor.state_dict(), again.actor.state_dict()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])

    def test_agent_cache_is_keyed_on_the_training_trace(self, agent_store):
        """An agent trained on one trace is never loaded for another."""
        fig7, trained, root = agent_store
        calm, busy = constant_trace(100.0, 10.0), constant_trace(150.0, 10.0)
        fig7.trained_agent("xapian", calm, SMOKE, 4)
        fig7.trained_agent("xapian", busy, SMOKE, 4)
        fig7.trained_agent("xapian", calm, SMOKE, 4)
        assert len(trained) == 2
        assert len(list(root.rglob("*.npz"))) == 2

    @pytest.mark.parametrize("change", ["num_workers", "beta", "updates_per_step"])
    def test_agent_store_misses_on_any_recipe_change(
        self, agent_store, monkeypatch, change
    ):
        from dataclasses import replace

        fig7, trained, root = agent_store
        trace = constant_trace(100.0, 10.0)
        fig7.trained_agent("masstree", trace, SMOKE, 2)
        workers = 2
        if change == "num_workers":
            workers = 4
        elif change == "beta":
            monkeypatch.setitem(fig7.REWARD_OVERRIDES, "masstree", {"beta": 21.0})
        else:
            setup = fig7.tuned_agent_setup

            def more_updates(seed, app=None):
                agent, cfg = setup(seed, app=app)
                return agent, replace(cfg, updates_per_step=cfg.updates_per_step + 1)

            monkeypatch.setattr(fig7, "tuned_agent_setup", more_updates)
        fig7.trained_agent("masstree", trace, SMOKE, workers)
        assert len(trained) == 2
        assert len(list(root.rglob("*.npz"))) == 2
        assert trained[1]["num_workers"] == workers

    def test_truncated_agent_entry_is_evicted_and_retrained(self, agent_store):
        fig7, trained, root = agent_store
        trace = constant_trace(100.0, 10.0)
        _, _, path = fig7.trained_agent("xapian", trace, SMOKE, 4)
        with open(path, "r+b") as f:
            f.truncate(64)
        with pytest.warns(UserWarning, match="discarding unreadable agent"):
            fig7.trained_agent("xapian", trace, SMOKE, 4)
        assert len(trained) == 2
        fig7.trained_agent("xapian", trace, SMOKE, 4)  # the rewrite loads
        assert len(trained) == 2

    def test_store_off_reads_and_writes_nothing(self, agent_store):
        """``result_cache=False`` leaves REPRO_CACHE empty, agents included."""
        from repro.experiments.registry import get_experiment

        fig7, trained, root = agent_store
        _, _, path = fig7.trained_agent(
            "xapian", constant_trace(100.0, 10.0), SMOKE, 4, result_cache=False
        )
        assert path is None
        out = get_experiment("fig7").execute(result_cache=False, apps=("img-dnn",))
        assert "img-dnn" in out and len(trained) == 2
        assert list(root.iterdir()) == []

    def test_warm_rerun_simulates_nothing(self, agent_store, monkeypatch, tmp_path):
        """A warm fig7 rerun loads calibrations, agents and cells: it runs
        no calibration probe and no ``run_policy`` at all, and cold, warm,
        ``jobs=1`` and ``jobs=2`` render the same bytes."""
        from dataclasses import replace

        import repro.experiments.calibration as calibration
        import repro.experiments.runner as runner
        from repro.experiments.registry import get_experiment

        fig7, trained, root = agent_store
        short = replace(SMOKE, trace_duration=10.0, trace_segments=5)
        monkeypatch.setattr(fig7, "active_profile", lambda full=None: short)

        def fig7_text(jobs, store):
            monkeypatch.setenv("REPRO_CACHE", str(store))
            return get_experiment("fig7").execute(jobs=jobs, apps=("img-dnn",))

        cold = fig7_text(1, root / "a")
        assert fig7_text(2, root / "b") == cold
        assert len(trained) == 2

        runs = []
        for mod in (runner, calibration):
            real = mod.run_policy

            def counting(*args, _real=real, _name=mod.__name__, **kwargs):
                runs.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, "run_policy", counting)
        assert fig7_text(1, root / "a") == cold
        assert fig7_text(2, root / "b") == cold
        assert runs == [] and len(trained) == 2

@pytest.fixture
def agent_store(tmp_path, monkeypatch):
    """fig7's agent store under ``tmp_path``, with training stubbed out.

    The stub records each training call and shifts the actor's weights, so
    a load from the store is told apart from a fresh agent.
    """
    import repro.core.training
    import repro.experiments.fig7_main as fig7

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    trained = []

    def train(app, trace, agent, **kw):
        trained.append(kw)
        agent.actor.load_state_dict(
            {k: v + 1.0 for k, v in agent.actor.state_dict().items()}
        )

    # fig7 imports the trainer where it trains, so stub it at its source.
    monkeypatch.setattr(repro.core.training, "train_deeppower", train)
    return fig7, trained, tmp_path
