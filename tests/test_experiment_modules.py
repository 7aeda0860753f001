"""Deeper tests of individual experiment modules at tiny scale."""

import numpy as np
import pytest

from repro.cpu import DEFAULT_TABLE
from repro.experiments.fig4_controller import run_fig4
from repro.experiments.table3_load_latency import render_table3, run_table3
from repro.workload import get_app


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

    def test_agent_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        from repro.experiments.fig7_main import _agent_cache_path
        from repro.experiments.scenarios import SMOKE

        p = _agent_cache_path("xapian", SMOKE, 7)
        assert str(tmp_path) in p and "xapian" in p and p.endswith(".npz")
