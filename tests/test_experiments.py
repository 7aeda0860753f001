"""Tests for the experiment harness (runner, calibration, registry, modules)."""

import numpy as np
import pytest

from repro.baselines import MaxFrequencyPolicy
from repro.experiments import (
    REGISTRY,
    SMOKE,
    active_profile,
    build_context,
    calibrate_to_sla,
    evaluation_trace,
    get_experiment,
    list_experiments,
    run_policy,
    workers_for,
)
from repro.experiments.fig1_cdf import run_fig1
from repro.experiments.fig2_rmse import run_fig2
from repro.experiments.fig5_scalefunc import run_fig5
from repro.experiments.fig6_workload import run_fig6
from repro.experiments.fig11_fixed_params import run_fig11
from repro.experiments.overhead import run_overhead
from repro.experiments.table2_inference import run_table2
from repro.workload import constant_trace


class TestRunner:
    def test_run_policy_produces_complete_metrics(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 8.0)
        res = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1)
        m = res.metrics
        assert m.completed > 100
        assert m.energy_joules > 0
        assert m.avg_power_watts == pytest.approx(m.energy_joules / 8.0)
        assert m.duration == 8.0

    def test_drain_completes_inflight_requests(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.6, 2), 4.0)
        res = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1)
        # open-loop generated == completed after the grace drain
        assert res.metrics.timeouts >= 0
        assert res.metrics.completed >= res.metrics.throughput * 4.0 * 0.95

    def test_extras_fn_collects_artifacts(self, tiny_app):
        trace = constant_trace(10.0, 2.0)
        res = run_policy(
            lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1,
            extras_fn=lambda ctx, drv: {"switches": ctx.cpu.total_switches()},
        )
        assert "switches" in res.extras

    def test_seed_reproducibility(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 5.0)
        a = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=42)
        b = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=42)
        assert a.metrics.tail_latency == b.metrics.tail_latency
        assert a.metrics.energy_joules == b.metrics.energy_joules

    def test_build_context_components(self, tiny_app):
        ctx = build_context(tiny_app, constant_trace(5.0, 1.0), 2, 1)
        assert ctx.cpu.num_cores == 2
        assert ctx.server.num_workers == 2
        assert ctx.app is tiny_app


class TestCalibration:
    def test_hits_target_fraction(self, tiny_app, rngs):
        from repro.workload import diurnal_trace

        base = diurnal_trace(rngs.get("t"), duration=20.0, num_segments=10)
        cal = calibrate_to_sla(
            tiny_app, base, num_cores=2, target_fraction=0.6, tol=0.15
        )
        assert cal.baseline_p99_fraction == pytest.approx(0.6, rel=0.3)
        assert 0.0 < cal.mean_load < 1.0

    def test_unconverged_search_returns_its_closest_probe(
        self, tiny_app, rngs, monkeypatch
    ):
        """A search that runs out of probes returns a trace it measured,
        the one closest to the target, with that probe's own fraction."""
        import repro.experiments.calibration as calibration
        from repro.workload import diurnal_trace

        probes = []
        real = calibration.run_policy

        def recording(factory, app, trace, *args, **kwargs):
            res = real(factory, app, trace, *args, **kwargs)
            probes.append((trace, res.metrics.tail_latency / app.sla))
            return res

        monkeypatch.setattr(calibration, "run_policy", recording)
        base = diurnal_trace(rngs.get("t"), duration=10.0, num_segments=5)
        cal = calibrate_to_sla(
            tiny_app, base, num_cores=2, target_fraction=0.6, tol=1e-9, max_iter=3
        )
        assert cal.iterations == len(probes) == 3
        trace, fraction = min(probes, key=lambda p: abs(p[1] - 0.6))
        np.testing.assert_array_equal(cal.trace.rates, trace.rates)
        assert cal.baseline_p99_fraction == fraction
        assert cal.scale == trace.mean_rate() / base.mean_rate()

    def test_validation(self, tiny_app, rngs):
        from repro.workload import diurnal_trace

        base = diurnal_trace(rngs.get("t"), duration=10.0, num_segments=5)
        with pytest.raises(ValueError):
            calibrate_to_sla(tiny_app, base, 2, target_fraction=0.0)


class TestCalibrationStore:
    """A stored calibration cell is returned without a probe run, and any
    input of the search addresses a different entry."""

    @pytest.fixture
    def probes(self, monkeypatch):
        import repro.experiments.calibration as calibration

        calls = []
        real = calibration.run_policy

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration, "run_policy", counting)
        return calls

    def _spec(self, rngs, **kwargs):
        from repro.experiments import CalibrationSpec
        from repro.workload import diurnal_trace

        base = diurnal_trace(rngs.get("t"), duration=10.0, num_segments=5)
        return CalibrationSpec("img-dnn", base, **{"num_cores": 2, "tol": 0.15, **kwargs})

    def _calibrate(self, spec, cache):
        from repro.parallel import run_grid

        [out] = run_grid([spec], cache=cache)
        return out

    def test_rerun_loads_the_stored_result(self, rngs, tmp_path, probes):
        from repro.parallel import RunResultCache

        cache = RunResultCache(str(tmp_path))
        spec = self._spec(rngs)
        first = self._calibrate(spec, cache)
        n = len(probes)
        assert n >= 1 and not first.from_cache
        again = self._calibrate(spec, cache)
        assert len(probes) == n and again.from_cache
        first, again = first.unwrap(), again.unwrap()
        np.testing.assert_array_equal(again.trace.edges, first.trace.edges)
        np.testing.assert_array_equal(again.trace.rates, first.trace.rates)
        for name in ("scale", "baseline_p99_fraction", "iterations", "mean_load"):
            assert getattr(again, name) == getattr(first, name)
        assert len(list(tmp_path.rglob("*.pkl"))) == 1

    @pytest.mark.parametrize("change", [
        {"target_fraction": 0.6}, {"seed": 5}, {"num_workers": 1}, {"num_cores": 3},
        {"max_iter": 2}, {"base": "busier"},
    ])
    def test_each_input_is_part_of_the_key(self, rngs, tmp_path, probes, change):
        from dataclasses import replace

        from repro.parallel import RunResultCache

        cache = RunResultCache(str(tmp_path))
        spec = self._spec(rngs, max_iter=3)
        self._calibrate(spec, cache)
        n = len(probes)
        change = dict(change)
        if change.pop("base", None):
            change["base_trace"] = spec.base_trace.scaled(1.1)
        self._calibrate(replace(spec, **change), cache)
        assert len(probes) > n
        assert len(list(tmp_path.rglob("*.pkl"))) == 2

    def test_no_store_reads_and_writes_nothing(self, rngs, tmp_path, probes, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        spec = self._spec(rngs, max_iter=2)
        for off in (None, False):
            self._calibrate(spec, off)
        assert len(probes) >= 2
        assert list(tmp_path.iterdir()) == []


class TestScenarios:
    def test_profile_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert active_profile().name == "smoke"
        assert active_profile(full=True).name == "full"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert active_profile().name == "full"

    def test_workers_for_masstree_half_socket(self):
        assert workers_for("masstree", 8) == 4
        assert workers_for("xapian", 8) == 8

    def test_evaluation_trace_matches_profile(self):
        t = evaluation_trace(SMOKE)
        assert t.duration == pytest.approx(SMOKE.trace_duration)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(REGISTRY)
        required = {
            "fig1", "fig2", "table2", "table3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "overhead",
        }
        assert required <= ids

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_sorted(self):
        exps = list_experiments()
        assert [e.id for e in exps] == sorted(e.id for e in exps)


class TestCheapExperiments:
    """Each fast experiment runs end-to-end at reduced scale and shows the
    paper's qualitative shape."""

    def test_fig1_moses_longest_tail(self):
        res = run_fig1(n=4000, seed=1)
        ratios = {k: v.tail_ratio_p99 for k, v in res.items()}
        assert max(ratios, key=ratios.get) == "moses"
        assert all(v.x[0] >= 0 for v in res.values())

    def test_fig2_offdiagonal_exceeds_diagonal(self):
        res = run_fig2(apps=("masstree",), loads=(0.2, 0.9), n=2500, seed=1)
        m = res["masstree"].matrix
        assert np.allclose(np.diag(m), 1.0)
        assert m[1, 0] > 1.1

    def test_table2_all_algorithms_timed(self):
        res = run_table2(repetitions=50)
        assert set(res) == {"DQN", "DDQN", "DDPG", "SAC"}
        assert all(t.mean_us > 1.0 for t in res.values())
        # the motivating conclusion: inference is tens of microseconds+
        assert res["DDPG"].mean_us > 10.0

    def test_fig5_change_point_at_eta(self):
        res = run_fig5(eta=50.0)
        assert res.change_point == pytest.approx(50.0, rel=0.1)
        assert res.y[0] == pytest.approx(0.0, abs=1e-6)
        assert res.y[-1] > 0.8

    def test_fig6_diurnal_statistics(self):
        res = run_fig6(seed=3, duration=60.0, segments=30)
        assert res.daily_autocorr > 0.5
        assert res.peak_mean_ratio > 1.3
        assert len(res.downsampled.rates) == 30

    def test_fig11_ordering(self):
        res = run_fig11(window_physical=0.02, full=False)
        settings_list = list(res)
        floors = [res[s].idle_floor for s in settings_list]
        ramps = [res[s].mean_busy_ramp for s in settings_list]
        assert floors == sorted(floors)  # idle floor grows with BaseFreq
        assert ramps == sorted(ramps, reverse=True)  # ramp grows with coef

    def test_overhead_within_paper_budgets(self):
        res = run_overhead(updates=5, inferences=100)
        assert res.update_ms_batch64 < 50.0  # paper: 13 ms
        assert res.inference_us < 1000.0  # paper: < 1 ms
        assert res.actor_parameters > 1000


class TestRenderers:
    def test_every_cheap_experiment_renders_text(self):
        for eid in ("fig5",):
            out = get_experiment(eid).execute()
            assert isinstance(out, str) and len(out) > 10


class TestChaosExperiment:
    def test_registered(self):
        assert "chaos" in REGISTRY
        assert "failover" in REGISTRY["chaos"].description

    def test_render_contrasts_failover_and_ablation(self):
        from repro.experiments.chaos import render_chaos

        def fleet(p99, met):
            return {
                "avg_power_watts": 60.0, "energy_joules": 3600.0,
                "tail_latency": p99, "sla": 0.08, "sla_met": met,
                "timeout_rate": 0.01,
            }

        result = {
            "profile": "smoke", "app": "xapian", "num_nodes": 4,
            "cores_per_node": 2, "seed": 2023,
            "rows": [
                {"routing": "round-robin", "intensity": 0.0, "failover": True,
                 "metrics": {"fleet": fleet(0.07, True), "crashes": 0,
                             "redispatches": 0, "dropped_requests": 0,
                             "fleet_availability": 1.0}},
                {"routing": "round-robin", "intensity": 1.0, "failover": True,
                 "metrics": {"fleet": fleet(0.078, True), "crashes": 2,
                             "redispatches": 3, "dropped_requests": 0,
                             "fleet_availability": 0.93}},
                {"routing": "round-robin", "intensity": 1.0, "failover": False,
                 "metrics": {"fleet": fleet(10.6, False), "crashes": 2,
                             "redispatches": 0, "dropped_requests": 0,
                             "fleet_availability": 0.93}},
                {"routing": "jsq", "intensity": 1.0, "failover": True,
                 "error": "boom"},
            ],
        }
        out = render_chaos(result)
        assert "chaos: 4 nodes" in out
        assert "met" in out and "MISS" in out
        assert "NO" in out  # the ablation row is flagged
        assert "ERROR" in out

    def test_run_chaos_grid_shape_smoke(self, monkeypatch):
        """The grid builder fans the right cells without running sims."""
        import repro.experiments.chaos as chaos_mod

        captured = {}

        def fake_run_grid(specs, jobs=1, cache=None, trace_dir=None):
            captured["specs"] = list(specs)

            class _O:
                ok = False
                error = "stubbed"

            return [_O()] * len(captured["specs"])

        monkeypatch.setattr(chaos_mod, "run_grid", fake_run_grid)
        result = chaos_mod.run_chaos(full=False, num_nodes=2, seed=5)
        specs = captured["specs"]
        # routings x intensities + one ablation row per routing.
        assert len(specs) == len(chaos_mod.CHAOS_ROUTINGS) * (
            len(chaos_mod.CHAOS_INTENSITIES) + 1
        )
        # Intensity-0 baseline rows carry no fault plan (clean cache key).
        baseline = [s for s in specs if s.config.fault_plan is None]
        assert len(baseline) == len(chaos_mod.CHAOS_ROUTINGS)
        ablations = [s for s in specs if s.config.health_aware is False]
        assert len(ablations) == len(chaos_mod.CHAOS_ROUTINGS)
        assert all(s.config.fault_plan is not None for s in ablations)
        assert all("error" in row for row in result["rows"])
