"""Tests for the power-management baseline policies."""

import numpy as np
import pytest

from repro.baselines import (
    FixedFrequencyPolicy,
    GeminiPolicy,
    MaxFrequencyPolicy,
    RetailPolicy,
    UtilizationOraclePolicy,
)
from repro.cpu import DEFAULT_TABLE
from repro.experiments.runner import build_context, run_policy
from repro.workload import constant_trace, diurnal_trace
from repro.sim import RngRegistry


def _ctx(tiny_app, rate=60.0, duration=5.0, cores=2, seed=3, workers=None):
    trace = constant_trace(rate, duration)
    return build_context(tiny_app, trace, cores, seed, num_workers=workers)


class TestSimplePolicies:
    def test_max_frequency_sets_turbo_everywhere(self, tiny_app):
        ctx = _ctx(tiny_app)
        MaxFrequencyPolicy(ctx).start()
        assert np.allclose(ctx.cpu.frequencies(), DEFAULT_TABLE.turbo)

    def test_max_frequency_sustained_option(self, tiny_app):
        ctx = _ctx(tiny_app)
        MaxFrequencyPolicy(ctx, use_turbo=False).start()
        assert np.allclose(ctx.cpu.frequencies(), DEFAULT_TABLE.fmax)

    def test_fixed_frequency_quantises(self, tiny_app):
        ctx = _ctx(tiny_app)
        FixedFrequencyPolicy(ctx, 1.44).start()
        assert np.allclose(ctx.cpu.frequencies(), 1.5)

    def test_start_stop_idempotent(self, tiny_app):
        ctx = _ctx(tiny_app)
        pol = MaxFrequencyPolicy(ctx)
        pol.start()
        pol.start()
        pol.stop()
        pol.stop()

    def test_managed_policy_parks_non_worker_cores(self, tiny_app):
        ctx = _ctx(tiny_app, cores=4, workers=2)
        FixedFrequencyPolicy(ctx, 2.1).start()
        freqs = ctx.cpu.frequencies()
        assert np.allclose(freqs[:2], 2.1)
        assert np.allclose(freqs[2:], DEFAULT_TABLE.fmin)

    def test_oracle_tracks_trace_rate(self, tiny_app):
        rngs = RngRegistry(0)
        trace = diurnal_trace(rngs.get("t"), duration=10.0, num_segments=10)
        trace = trace.scaled_to_mean(tiny_app.rps_for_load(0.4, 2))
        ctx = build_context(tiny_app, trace, 2, 3)
        pol = UtilizationOraclePolicy(ctx, target_util=0.6, interval=1.0)
        pol.start()
        # frequency after start reflects the first segment's known rate
        rate0 = trace.rate_at(0.0)
        demand = rate0 * tiny_app.service.expected_work() * (1 + tiny_app.contention * 0.6)
        expected = DEFAULT_TABLE.quantize(
            min(max(demand / (2 * 0.6), DEFAULT_TABLE.fmin), DEFAULT_TABLE.turbo)
        )
        assert ctx.cpu[0].frequency == pytest.approx(expected)
        pol.stop()

    def test_oracle_validation(self, tiny_app):
        ctx = _ctx(tiny_app)
        with pytest.raises(ValueError):
            UtilizationOraclePolicy(ctx, target_util=0.0)


class TestRetail:
    def test_selects_low_freq_for_relaxed_deadline(self, tiny_app):
        ctx = _ctx(tiny_app, rate=1.0)
        pol = RetailPolicy(ctx, slack_margin=0.9, pad_sigma=0.0)
        pol.start()
        ctx.source.start()
        ctx.engine.run_until(2.0)
        # With a 60 ms SLA and ~10 ms requests, chosen levels should mostly
        # sit well below turbo.
        assert pol.freq_choices
        assert np.mean(pol.freq_choices) < 2.0

    def test_turbo_when_deadline_passed(self, tiny_app):
        ctx = _ctx(tiny_app)
        pol = RetailPolicy(ctx)
        pol.start()
        from repro.workload import Request

        req = Request(req_id=0, arrival_time=-1.0, work=0.01, features=np.zeros(3), sla=0.05)
        ctx.server.submit(req)
        assert pol.freq_choices[-1] == DEFAULT_TABLE.turbo

    def test_queue_pressure_raises_frequency(self, tiny_app):
        # Saturating burst: deep queue must push selections upward.
        ctx = _ctx(tiny_app, rate=2000.0, duration=0.2, cores=2)
        pol = RetailPolicy(ctx)
        pol.start()
        ctx.source.start()
        ctx.engine.run_until(0.2)
        late = pol.freq_choices[len(pol.freq_choices) // 2 :]
        assert np.mean(late) > 2.0  # mostly turbo under backlog

    def test_end_to_end_keeps_most_requests_in_sla(self, tiny_app):
        rate = tiny_app.rps_for_load(0.4, 2)
        res = run_policy(
            lambda ctx: RetailPolicy(ctx),
            tiny_app, constant_trace(rate, 20.0), 2, seed=5,
        )
        assert res.metrics.timeout_rate < 0.05
        assert res.metrics.completed > 50

    def test_saves_power_vs_baseline(self, tiny_app):
        rate = tiny_app.rps_for_load(0.35, 2)
        trace = constant_trace(rate, 20.0)
        base = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=5)
        ret = run_policy(lambda ctx: RetailPolicy(ctx), tiny_app, trace, 2, seed=5)
        assert ret.metrics.avg_power_watts < base.metrics.avg_power_watts


class TestGemini:
    def test_stage1_sets_frequency_from_prediction(self, tiny_app):
        ctx = _ctx(tiny_app, rate=1.0)
        pol = GeminiPolicy(ctx)
        pol.start()
        ctx.source.start()
        ctx.engine.run_until(2.0)
        busy_or_used = [c.frequency for c in ctx.cpu.cores]
        # After serving low-load requests the cores are not all stuck at fmin.
        assert any(f > DEFAULT_TABLE.fmin for f in busy_or_used) or pol._inflight == {}

    def test_boost_check_boosts_at_risk_request(self, tiny_app):
        ctx = _ctx(tiny_app, rate=0.001)
        pol = GeminiPolicy(ctx, check_period_physical=1e-3)
        pol.start()
        from repro.workload import Request

        # Work far larger than predicted: the boost check must fire.
        req = Request(
            req_id=0, arrival_time=0.0,
            work=tiny_app.sla * 2.1 * 2,  # way over SLA at any freq
            features=np.zeros(3), sla=tiny_app.sla,
        )
        ctx.server.submit(req)
        ctx.engine.run_until(tiny_app.sla)
        assert pol.boosts > 0
        assert ctx.cpu[0].frequency == DEFAULT_TABLE.turbo

    def test_queue_risk_triggers_global_boost(self, tiny_app):
        ctx = _ctx(tiny_app, rate=3000.0, duration=0.1, cores=2)
        pol = GeminiPolicy(ctx)
        pol.start()
        ctx.source.start()
        ctx.engine.run_until(0.1)
        assert pol.boosts > 0

    def test_check_period_scales_with_dilation(self, tiny_app):
        from dataclasses import replace

        dilated = replace(tiny_app, dilation=50.0)
        ctx = build_context(dilated, constant_trace(1.0, 1.0), 2, 3)
        pol = GeminiPolicy(ctx, check_period_physical=1e-3)
        assert pol.check_period == pytest.approx(0.05)

    def test_end_to_end_runs(self, tiny_app):
        rate = tiny_app.rps_for_load(0.4, 2)
        res = run_policy(
            lambda ctx: GeminiPolicy(ctx),
            tiny_app, constant_trace(rate, 15.0), 2, seed=5,
        )
        assert res.metrics.completed > 50
        assert res.metrics.avg_power_watts > 0


class TestRequestHooks:
    """The server calls the hooks a policy overrides and skips the rest."""

    @pytest.mark.parametrize(
        "cls, hooks",
        [(GeminiPolicy, ("on_start", "on_complete")), (RetailPolicy, ("on_start",))],
    )
    def test_overridden_hooks_fire(self, tiny_app, monkeypatch, cls, hooks):
        calls = {name: 0 for name in hooks}
        for name in hooks:
            def counted(self, *args, _real=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counted)
        ctx = _ctx(tiny_app, rate=60.0, duration=2.0)
        pol = cls(ctx)
        pol.start()
        assert ctx.server._on_arrival is None
        ctx.source.start()
        ctx.engine.run_until(3.0)
        completed = ctx.server.metrics.completed
        assert completed > 0
        assert calls["on_start"] == completed + ctx.server.busy_workers()
        if "on_complete" in calls:
            assert calls["on_complete"] == completed

    def test_inherited_hooks_are_not_bound(self, tiny_app):
        ctx = _ctx(tiny_app)
        MaxFrequencyPolicy(ctx).start()
        server = ctx.server
        assert (server._on_arrival, server._on_start, server._on_complete) == (
            None, None, None,
        )
