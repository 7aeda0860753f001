"""Tests for DeepPower's thread controller, reward and state observer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RewardCalculator,
    RewardConfig,
    StateObserver,
    ThreadController,
    scale_func,
)
from repro.core.reward import auto_eta_for
from repro.cpu import DEFAULT_TABLE, Cpu
from repro.server import Server, TelemetrySnapshot
from repro.sim import Engine
from repro.workload import Request


def _req(i=0, arrival=0.0, work=1.0, sla=0.06):
    return Request(req_id=i, arrival_time=arrival, work=work, features=np.zeros(3), sla=sla)


def _snap(**kw):
    defaults = dict(
        time=1.0, window=1.0, num_req=10, queue_len=0, queue_frac=(0, 0, 0),
        core_frac=(0, 0, 0), timeouts=0, completed=10, utilization=0.5,
    )
    defaults.update(kw)
    return TelemetrySnapshot(**defaults)


class TestScaleFunc:
    def test_bounds(self):
        x = np.linspace(0.0, 1e5, 1000)
        y = scale_func(x, eta=100.0)
        assert np.all((y >= 0.0) & (y < 1.0))

    def test_near_zero_below_eta(self):
        assert scale_func(10.0, eta=100.0) < 0.05

    def test_half_at_eta(self):
        assert scale_func(100.0, eta=100.0) == pytest.approx(0.5, abs=0.01)

    def test_converges_to_one(self):
        assert scale_func(1e6, eta=100.0) > 0.999

    def test_monotone_nondecreasing(self):
        x = np.linspace(0.0, 1000.0, 500)
        y = scale_func(x, eta=100.0)
        assert np.all(np.diff(y) >= -1e-12)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            scale_func(1.0, eta=0.0)

    @given(
        x=st.floats(min_value=0.0, max_value=1e9),
        eta=st.floats(min_value=1e-3, max_value=1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_range(self, x, eta):
        y = scale_func(x, eta=eta)
        assert 0.0 <= y <= 1.0


class TestRewardCalculator:
    def _calc(self, **cfg_kw):
        cfg = RewardConfig(**cfg_kw)
        return RewardCalculator(cfg, max_power_watts=50.0, min_power_watts=10.0, auto_eta=20.0)

    def test_energy_term_normalised_to_dynamic_range(self):
        calc = self._calc(alpha=1.0, beta=0.0, gamma_q=0.0)
        # 30 W over a 1 s window = midpoint of [10, 50].
        rb = calc.compute(_snap(), window_energy_joules=30.0)
        assert rb.energy_term == pytest.approx(0.5)
        assert rb.total == pytest.approx(-0.5)

    def test_energy_term_clipped(self):
        calc = self._calc()
        rb = calc.compute(_snap(), window_energy_joules=1000.0)
        assert rb.energy_term == 1.0
        rb = calc.compute(_snap(), window_energy_joules=0.0)
        assert rb.energy_term == 0.0

    def test_timeout_term_fraction_of_arrivals(self):
        calc = self._calc(alpha=0.0, beta=1.0, gamma_q=0.0)
        rb = calc.compute(_snap(num_req=20, timeouts=5), 0.0)
        assert rb.timeout_term == pytest.approx(0.25)

    def test_timeout_term_no_arrivals(self):
        calc = self._calc()
        rb = calc.compute(_snap(num_req=0, timeouts=3), 0.0)
        assert rb.timeout_term == pytest.approx(3.0)  # /max(1, 0)

    def test_queue_growth_gated_by_scale_func(self):
        calc = self._calc(alpha=0.0, beta=0.0, gamma_q=1.0)
        calc.compute(_snap(queue_len=0), 0.0)
        # small queue: growth barely punished
        rb_small = calc.compute(_snap(queue_len=4), 0.0)
        assert rb_small.queue_term < 0.5
        # grow a long queue: heavy punishment
        calc.compute(_snap(queue_len=100), 0.0)
        rb_big = calc.compute(_snap(queue_len=140), 0.0)
        assert rb_big.queue_term > 5.0 * rb_small.queue_term

    def test_queue_shrink_not_punished(self):
        calc = self._calc()
        calc.compute(_snap(queue_len=100), 0.0)
        rb = calc.compute(_snap(queue_len=10), 0.0)
        assert rb.queue_term == 0.0

    def test_queue_term_capped(self):
        calc = self._calc(gamma_q=1.0, queue_term_cap=5.0)
        calc.compute(_snap(queue_len=0), 0.0)
        rb = calc.compute(_snap(queue_len=100_000), 0.0)
        assert rb.queue_term == pytest.approx(5.0)

    def test_first_step_has_no_queue_growth(self):
        calc = self._calc()
        rb = calc.compute(_snap(queue_len=500), 0.0)
        assert rb.queue_term == 0.0

    def test_reset_forgets_queue(self):
        calc = self._calc()
        calc.compute(_snap(queue_len=0), 0.0)
        calc.reset()
        rb = calc.compute(_snap(queue_len=100), 0.0)
        assert rb.queue_term == 0.0

    def test_explicit_eta_overrides_auto(self):
        cfg = RewardConfig(eta=123.0)
        calc = RewardCalculator(cfg, 50.0, 10.0, auto_eta=7.0)
        assert calc.eta == 123.0

    def test_auto_eta_used_when_none(self):
        calc = self._calc()
        assert calc.eta == 20.0

    def test_linear_combination_weights(self):
        calc = RewardCalculator(
            RewardConfig(alpha=2.0, beta=3.0, gamma_q=0.0),
            max_power_watts=50.0, min_power_watts=10.0, auto_eta=10.0,
        )
        rb = calc.compute(_snap(num_req=10, timeouts=1), window_energy_joules=30.0)
        assert rb.total == pytest.approx(-(2.0 * 0.5 + 3.0 * 0.1))

    def test_power_range_validation(self):
        with pytest.raises(ValueError):
            RewardCalculator(RewardConfig(), max_power_watts=1.0, min_power_watts=2.0)


class TestAutoEta:
    def test_scales_with_workers_and_sla(self, engine, tiny_app):
        cpu = Cpu(engine, 4)
        srv = Server(engine, cpu, tiny_app)
        eta = auto_eta_for(srv)
        expected = 4 * tiny_app.sla / (2 * tiny_app.mean_service_fmax)
        assert eta == pytest.approx(expected)


def _tick_samples(engine, srv, app):
    """Readers of the ``freq_samples`` and ``begin_samples`` collectors on
    a bare engine and server."""
    from types import SimpleNamespace

    from repro.parallel.grid import EXTRAS_COLLECTORS

    ctx = SimpleNamespace(engine=engine, server=srv, cpu=srv.cpu, app=app)
    freqs = EXTRAS_COLLECTORS["freq_samples"](ctx)
    begins = EXTRAS_COLLECTORS["begin_samples"](ctx)
    return lambda: (freqs(None), begins(None)[1])


class TestThreadController:
    def _setup(self, engine, tiny_app, cores=2):
        cpu = Cpu(engine, cores)
        srv = Server(engine, cpu, tiny_app)
        tc = ThreadController(engine, srv)
        return cpu, srv, tc

    def test_idle_core_runs_at_base_freq_interpolation(self, engine, tiny_app):
        cpu, srv, tc = self._setup(engine, tiny_app)
        tc.set_params(0.5, 1.0)
        tc.start()
        engine.run_until(0.01)
        expected = DEFAULT_TABLE.quantize(DEFAULT_TABLE.from_score(0.5))
        assert all(c.frequency == pytest.approx(expected) for c in cpu.cores)

    def test_score_grows_with_elapsed_time(self, engine, tiny_app):
        cpu, srv, tc = self._setup(engine, tiny_app, cores=1)
        tc.set_params(0.2, 1.0)
        samples = _tick_samples(engine, srv, tiny_app)
        tc.start()
        srv.submit(_req(work=100.0, sla=tiny_app.sla))
        engine.run_until(tiny_app.sla * 0.5)
        (times, freqs), begins = samples()
        score = (times[-1] - begins[-1, 0]) / tiny_app.sla * 1.0 + 0.2
        assert score == pytest.approx(0.2 + 0.5, rel=0.05)
        assert freqs[-1, 0] == tc.frequency_for_score(score)

    def test_turbo_when_score_reaches_one(self, engine, tiny_app):
        cpu, srv, tc = self._setup(engine, tiny_app, cores=1)
        tc.set_params(0.2, 1.0)
        tc.start()
        srv.submit(_req(work=1000.0, sla=tiny_app.sla))
        engine.run_until(tiny_app.sla * 0.9)  # score = 0.2 + 0.9 > 1
        assert cpu[0].frequency == pytest.approx(DEFAULT_TABLE.turbo)

    def test_queue_wait_counts_toward_score(self, engine, tiny_app):
        """BeginTimes is the request *arrival* time (Algorithm 1)."""
        cpu, srv, tc = self._setup(engine, tiny_app, cores=1)
        tc.set_params(0.0, 1.0)
        samples = _tick_samples(engine, srv, tiny_app)
        tc.start()
        engine.run_until(1.0)
        old = _req(0, arrival=1.0 - tiny_app.sla * 0.7, work=100.0, sla=tiny_app.sla)
        srv.submit(old)
        engine.run_until(1.0 + 1.5 * tiny_app.short_time)
        (times, freqs), begins = samples()
        assert begins[-1, 0] == old.arrival_time
        score = (times[-1] - begins[-1, 0]) / tiny_app.sla
        assert score == pytest.approx(0.7, abs=2 * tiny_app.short_time / tiny_app.sla)
        assert freqs[-1, 0] == tc.frequency_for_score(score)

    def test_params_clipped(self, engine, tiny_app):
        _, _, tc = self._setup(engine, tiny_app)
        tc.set_params(-0.5, 2.0)
        assert tc.base_freq == 0.0 and tc.scaling_coef == 1.0

    def test_trace_recording(self, engine, tiny_app):
        cpu, srv, tc = self._setup(engine, tiny_app)
        tc.set_params(0.3, 0.5)
        samples = _tick_samples(engine, srv, tiny_app)
        tc.start()
        engine.run_until(tiny_app.short_time * 10.5)
        (times, freqs), begins = samples()
        assert len(times) == 11 == tc.tick_count  # ticks at 0, dt, ..., 10*dt
        assert freqs.shape == begins.shape == (11, 2)

    def test_stop_halts_ticking(self, engine, tiny_app):
        _, _, tc = self._setup(engine, tiny_app)
        tc.start()
        engine.run_until(0.01)
        n = tc.tick_count
        tc.stop()
        engine.run_until(0.1)
        assert tc.tick_count == n

    def test_invalid_short_time(self, engine, tiny_app):
        cpu = Cpu(engine, 1)
        srv = Server(engine, cpu, tiny_app)
        with pytest.raises(ValueError):
            ThreadController(engine, srv, short_time=0.0)

    def test_frequency_for_score_bounds(self, engine, tiny_app):
        _, _, tc = self._setup(engine, tiny_app)
        assert tc.frequency_for_score(0.0) == pytest.approx(DEFAULT_TABLE.fmin)
        assert tc.frequency_for_score(1.0) == pytest.approx(DEFAULT_TABLE.turbo)
        assert tc.frequency_for_score(5.0) == pytest.approx(DEFAULT_TABLE.turbo)

    def test_non_worker_cores_parked_on_start(self, engine, tiny_app):
        cpu = Cpu(engine, 4)
        srv = Server(engine, cpu, tiny_app, num_workers=2)
        tc = ThreadController(engine, srv)
        tc.start()
        assert cpu[2].frequency == pytest.approx(DEFAULT_TABLE.fmin)
        assert cpu[3].frequency == pytest.approx(DEFAULT_TABLE.fmin)

    @given(
        bf=st.floats(min_value=0.0, max_value=1.0),
        sc=st.floats(min_value=0.0, max_value=1.0),
        elapsed_frac=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_frequency_always_valid_level(self, bf, sc, elapsed_frac):
        score = elapsed_frac * sc + bf
        eng = Engine()
        cpu = Cpu(eng, 1)
        from repro.workload import LognormalCorrelatedService
        from repro.workload.apps import AppSpec

        app = AppSpec(
            name="t", sla=0.06,
            service=LognormalCorrelatedService(mean_work=0.02, sigma=0.5),
        )
        srv = Server(eng, cpu, app)
        tc = ThreadController(eng, srv)
        f = tc.frequency_for_score(score)
        assert f in DEFAULT_TABLE


class TestStateObserver:
    def test_output_in_unit_box(self):
        obs = StateObserver(num_workers=4)
        s = obs.observe(_snap(num_req=1000, queue_len=50, queue_frac=(1, 2, 3), core_frac=(0, 1, 4)))
        assert s.shape == (8,)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_running_max_adapts(self):
        obs = StateObserver(num_workers=4)
        s1 = obs.observe(_snap(num_req=100))
        assert s1[0] == pytest.approx(1.0)  # new max
        s2 = obs.observe(_snap(num_req=50))
        assert s2[0] == pytest.approx(0.5)

    def test_expected_peak_seed(self):
        obs = StateObserver(num_workers=4, expected_peak_rps=200.0, window=1.0)
        s = obs.observe(_snap(num_req=100))
        assert s[0] == pytest.approx(0.5)

    def test_decay_lets_normaliser_shrink(self):
        obs = StateObserver(num_workers=2, decay=0.5)
        obs.observe(_snap(num_req=1000))
        for _ in range(20):
            s = obs.observe(_snap(num_req=10))
        assert s[0] > 0.5  # max decayed toward the floor

    def test_reset(self):
        obs = StateObserver(num_workers=2)
        obs.observe(_snap(num_req=1000))
        obs.reset()
        s = obs.observe(_snap(num_req=2))
        assert s[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StateObserver(num_workers=0)
        with pytest.raises(ValueError):
            StateObserver(num_workers=2, decay=0.0)
