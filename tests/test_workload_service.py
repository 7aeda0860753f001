"""Tests for service-time processes and request objects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    FEATURE_DIM,
    DeterministicService,
    LognormalCorrelatedService,
    Request,
)


class TestLognormalCorrelatedService:
    def test_sample_mean_matches_target(self, rng):
        svc = LognormalCorrelatedService(mean_work=2.0, sigma=0.6, rho=0.5)
        works, _ = svc.sample_batch(rng, 50_000)
        assert works.mean() == pytest.approx(2.0, rel=0.05)

    def test_expected_work(self):
        svc = LognormalCorrelatedService(mean_work=3.5, sigma=0.8)
        assert svc.expected_work() == pytest.approx(3.5)

    def test_tail_ratio_analytic_vs_empirical(self, rng):
        svc = LognormalCorrelatedService(mean_work=1.0, sigma=1.0, rho=0.5)
        works, _ = svc.sample_batch(rng, 200_000)
        emp = np.quantile(works, 0.99) / works.mean()
        assert emp == pytest.approx(svc.tail_ratio(0.99), rel=0.1)

    def test_higher_sigma_longer_tail(self):
        lo = LognormalCorrelatedService(mean_work=1.0, sigma=0.3)
        hi = LognormalCorrelatedService(mean_work=1.0, sigma=1.1)
        assert hi.tail_ratio() > lo.tail_ratio()

    def test_features_have_expected_shape(self, rng):
        svc = LognormalCorrelatedService(mean_work=1.0, sigma=0.5)
        w, f = svc.sample(rng)
        assert np.asarray(f).shape == (FEATURE_DIM,)
        works, feats = svc.sample_batch(rng, 10)
        assert works.shape == (10,) and feats.shape == (10, FEATURE_DIM)

    def test_rho_controls_feature_predictability(self, rng):
        """R^2 of log-work on the visible feature ~ rho^2."""
        for rho in (0.2, 0.9):
            svc = LognormalCorrelatedService(mean_work=1.0, sigma=0.8, rho=rho)
            works, feats = svc.sample_batch(rng, 20_000)
            r = np.corrcoef(np.log(works), feats[:, 0])[0, 1]
            assert r == pytest.approx(rho, abs=0.05)

    def test_rho_one_is_fully_predictable(self, rng):
        svc = LognormalCorrelatedService(mean_work=1.0, sigma=0.7, rho=1.0)
        works, feats = svc.sample_batch(rng, 5000)
        predicted = np.exp(svc.mu + svc.sigma * feats[:, 0])
        assert np.allclose(works, predicted)

    def test_validation(self):
        with pytest.raises(ValueError):
            LognormalCorrelatedService(mean_work=0.0, sigma=0.5)
        with pytest.raises(ValueError):
            LognormalCorrelatedService(mean_work=1.0, sigma=-1.0)
        with pytest.raises(ValueError):
            LognormalCorrelatedService(mean_work=1.0, sigma=0.5, rho=1.5)

    def test_works_always_positive(self, rng):
        svc = LognormalCorrelatedService(mean_work=1.0, sigma=1.5, rho=0.3)
        works, _ = svc.sample_batch(rng, 10_000)
        assert (works > 0).all()


class TestDeterministicService:
    def test_nearly_constant(self, rng):
        svc = DeterministicService(mean_work=1.0, jitter=0.03)
        works, _ = svc.sample_batch(rng, 10_000)
        assert works.std() / works.mean() < 0.05
        assert np.quantile(works, 0.99) / works.mean() < 1.15

    def test_positive_floor(self, rng):
        svc = DeterministicService(mean_work=1.0, jitter=2.0)
        works, _ = svc.sample_batch(rng, 10_000)
        assert (works > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicService(mean_work=-1.0)


class TestRequest:
    def _mk(self, arrival=1.0, work=2.0, sla=0.5):
        return Request(
            req_id=0, arrival_time=arrival, work=work,
            features=np.zeros(3), sla=sla,
        )

    def test_latency_none_until_finished(self):
        r = self._mk()
        assert r.latency is None and r.service_time is None and r.queue_time is None

    def test_timing_properties(self):
        r = self._mk(arrival=1.0, sla=0.5)
        r.start_time = 1.2
        r.finish_time = 1.6
        assert r.queue_time == pytest.approx(0.2)
        assert r.service_time == pytest.approx(0.4)
        assert r.latency == pytest.approx(0.6)
        assert r.timed_out  # 0.6 > 0.5

    def test_deadline_and_remaining(self):
        r = self._mk(arrival=1.0, sla=0.5)
        assert r.deadline() == pytest.approx(1.5)
        assert r.time_remaining(1.4) == pytest.approx(0.1)
        assert r.time_remaining(1.7) == pytest.approx(-0.2)

    def test_not_timed_out_within_sla(self):
        r = self._mk(arrival=0.0, sla=1.0)
        r.start_time = 0.0
        r.finish_time = 0.9
        assert not r.timed_out


@given(
    mean=st.floats(min_value=1e-3, max_value=100.0),
    sigma=st.floats(min_value=0.0, max_value=1.5),
    rho=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_property_lognormal_samples_finite_positive(mean, sigma, rho):
    svc = LognormalCorrelatedService(mean_work=mean, sigma=sigma, rho=rho)
    rng = np.random.default_rng(0)
    works, feats = svc.sample_batch(rng, 100)
    assert np.isfinite(works).all() and (works > 0).all()
    assert np.isfinite(feats).all()
