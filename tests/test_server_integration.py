"""Tests for the server (dispatch, queueing, contention, telemetry)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.predictors import profile_app
from repro.cpu import Cpu
from repro.server import Server
from repro.server.server import CONTENTION_SIZE_CAP, contention_inflation
from repro.sim import Engine, RngRegistry
from repro.workload import OpenLoopSource, Request, constant_trace
from repro.workload.apps import get_app


def _req(i=0, arrival=0.0, work=1.0, sla=10.0):
    return Request(req_id=i, arrival_time=arrival, work=work, features=np.zeros(3), sla=sla)


class TestContentionInflation:
    def test_idle_system_no_inflation(self):
        assert contention_inflation(0.5, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_grows_with_rho_and_size(self):
        a = contention_inflation(0.5, 0.2, 1.0, 1.0)
        b = contention_inflation(0.5, 0.8, 1.0, 1.0)
        c = contention_inflation(0.5, 0.8, 2.0, 1.0)
        assert a < b < c

    def test_size_cap(self):
        capped = contention_inflation(0.5, 1.0, 100.0, 1.0)
        assert capped == pytest.approx(1.0 + 0.5 * CONTENTION_SIZE_CAP)

    def test_array_input(self):
        out = contention_inflation(0.5, 0.5, np.array([0.5, 1.0, 10.0]), 1.0)
        assert out.shape == (3,)
        assert out[0] < out[1] < out[2]

    def test_scalar_branch_bitwise_equals_array_branch(self):
        # Dispatch takes the pure-Python scalar branch, profile_app the array
        # one; they must agree exactly, across the size cap and for a
        # non-positive mean.
        for mean_work in (-1.0, 0.0, 0.013, 0.37, 1.0, 2.5):
            cap = CONTENTION_SIZE_CAP * mean_work
            works = np.concatenate([
                np.linspace(0.0, 5.0 * abs(mean_work) + 1.0, 97),
                [cap, np.nextafter(cap, -np.inf), np.nextafter(cap, np.inf)],
                [1e-300, 1e300, 7.0],
            ])
            for contention in (0.0, 0.2, 0.35, 1.7):
                for rho in (0.0, 1.0 / 3.0, 0.8, 1.0):
                    arr = contention_inflation(contention, rho, works, mean_work)
                    assert arr.shape == works.shape
                    for w, a in zip(works.tolist(), arr.tolist()):
                        s = contention_inflation(contention, rho, w, mean_work)
                        assert type(s) is float
                        assert s == a, (contention, rho, w, mean_work)
                        assert contention_inflation(contention, rho, np.float64(w), mean_work) == a
        assert contention_inflation(0.5, 0.5, 7, 2.0) == contention_inflation(0.5, 0.5, 7.0, 2.0)

    # SHA-256 of profile_app's (features, works) bytes, recorded before the
    # scalar branch existed: offline profiling must see the same data.
    PROFILE_DIGESTS = {
        ("xapian", 0.0): "6a8dfb9ea5528065b014d03c2fb71f4f5b875ce6266681045539fea04351b240",
        ("xapian", 0.5): "6c8cebd51d3dbd19ef95cf84906ead8e870984e880b25e7ce917ce688ef97bc9",
        ("xapian", 0.9): "227ea80b153a89560ba68e688c370e07efb697c98de8dfcd4b6fa6b7403046cb",
        ("img-dnn", 0.0): "7c3cdd6166fbc702cefa629b01deb338918e781e3bec502a5a2315dffe3f41e9",
        ("img-dnn", 0.5): "6c346f67c7932d5f6b96c749d144aae3e5a9ce667d7a40042aa0bc04997ef3ce",
        ("img-dnn", 0.9): "caa1080a932243f0d2669c89d9f7315fafb13f1e540130315f7a40df6d14e89b",
    }

    @pytest.mark.parametrize("app_name, load", sorted(PROFILE_DIGESTS))
    def test_profile_app_unchanged(self, app_name, load):
        app = get_app(app_name)
        feats, works = profile_app(app, np.random.default_rng(11), n=500, load=load)
        digest = hashlib.sha256(feats.tobytes() + works.tobytes()).hexdigest()
        assert digest == self.PROFILE_DIGESTS[(app_name, load)]
        # ... and equals the raw draws inflated one request at a time.
        raw, _ = app.service.sample_batch(np.random.default_rng(11), 500)
        mean = app.service.expected_work()
        scalar = [
            w * contention_inflation(app.contention, load, w, mean) for w in raw.tolist()
        ]
        assert works.tolist() == scalar


class TestServerDispatch:
    def _mk(self, engine, tiny_app, cores=2):
        cpu = Cpu(engine, cores)
        return Server(engine, cpu, tiny_app, keep_requests=True), cpu

    def test_immediate_dispatch_when_idle(self, engine, tiny_app):
        srv, _ = self._mk(engine, tiny_app)
        srv.submit(_req(0))
        assert srv.busy_workers() == 1
        assert len(srv.queue) == 0

    def test_queues_when_all_busy(self, engine, tiny_app):
        srv, _ = self._mk(engine, tiny_app, cores=1)
        srv.submit(_req(0, work=100.0))
        srv.submit(_req(1))
        assert len(srv.queue) == 1

    def test_queue_drains_fifo_on_completion(self, engine, tiny_app):
        srv, cpu = self._mk(engine, tiny_app, cores=1)
        cpu.set_all_frequencies(1.0)
        for i in range(3):
            srv.submit(_req(i, work=1.0))
        engine.run_until(10.0)
        ids = [r.req_id for r in srv.metrics.requests]
        assert ids == [0, 1, 2]

    def test_worker_validation(self, engine, tiny_app):
        cpu = Cpu(engine, 2)
        with pytest.raises(ValueError):
            Server(engine, cpu, tiny_app, num_workers=3)
        with pytest.raises(ValueError):
            Server(engine, cpu, tiny_app, num_workers=0)

    def test_num_workers_subset_of_cores(self, engine, tiny_app):
        cpu = Cpu(engine, 4)
        srv = Server(engine, cpu, tiny_app, num_workers=2)
        assert srv.num_workers == 2
        for i in range(4):
            srv.submit(_req(i, work=50.0))
        assert srv.busy_workers() == 2
        assert len(srv.queue) == 2

    def test_contention_inflates_effective_work(self, engine, tiny_app):
        srv, _ = self._mk(engine, tiny_app, cores=2)
        srv.submit(_req(0, work=1.0))
        r1 = _req(1, work=1.0)
        srv.submit(r1)  # dispatched at rho = 0.5
        expected = contention_inflation(
            tiny_app.contention, 0.5, 1.0, tiny_app.service.expected_work()
        )
        assert r1.effective_work == pytest.approx(expected)

    def test_begin_times_are_arrival_times(self, engine, tiny_app):
        srv, _ = self._mk(engine, tiny_app)
        engine.run_until(1.0)
        r = _req(0, arrival=0.4)
        srv.submit(r)
        bt = srv.begin_times()
        assert bt[0] == pytest.approx(0.4)
        assert np.isnan(bt[1])

    def test_policy_hooks_invoked_in_order(self, engine, tiny_app):
        srv, cpu = self._mk(engine, tiny_app, cores=1)
        cpu.set_all_frequencies(2.1)
        events = []

        class Hooks:
            def on_arrival(self, r):
                events.append(("arrival", r.req_id))

            def on_start(self, r, core):
                events.append(("start", r.req_id))

            def on_complete(self, r, core):
                events.append(("complete", r.req_id))

        srv.set_policy(Hooks())
        srv.submit(_req(0, work=0.1))
        engine.run_until(1.0)
        assert events == [("arrival", 0), ("start", 0), ("complete", 0)]

    def test_set_policy_none_resets(self, engine, tiny_app):
        srv, _ = self._mk(engine, tiny_app)
        srv.set_policy(None)
        srv.submit(_req(0))  # must not raise


class TestConservation:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_requests_conserved(self, seed):
        """arrived == completed + queued + in-flight at any stop point."""
        engine = Engine()
        rngs = RngRegistry(seed)
        from repro.workload import LognormalCorrelatedService
        from repro.workload.apps import AppSpec

        app = AppSpec(
            name="t", sla=0.05,
            service=LognormalCorrelatedService(mean_work=0.02, sigma=0.8, rho=0.5),
            contention=0.4,
        )
        cpu = Cpu(engine, 2)
        srv = Server(engine, cpu, app)
        src = OpenLoopSource(
            engine, constant_trace(150.0, 2.0), app.service, app.sla,
            srv.submit, rngs.get("arr"),
        )
        src.start()
        engine.run_until(1.0)  # stop mid-trace
        assert srv.metrics.arrived == (
            srv.metrics.completed + len(srv.queue) + srv.busy_workers()
        )
        assert srv.metrics.arrived == src.generated


class TestTelemetry:
    def test_numreq_counts_window_arrivals(self, engine, tiny_app):
        cpu = Cpu(engine, 2)
        srv = Server(engine, cpu, tiny_app)
        for i in range(5):
            srv.submit(_req(i, work=100.0))
        snap = srv.telemetry.snapshot()
        assert snap.num_req == 5
        snap2 = srv.telemetry.snapshot()
        assert snap2.num_req == 0  # window reset

    def test_queue_and_core_fractions(self, engine, tiny_app):
        cpu = Cpu(engine, 1)
        cpu.set_all_frequencies(0.8)
        srv = Server(engine, cpu, tiny_app)
        engine.run_until(1.0)
        # One in service (old), two queued with different ages.
        srv.submit(_req(0, arrival=1.0 - tiny_app.sla * 0.9, work=100.0, sla=tiny_app.sla))
        srv.submit(_req(1, arrival=1.0 - tiny_app.sla * 0.5, work=1.0, sla=tiny_app.sla))
        srv.submit(_req(2, arrival=1.0, work=1.0, sla=tiny_app.sla))
        snap = srv.telemetry.snapshot()
        assert snap.queue_len == 2
        # Request 1 has 50% of SLA remaining -> counted under 75% only;
        # request 2 has ~100% remaining -> not counted.
        assert snap.queue_frac == (0, 0, 1)
        # In-service request has 10% remaining -> under 25/50/75.
        assert snap.core_frac == (1, 1, 1)
        assert snap.utilization == pytest.approx(1.0)

    def test_state_vector_shape_and_values(self, engine, tiny_app):
        cpu = Cpu(engine, 2)
        srv = Server(engine, cpu, tiny_app)
        srv.submit(_req(0, work=100.0))
        vec = srv.telemetry.snapshot().state_vector()
        assert vec.shape == (8,)
        assert vec[0] == 1.0  # NumReq

    def test_timeout_counted_in_window(self, engine, tiny_app):
        cpu = Cpu(engine, 1)
        cpu.set_all_frequencies(2.1)
        srv = Server(engine, cpu, tiny_app)
        # Work that takes far longer than the SLA.
        srv.submit(_req(0, work=tiny_app.sla * 5.0 * 2.1, sla=tiny_app.sla))
        engine.run_until(tiny_app.sla * 6)
        snap = srv.telemetry.snapshot()
        assert snap.timeouts == 1 and snap.completed == 1
