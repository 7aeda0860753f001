"""Tests for queue, metrics recorder and worker execution."""

import math

import numpy as np
import pytest

from repro.cpu import DEFAULT_POWER_MODEL, DEFAULT_TABLE, Core
from repro.server import LatencyRecorder, RequestQueue, Worker
from repro.workload import Request


def _req(i=0, arrival=0.0, work=1.0, sla=10.0):
    return Request(req_id=i, arrival_time=arrival, work=work, features=np.zeros(3), sla=sla)


class TestRequestQueue:
    def test_fifo_order(self):
        q = RequestQueue()
        for i in range(5):
            q.push(_req(i))
        assert [q.pop().req_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_does_not_consume(self):
        q = RequestQueue()
        q.push(_req(7))
        assert q.peek().req_id == 7
        assert len(q) == 1

    def test_empty_behaviour(self):
        q = RequestQueue()
        assert q.peek() is None
        assert not q
        with pytest.raises(IndexError):
            q.pop()

    def test_peak_length_and_total(self):
        q = RequestQueue()
        for i in range(4):
            q.push(_req(i))
        q.pop()
        q.push(_req(9))
        assert q.peak_length == 4
        assert q.total_enqueued == 5

    def test_count_remaining_below(self):
        q = RequestQueue()
        # deadlines at arrival + 10
        q.push(_req(0, arrival=0.0))   # remaining at t=8: 2
        q.push(_req(1, arrival=5.0))   # remaining: 7
        q.push(_req(2, arrival=-5.0))  # remaining: -3 (overdue)
        assert q.count_remaining_below(now=8.0, threshold=2.5) == 2
        assert q.count_remaining_below(now=8.0, threshold=0.0) == 1
        assert q.count_remaining_below(now=8.0, threshold=100.0) == 3

    def test_iteration_head_to_tail(self):
        q = RequestQueue()
        for i in range(3):
            q.push(_req(i))
        assert [r.req_id for r in q] == [0, 1, 2]

    def test_oldest_waiting(self):
        q = RequestQueue()
        assert q.oldest_waiting(5.0) == 0.0
        q.push(_req(0, arrival=2.0))
        assert q.oldest_waiting(5.0) == pytest.approx(3.0)


class TestLatencyRecorder:
    def _completed(self, arrival, finish, sla=1.0):
        r = _req(arrival=arrival, sla=sla)
        r.start_time = arrival
        r.finish_time = finish
        return r

    def test_counts_and_means(self):
        rec = LatencyRecorder(sla=1.0)
        for lat in (0.2, 0.4, 1.5):
            rec.on_arrival(_req())
            rec.on_complete(self._completed(0.0, lat))
        assert rec.completed == 3
        assert rec.timeouts == 1
        assert rec.mean_latency() == pytest.approx(0.7)

    def test_in_flight(self):
        rec = LatencyRecorder(sla=1.0)
        rec.on_arrival(_req())
        rec.on_arrival(_req())
        rec.on_complete(self._completed(0.0, 0.5))
        assert rec.in_flight == 1

    def test_summarize_metrics(self):
        rec = LatencyRecorder(sla=1.0)
        for lat in np.linspace(0.1, 2.0, 100):
            rec.on_complete(self._completed(0.0, lat))
        m = rec.summarize(duration=10.0)
        assert m.completed == 100
        assert m.tail_latency == pytest.approx(np.quantile(np.linspace(0.1, 2.0, 100), 0.99))
        assert m.timeout_rate == pytest.approx(sum(np.linspace(0.1, 2.0, 100) > 1.0) / 100)
        assert m.throughput == pytest.approx(10.0)
        assert not m.sla_met

    def test_mean_tail_ratio(self):
        rec = LatencyRecorder(sla=10.0)
        for lat in (1.0, 1.0, 1.0, 2.0):
            rec.on_complete(self._completed(0.0, lat, sla=10.0))
        m = rec.summarize(1.0)
        assert m.mean_tail_ratio == pytest.approx(m.mean_latency / m.tail_latency)
        assert m.sla_met

    def test_keep_requests_flag(self):
        rec = LatencyRecorder(sla=1.0, keep_requests=True)
        rec.on_complete(self._completed(0.0, 0.5))
        assert len(rec.requests) == 1

    def test_samples_are_packed_doubles(self):
        # Fleet code slices the per-request samples from a seen-count,
        # tests the slice's truthiness and extends pooled recorders.
        rec = LatencyRecorder(sla=1.0)
        assert not rec.latencies
        for lat in (0.2, 0.4, 1.5):
            rec.on_complete(self._completed(0.0, lat))
        assert rec.latencies.typecode == "d"
        fresh = rec.latencies[1:]
        assert fresh and list(fresh) == [0.4, 1.5]
        assert not rec.latencies[3:]
        pooled = LatencyRecorder(sla=1.0)
        pooled.latencies.extend(rec.latencies)
        pooled.latencies.extend([2.0])
        assert list(pooled.latencies) == [0.2, 0.4, 1.5, 2.0]
        assert rec.tail_latency() == float(np.quantile([0.2, 0.4, 1.5], 0.99))

    def test_reset(self):
        rec = LatencyRecorder(sla=1.0)
        rec.on_arrival(_req())
        rec.on_complete(self._completed(0.0, 0.5))
        rec.reset()
        assert rec.completed == 0 and rec.arrived == 0 and list(rec.latencies) == []

    def test_empty_summarize_is_nan_not_perfect(self):
        # A zero-completion run has no latency evidence: the old 0.0
        # quantiles made it look like the best-possible run (sla_met True).
        m = LatencyRecorder(sla=1.0).summarize(1.0)
        assert m.completed == 0
        assert math.isnan(m.tail_latency) and math.isnan(m.mean_latency)
        assert math.isnan(m.p50_latency) and math.isnan(m.p95_latency)
        assert math.isnan(m.timeout_rate)
        assert not m.sla_met

    def test_empty_recorder_queries_are_nan(self):
        rec = LatencyRecorder(sla=1.0)
        assert math.isnan(rec.tail_latency()) and math.isnan(rec.mean_latency())


class TestWorker:
    def _setup(self, engine):
        core = Core(engine, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        done = []
        worker = Worker(engine, core, lambda w, r: done.append(r))
        return core, worker, done

    def test_executes_work_at_frequency(self, engine):
        core, worker, done = self._setup(engine)
        core.set_frequency(2.0)
        req = _req(work=4.0)
        worker.start(req, effective_work=4.0)
        engine.run_until(2.0 - 1e-9)
        assert not done
        engine.run_until(2.0)
        assert done == [req]
        assert req.finish_time == pytest.approx(2.0)

    def test_mid_request_frequency_change_reschedules_exactly(self, engine):
        core, worker, done = self._setup(engine)
        core.set_frequency(2.0)
        worker.start(_req(work=4.0), effective_work=4.0)
        engine.run_until(1.0)  # 2.0 work done, 2.0 left
        core.set_frequency(1.0)  # remaining takes 2.0s
        engine.run_until(3.0 - 1e-9)
        assert not done
        engine.run_until(3.0)
        assert len(done) == 1

    def test_remaining_work_tracks_progress(self, engine):
        core, worker, _ = self._setup(engine)
        core.set_frequency(1.0)
        worker.start(_req(work=3.0), effective_work=3.0)
        engine.run_until(1.0)
        assert worker.remaining_work() == pytest.approx(2.0)

    def test_busy_flag_and_core_state(self, engine):
        core, worker, _ = self._setup(engine)
        core.set_frequency(1.0)
        worker.start(_req(work=1.0), effective_work=1.0)
        assert worker.busy and core.busy
        engine.run_until(1.5)
        assert not worker.busy and not core.busy

    def test_start_while_busy_raises(self, engine):
        core, worker, _ = self._setup(engine)
        worker.start(_req(0, work=10.0), effective_work=10.0)
        with pytest.raises(RuntimeError):
            worker.start(_req(1, work=1.0), effective_work=1.0)

    def test_inflate_work_extends_completion(self, engine):
        core, worker, done = self._setup(engine)
        core.set_frequency(1.0)
        worker.start(_req(work=1.0), effective_work=1.0)
        worker.inflate_work(1.0)
        engine.run_until(1.5)
        assert not done
        engine.run_until(2.0)
        assert len(done) == 1

    def test_inflate_work_validation(self, engine):
        core, worker, _ = self._setup(engine)
        with pytest.raises(ValueError):
            worker.inflate_work(-1.0)
        worker.inflate_work(5.0)  # idle: no-op
        assert worker.remaining_work() == 0.0

    def test_completed_count(self, engine):
        core, worker, _ = self._setup(engine)
        core.set_frequency(1.0)
        for i in range(3):
            worker.start(_req(i, work=0.5), effective_work=0.5)
            engine.run_until(engine.now + 1.0)
        assert worker.completed_count == 3
