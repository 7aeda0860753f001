"""Tests for the open-loop arrival process."""

import numpy as np
import pytest

from repro.sim import Engine, RngRegistry
from repro.workload import (
    LognormalCorrelatedService,
    OpenLoopSource,
    WorkloadTrace,
    constant_trace,
)


def _mk_source(engine, trace, rng, sink):
    svc = LognormalCorrelatedService(mean_work=1.0, sigma=0.3)
    return OpenLoopSource(engine, trace, svc, sla=1.0, sink=sink, rng=rng)


class TestOpenLoopSource:
    def test_poisson_count_matches_rate(self, engine, rngs):
        got = []
        src = _mk_source(engine, constant_trace(100.0, 50.0), rngs.get("a"), got.append)
        src.start()
        engine.run_until(51.0)
        # 5000 expected, sd ~ 70
        assert 4600 <= len(got) <= 5400
        assert src.done

    def test_arrival_times_within_trace(self, engine, rngs):
        got = []
        src = _mk_source(engine, constant_trace(50.0, 10.0), rngs.get("a"), got.append)
        src.start()
        engine.run_until(20.0)
        assert all(0.0 <= r.arrival_time <= 10.0 for r in got)

    def test_request_ids_sequential(self, engine, rngs):
        got = []
        src = _mk_source(engine, constant_trace(50.0, 5.0), rngs.get("a"), got.append)
        src.start()
        engine.run_until(6.0)
        assert [r.req_id for r in got] == list(range(len(got)))

    def test_zero_rate_segment_produces_no_arrivals(self, engine, rngs):
        trace = WorkloadTrace(np.array([0.0, 1.0, 2.0, 3.0]), np.array([100.0, 0.0, 100.0]))
        got = []
        src = _mk_source(engine, trace, rngs.get("a"), got.append)
        src.start()
        engine.run_until(4.0)
        in_gap = [r for r in got if 1.0 < r.arrival_time <= 2.0]
        assert in_gap == []
        assert any(r.arrival_time > 2.0 for r in got)

    def test_piecewise_rates_respected(self, engine, rngs):
        trace = WorkloadTrace(np.array([0.0, 50.0, 100.0]), np.array([20.0, 200.0]))
        got = []
        src = _mk_source(engine, trace, rngs.get("a"), got.append)
        src.start()
        engine.run_until(101.0)
        lo = sum(1 for r in got if r.arrival_time < 50.0)
        hi = len(got) - lo
        assert hi / max(lo, 1) == pytest.approx(10.0, rel=0.3)

    def test_on_done_callback(self, engine, rngs):
        flag = []
        src = _mk_source(engine, constant_trace(10.0, 2.0), rngs.get("a"), lambda r: None)
        src.on_done(lambda: flag.append(True))
        src.start()
        engine.run_until(3.0)
        assert flag == [True]

    def test_on_done_after_completion_fires_immediately(self, engine, rngs):
        src = _mk_source(engine, constant_trace(10.0, 1.0), rngs.get("a"), lambda r: None)
        src.start()
        engine.run_until(2.0)
        flag = []
        src.on_done(lambda: flag.append(True))
        assert flag == [True]

    def test_requests_carry_sla_and_work(self, engine, rngs):
        got = []
        src = _mk_source(engine, constant_trace(20.0, 2.0), rngs.get("a"), got.append)
        src.start()
        engine.run_until(3.0)
        assert all(r.sla == 1.0 and r.work > 0 for r in got)

    def test_deterministic_given_stream(self):
        def run():
            eng = Engine()
            rngs = RngRegistry(5)
            got = []
            src = _mk_source(eng, constant_trace(30.0, 5.0), rngs.get("a"), got.append)
            src.start()
            eng.run_until(6.0)
            return [r.arrival_time for r in got]

        assert run() == run()


# ----------------------------------------------------------- segment walk

def _reference_next(trace, rng, after):
    """The arrival process with a binary search per draw (the specification
    the source's forward segment walk must reproduce bit for bit)."""
    edges, rates = trace.edges, trace.rates
    t = after
    end = float(edges[-1])
    while t < end:
        idx = max(int(np.searchsorted(edges, t, side="right")) - 1, 0)
        rate = float(rates[idx])
        seg_end = float(edges[idx + 1])
        if rate <= 0.0:
            t = seg_end
            continue
        candidate = t + rng.exponential(1.0 / rate)
        if candidate <= seg_end:
            return candidate
        t = seg_end
    return None


def _reference_times(trace, svc, rng, start):
    """Arrival times the source must produce when started at ``start``:
    each arrival samples its service draw, then the next gap, from one
    stream."""
    times = []
    t = _reference_next(trace, rng, max(start, float(trace.edges[0])))
    while t is not None:
        times.append(t)
        svc.sample(rng)
        t = _reference_next(trace, rng, t)
    return times


def _random_trace(gen):
    n = int(gen.integers(1, 12))
    widths = gen.choice([0.001, 0.05, 0.3, 1.0, 2.5], size=n)
    edges = np.concatenate([[gen.choice([0.0, 0.4, 3.0])], widths]).cumsum()
    rates = gen.choice([0.0, 0.5, 3.0, 40.0, 400.0], size=n)
    return WorkloadTrace(edges, rates)


def _walk(trace, seed, start=0.0):
    """Run the real source to exhaustion; its arrival times and the
    stream's final state, next to the reference's."""
    svc = LognormalCorrelatedService(mean_work=1.0, sigma=0.3)
    engine = Engine()
    engine.run_until(start)
    got = []
    rng = np.random.default_rng(seed)
    src = OpenLoopSource(engine, trace, svc, sla=1.0, sink=got.append, rng=rng)
    src.start()
    engine.run_until(float(trace.edges[-1]) + 1.0)
    ref_rng = np.random.default_rng(seed)
    ref = _reference_times(trace, svc, ref_rng, start)
    return (
        [r.arrival_time for r in got], rng.bit_generator.state,
        ref, ref_rng.bit_generator.state,
    )


class TestSegmentWalk:
    @pytest.mark.parametrize("case", range(40))
    def test_matches_searchsorted_reference(self, case):
        gen = np.random.default_rng(1000 + case)
        trace = _random_trace(gen)
        start = 0.0
        if case % 3 == 0:
            # Start mid-trace: the clock is already inside a later segment.
            start = float(gen.uniform(trace.edges[0], trace.edges[-1]))
        times, state, ref, ref_state = _walk(trace, case, start)
        assert times == ref
        assert state == ref_state

    def test_candidate_exactly_on_edge(self):
        # The first gap of a fresh stream, placed as the first edge: the
        # candidate lands exactly on it (``<=`` keeps it in the segment) and
        # the next draw must start from the following segment.
        for seed in range(5):
            gap = np.random.default_rng(seed).exponential(1.0 / 10.0)
            trace = WorkloadTrace(
                np.array([0.0, gap, gap + 0.5, gap + 0.6, gap + 2.0]),
                np.array([10.0, 0.0, 20.0, 5.0]),
            )
            times, state, ref, ref_state = _walk(trace, seed)
            assert times[0] == gap
            assert times == ref
            assert state == ref_state

    def test_start_on_an_edge_and_after_the_trace(self):
        trace = WorkloadTrace(np.array([1.0, 2.0, 3.0, 4.0]), np.array([30.0, 0.0, 30.0]))
        for start in (2.0, 3.0, 3.5):
            times, state, ref, ref_state = _walk(trace, 7, start)
            assert times == ref and state == ref_state
            assert all(t > start for t in times)
        times, _, ref, _ = _walk(trace, 7, 4.0)
        assert times == ref == []
