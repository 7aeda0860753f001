"""Bitwise-equivalence tests for the vectorised 1 ms hot path.

Every optimisation here — the vector quantiser, the batched frequency
writes, the fused controller tick, the reused begin-times buffer, the
preallocated replay batch — must be *exactly* equal to its reference
formulation, not approximately: the parallel grid's determinism guarantee
rests on it.
"""

import numpy as np
import pytest

from repro.core.thread_controller import ThreadController
from repro.cpu import Cpu
from repro.cpu.dvfs import DEFAULT_TABLE, FrequencyTable
from repro.experiments.runner import build_context
from repro.faults import ActuatorFaults, FaultPlan
from repro.rl.replay import ReplayBuffer
from repro.sim import Engine
from repro.workload.trace import constant_trace

from .conftest import live_events


class TestQuantizeInto:
    def test_dense_sweep_matches_scalar_quantize(self):
        freqs = np.linspace(-0.5, 3.6, 4111)
        out = np.empty_like(freqs)
        DEFAULT_TABLE.quantize_into(freqs.copy(), out)
        expected = np.array([DEFAULT_TABLE.quantize(float(f)) for f in freqs])
        assert np.array_equal(out, expected)

    def test_exact_level_boundaries(self):
        lv = np.array(DEFAULT_TABLE.levels)
        out = np.empty_like(lv)
        DEFAULT_TABLE.quantize_into(lv.copy(), out)
        assert np.array_equal(out, lv)

    def test_quantize_array_allocates_fresh(self):
        f = np.array([1.234, 2.9])
        out = DEFAULT_TABLE.quantize_array(f)
        assert out is not f
        assert np.array_equal(out, [1.3, 2.1])  # 2.9 > fmax clamps to fmax

    def test_custom_table_matches_scalar(self):
        table = FrequencyTable(fmin=0.5, fmax=1.7, step=0.3, turbo=2.5)
        freqs = np.linspace(0.0, 3.0, 997)
        out = np.empty_like(freqs)
        table.quantize_into(freqs.copy(), out)
        expected = np.array([table.quantize(float(f)) for f in freqs])
        assert np.array_equal(out, expected)


class TestSetFrequenciesBatched:
    def _applied_reference(self, freqs):
        return np.array([DEFAULT_TABLE.quantize(float(f)) for f in freqs])

    @pytest.mark.parametrize("n", [1, 4, 16, 17, 40])
    def test_scalar_and_vector_paths_agree(self, n):
        # The numpy pass against the scalar-quantize reference, for small
        # and large sockets.
        rng = np.random.default_rng(5)
        cpu = Cpu(Engine(), n)
        for _ in range(5):
            req = rng.uniform(0.0, 3.4, size=n)
            applied = cpu.set_frequencies(req.copy())
            assert np.array_equal(applied, self._applied_reference(req))
            assert np.array_equal(cpu.frequencies(), applied)

    def test_count_limits_to_prefix(self):
        cpu = Cpu(Engine(), 6)
        before = cpu.frequencies()
        applied = cpu.set_frequencies([0.9, 1.4], count=2)
        assert np.array_equal(applied, [0.9, 1.4])
        after = cpu.frequencies()
        assert np.array_equal(after[:2], [0.9, 1.4])
        assert np.array_equal(after[2:], before[2:])

    def test_list_and_ndarray_inputs_agree(self):
        vals = [0.85, 2.44, 1.0, 3.3]
        c1 = Cpu(Engine(), 4)
        c2 = Cpu(Engine(), 4)
        a1 = np.array(c1.set_frequencies(vals))
        a2 = np.array(c2.set_frequencies(np.array(vals)))
        assert np.array_equal(a1, a2)

    def test_length_validation(self):
        cpu = Cpu(Engine(), 4)
        with pytest.raises(ValueError, match="expected 4"):
            cpu.set_frequencies([1.0, 2.0])
        with pytest.raises(ValueError, match="count must be"):
            cpu.set_frequencies([1.0], count=3)
        with pytest.raises(ValueError, match="count must be"):
            cpu.set_frequencies([1.0], count=-1)

    def test_wrapped_core_gets_per_call_raw_writes(self):
        # An armed actuator injector sees one raw (unquantised) write per
        # core per call, even though no level changes after the first:
        # with every write delayed, each call schedules four raw writes.
        engine = Engine()
        cpu = Cpu(engine, 4)
        plan = FaultPlan(dvfs_delay_prob=1.0, dvfs_delay=0.5)
        inj = ActuatorFaults(engine, plan, np.random.default_rng(0), cpu)
        inj.arm()
        for step in range(3):
            engine.run_until(0.1 * step)
            cpu.set_frequencies([1.05, 1.05, 1.05, 1.05])
        raw = [args for *_, args in live_events(engine)]
        assert raw == [(1.05,)] * 12
        assert inj.counts == {"actuator.delay": 12}
        engine.run_until(1.0)
        assert np.array_equal(cpu.frequencies(), [DEFAULT_TABLE.quantize(1.05)] * 4)

    def test_mirror_tracks_direct_core_writes(self):
        cpu = Cpu(Engine(), 3)
        cpu.cores[2].set_frequency(0.8)
        assert cpu.frequencies()[2] == 0.8


class TestControllerScalarVsVector:
    """The fused per-core tick against Algorithm 1 applied to the sampled
    begin times, with and without the per-tick samplers attached."""

    def _run(self, sampled, num_cores=4, duration=3.0, ceilings=()):
        from repro.parallel.grid import EXTRAS_COLLECTORS
        from repro.workload.apps import get_app

        app = get_app("xapian")
        load = 140.0 * num_cores / 4
        ctx = build_context(app, constant_trace(load, duration), num_cores, 9)
        tc = ThreadController(ctx.engine, ctx.server)
        tc.set_params(0.45, 0.7)
        readers = [
            EXTRAS_COLLECTORS[name](ctx) for name in ("freq_samples", "begin_samples")
        ] if sampled else []
        for t, level in ceilings:
            ctx.engine.schedule_at(t, ctx.cpu.set_ceiling, level)
        writes = []
        for i, core in enumerate(ctx.cpu.cores):
            inner = core.set_frequency

            def logged(freq, quantize=True, i=i, inner=inner):
                writes.append((ctx.engine.now, i, freq))
                inner(freq, quantize=quantize)

            core.set_frequency = logged
        tc.start()
        ctx.source.start()
        ctx.engine.run_until(duration)
        return ctx, tc, writes, [read(None) for read in readers]

    @pytest.mark.parametrize("num_cores", [4, 17, 40])
    def test_recording_a_trace_changes_no_write(self, num_cores, ceilings=()):
        ctx_p, tc_p, writes_p, _ = self._run(False, num_cores, ceilings=ceilings)
        ctx_r, tc_r, writes_r, samples = self._run(True, num_cores, ceilings=ceilings)
        (times, freqs), (_, begins) = samples
        assert writes_p and writes_r == writes_p
        assert tc_p.tick_count == tc_r.tick_count == len(times)
        # The two samplers add one event each per tick and nothing else.
        assert ctx_r.engine.processed_events == ctx_p.engine.processed_events + 2 * len(times)
        assert ctx_p.cpu.energy_joules() == ctx_r.cpu.energy_joules()
        assert [w.completed_count for w in ctx_p.server.workers] == [
            w.completed_count for w in ctx_r.server.workers
        ]
        # Each sample holds the levels written for the scores of the
        # sampled begin times (the reference mapping applies while no
        # ceiling binds).
        assert freqs.shape == begins.shape == (len(times), num_cores)
        if not ceilings:
            sla = ctx_r.server.sla
            for k in range(0, len(times), 97):
                scores = (times[k] - begins[k]) / sla * 0.7 + 0.45
                scores[np.isnan(begins[k])] = 0.45
                assert [tc_r.frequency_for_score(s) for s in scores] == freqs[k].tolist()

    def test_recording_changes_no_write_under_moving_ceiling(self):
        # The ceiling crosses the idle cores' level (1.4 GHz at BaseFreq
        # 0.45) and the busy levels.
        self.test_recording_a_trace_changes_no_write(
            4, ceilings=((0.5, 1.0), (1.0, 3.0), (1.5, 1.2), (2.0, 0.8), (2.5, 2.1))
        )


class TestBeginTimesBuffer:
    def test_reused_ndarray_with_nan_for_idle(self):
        from repro.workload.apps import get_app

        app = get_app("xapian")
        ctx = build_context(app, constant_trace(100.0, 2.0), 4, 3)
        server = ctx.server
        bt0 = server.begin_times()
        assert isinstance(bt0, np.ndarray)
        assert np.all(np.isnan(bt0))  # nothing dispatched yet
        ctx.source.start()
        ctx.engine.run_until(2.0)
        bt1 = server.begin_times()
        assert bt1 is bt0  # documented buffer reuse
        busy = [w.busy for w in server.workers]
        assert np.array_equal(~np.isnan(bt1), np.array(busy))


class TestReplayBufferBatchReuse:
    def _filled(self, n=64):
        buf = ReplayBuffer(capacity=128, state_dim=3, action_dim=2)
        rng = np.random.default_rng(0)
        for i in range(n):
            buf.push(
                rng.normal(size=3), rng.normal(size=2), float(i),
                rng.normal(size=3), i % 7 == 0,
            )
        return buf

    def test_same_batch_size_reuses_buffers(self):
        buf = self._filled()
        rng = np.random.default_rng(1)
        s1, a1, r1, ns1, d1 = buf.sample(16, rng)
        s2, a2, r2, ns2, d2 = buf.sample(16, rng)
        assert s1 is s2 and a1 is a2 and r1 is r2 and ns1 is ns2 and d1 is d2

    def test_distinct_batch_sizes_get_distinct_buffers(self):
        buf = self._filled()
        rng = np.random.default_rng(1)
        s16 = buf.sample(16, rng)[0]
        s8 = buf.sample(8, rng)[0]
        assert s16 is not s8
        assert s16.shape == (16, 3) and s8.shape == (8, 3)

    def test_sample_contents_come_from_store(self):
        buf = self._filled(32)
        rng = np.random.default_rng(2)
        states, actions, rewards, next_states, dones = buf.sample(12, rng)
        assert states.shape == (12, 3)
        assert dones.dtype == np.bool_
        # Every sampled reward must be one of the stored integer rewards.
        assert set(rewards.tolist()) <= set(float(i) for i in range(32))
