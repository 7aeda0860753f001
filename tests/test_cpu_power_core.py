"""Tests for the power model, single-core energy accounting and the DVFS
write contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import DEFAULT_POWER_MODEL, DEFAULT_TABLE, Core, Cpu, PowerModel
from repro.server import Worker
from repro.sim import Engine
from repro.workload import Request


class TestPowerModel:
    def test_power_increases_with_frequency(self):
        pm = DEFAULT_POWER_MODEL
        freqs = np.linspace(0.8, 3.0, 23)
        powers = [pm.core_power(f, busy=True) for f in freqs]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_busy_exceeds_idle_at_same_frequency(self):
        pm = DEFAULT_POWER_MODEL
        for f in (0.8, 1.5, 3.0):
            assert pm.core_power(f, True) > pm.core_power(f, False)

    def test_energy_per_cycle_decreases_with_frequency(self):
        """The DVFS premise: joules per unit work shrink at lower f."""
        pm = DEFAULT_POWER_MODEL
        per_cycle = [pm.core_power(f, True) / f for f in (0.8, 1.5, 2.1, 3.0)]
        assert all(b > a for a, b in zip(per_cycle, per_cycle[1:]))

    def test_array_matches_scalar(self):
        pm = DEFAULT_POWER_MODEL
        freqs = np.array([0.8, 1.5, 3.0])
        busy = np.array([True, False, True])
        arr = pm.core_power_array(freqs, busy)
        for f, b, p in zip(freqs, busy, arr):
            assert p == pytest.approx(pm.core_power(f, bool(b)))

    def test_socket_power_adds_package_constant(self):
        pm = DEFAULT_POWER_MODEL
        freqs = np.full(4, 2.1)
        busy = np.ones(4, dtype=bool)
        total = pm.socket_power(freqs, busy)
        assert total == pytest.approx(
            pm.package_watts + 4 * pm.core_power(2.1, True)
        )

    def test_voltage_affine(self):
        pm = PowerModel(v0=0.5, v1=0.2)
        assert pm.voltage(2.0) == pytest.approx(0.9)

    def test_dynamic_range_spans_table(self):
        lo, hi = DEFAULT_POWER_MODEL.dynamic_range(DEFAULT_TABLE)
        assert hi > 3 * lo  # meaningful DVFS headroom


class TestCoreEnergy:
    def test_energy_is_exact_power_times_time(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        p_idle = DEFAULT_POWER_MODEL.core_power(DEFAULT_TABLE.fmax, False)
        eng.run_until(10.0)
        assert core.energy_joules() == pytest.approx(10.0 * p_idle)

    def test_energy_accounts_for_state_changes(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        pm = DEFAULT_POWER_MODEL
        eng.run_until(1.0)
        core.set_busy(True)
        eng.run_until(3.0)
        core.set_frequency(1.0)
        eng.run_until(6.0)
        expected = (
            1.0 * pm.core_power(2.1, False)
            + 2.0 * pm.core_power(2.1, True)
            + 3.0 * pm.core_power(1.0, True)
        )
        assert core.energy_joules() == pytest.approx(expected)

    def test_busy_seconds_tracks_busy_time_only(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        eng.run_until(2.0)
        core.set_busy(True)
        eng.run_until(5.0)
        core.set_busy(False)
        eng.run_until(7.0)
        assert core.busy_seconds() == pytest.approx(3.0)

    def test_set_frequency_quantizes(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        applied = core.set_frequency(1.23)
        assert applied == pytest.approx(1.3)
        assert core.frequency == pytest.approx(1.3)

    def test_noop_frequency_write_costs_no_switch(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        core.set_frequency(1.5)
        n = core.switch_count
        core.set_frequency(1.5)
        core.set_frequency(1.45)  # quantizes to 1.5 -> still no-op
        assert core.switch_count == n

    def test_work_rate_equals_frequency(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        core.set_frequency(1.5)
        assert core.work_rate() == pytest.approx(1.5)
        assert core.time_for_work(3.0) == pytest.approx(2.0)

    def test_set_busy_idempotent(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        core.set_busy(True)
        core.set_busy(True)
        eng.run_until(1.0)
        assert core.busy_seconds() == pytest.approx(1.0)


class TestWriteContract:
    """One ``Core.set_frequency`` call does the whole DVFS write: energy,
    watts, the socket's frequency row and the pinned worker's retime."""

    def _busy_worker(self, work=3.0):
        eng = Engine()
        cpu = Cpu(eng, 2)
        done = []
        worker = Worker(eng, cpu[0], lambda w, r: done.append(r))
        worker.start(_request(work), work)
        return eng, cpu, worker, done

    def test_busy_worker_completion_moves_to_remaining_over_new(self):
        eng, cpu, worker, done = self._busy_worker(work=3.0)
        old_ev = worker._completion_ev
        eng.run_until(0.5)
        cpu[0].set_frequency(1.0)
        remaining = 3.0 - 0.5 * DEFAULT_TABLE.fmax
        assert worker._remaining_work == remaining
        assert worker._completion_ev is not old_ev
        assert old_ev[3] is None  # the stale completion was cancelled
        assert worker._completion_ev[0] == 0.5 + remaining / 1.0
        assert eng.pending_events == 1
        eng.run_until(worker._completion_ev[0])
        assert len(done) == 1 and done[0].finish_time == 0.5 + remaining / 1.0

    def test_idle_worker_is_not_retimed(self):
        eng = Engine()
        cpu = Cpu(eng, 1)
        worker = Worker(eng, cpu[0], lambda w, r: None)
        cpu[0].set_frequency(1.0)
        assert worker._completion_ev is None
        assert eng.pending_events == 0
        # A request finished earlier leaves nothing behind to move either.
        worker.start(_request(0.21), 0.21)
        eng.run_until(1.0)
        assert worker.current is None
        cpu[0].set_frequency(2.1)
        assert worker._completion_ev is None
        assert eng.pending_events == 0

    def test_frequency_row_follows_writes(self):
        eng = Engine()
        cpu = Cpu(eng, 3)
        cpu[1].set_frequency(1.2)
        assert cpu._freqs.tolist() == [2.1, 1.2, 2.1]
        assert cpu.frequencies().tolist() == [c.frequency for c in cpu.cores]

    def test_frequency_row_follows_writes_into_fleet_batch(self):
        from repro.cluster.batch import FleetBatch
        from repro.cluster.node import ClusterNode
        from repro.workload.apps import get_app

        eng = Engine()
        nodes = [ClusterNode(eng, i, get_app("xapian"), 2, seed=5) for i in range(2)]
        batch = FleetBatch(nodes)
        nodes[1].cpu[0].set_frequency(0.9)
        assert nodes[1].cpu._freqs.base is batch.freqs
        assert batch.freqs.tolist() == [[2.1, 2.1], [0.9, 2.1]]

    def test_noop_write_changes_nothing(self):
        eng, cpu, worker, _ = self._busy_worker()
        core = cpu[0]
        eng.run_until(0.25)
        ev = worker._completion_ev
        state = (core.switch_count, core._last_t, core._watts, worker._progress_t,
                 worker._remaining_work, cpu._freqs.tolist(), eng.pending_events)
        assert core.set_frequency(2.1) == 2.1
        assert core.set_frequency(2.05) == 2.1  # quantises to the same level
        assert worker._completion_ev is ev and ev[3] is not None
        assert state == (core.switch_count, core._last_t, core._watts,
                         worker._progress_t, worker._remaining_work,
                         cpu._freqs.tolist(), eng.pending_events)

    def test_cores_of_one_socket_share_one_watts_table(self):
        cpu = Cpu(Engine(), 4)
        assert len({id(c._watts_of) for c in cpu.cores}) == 1
        cpu[0].set_frequency(1.0)
        assert cpu[3]._watts_of[1.0] == (
            DEFAULT_POWER_MODEL.core_power(1.0, False),
            DEFAULT_POWER_MODEL.core_power(1.0, True),
        )

    def test_one_worker_per_core(self):
        eng = Engine()
        core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        Worker(eng, core, lambda w, r: None)
        with pytest.raises(ValueError, match="pinned worker"):
            Worker(eng, core, lambda w, r: None)


def _request(work):
    return Request(
        req_id=0, arrival_time=0.0, work=work, features=np.zeros(3), sla=1.0
    )


@given(
    segments=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=5.0),  # duration
            st.sampled_from([0.8, 1.2, 1.7, 2.1, 3.0]),  # frequency
            st.booleans(),  # busy
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_energy_equals_piecewise_integral(segments):
    eng = Engine()
    core = Core(eng, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
    pm = DEFAULT_POWER_MODEL
    expected = 0.0
    t = 0.0
    for dur, freq, busy in segments:
        core.set_frequency(freq)
        core.set_busy(busy)
        t += dur
        eng.run_until(t)
        expected += pm.core_power(core.frequency, busy) * dur
    assert core.energy_joules() == pytest.approx(expected, rel=1e-9)
