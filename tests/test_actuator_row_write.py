"""The actuator injector's row write against per-core faulted writes.

:meth:`ActuatorFaults.write_row` (reached through
:meth:`Cpu.set_frequencies`) must be indistinguishable from writing the
same row one core at a time through the per-core ``set_frequency``
closures: same applied levels, same core levels, same fault counts, same
delayed writes pending on the engine and the same RNG state afterwards.
Twin sockets run both ways through random rows, ceiling moves and offline
windows.
"""

import numpy as np
import pytest

from repro.cpu import Cpu
from repro.faults import ActuatorFaults, FaultEvent, FaultPlan
from repro.sim import Engine

from .conftest import live_events

#: (dvfs_fail_prob, dvfs_delay_prob) pairs, 0 and 1 included.
PROBS = [
    (0.0, 0.0), (0.3, 0.0), (1.0, 0.0), (0.0, 0.4), (0.0, 1.0),
    (0.3, 0.4), (1.0, 1.0), (0.5, 1.0),
]


def _plan(num_cores, fail, delay):
    rng = np.random.default_rng(17)
    offline = tuple(
        FaultEvent(
            float(rng.uniform(0.0, 0.5)), "actuator.offline",
            duration=float(rng.uniform(0.01, 0.1)),
            target=int(rng.integers(num_cores)),
        )
        for _ in range(6)
    )
    return FaultPlan(
        events=offline, seed=3, dvfs_fail_prob=fail, dvfs_delay_prob=delay,
        dvfs_delay=0.002,
    )


def _twin(plan, num_cores):
    engine = Engine()
    cpu = Cpu(engine, num_cores)
    inj = ActuatorFaults(engine, plan, np.random.default_rng(plan.seed), cpu)
    inj.arm()
    return engine, cpu, inj


def _pending(engine):
    """Live scheduled events as (time, priority, callback, core, args)."""
    return [
        (time, priority, callback.__name__,
         getattr(callback.__self__, "core_id", None), args)
        for time, priority, callback, args in live_events(engine)
    ]


@pytest.mark.parametrize("num_cores", [4, 20])
@pytest.mark.parametrize("fail, delay", PROBS)
def test_row_write_matches_per_core_closures(num_cores, fail, delay):
    plan = _plan(num_cores, fail, delay)
    ref_engine, ref_cpu, ref_inj = _twin(plan, num_cores)
    row_engine, row_cpu, row_inj = _twin(plan, num_cores)
    levels = ref_cpu.table.levels
    rng = np.random.default_rng(num_cores * 1000 + int(10 * fail + delay))
    t = 0.0
    for _ in range(300):
        t += float(rng.uniform(0.0, 0.003))
        ref_engine.run_until(t)
        row_engine.run_until(t)
        if rng.random() < 0.05:
            level = levels[int(rng.integers(len(levels)))]
            ref_cpu.set_ceiling(level)
            row_cpu.set_ceiling(level)
        n = int(rng.integers(1, num_cores + 1))
        row = rng.uniform(0.0, 3.4, size=num_cores)
        exact = rng.random(num_cores) < 0.2
        row[exact] = rng.choice(levels, size=int(exact.sum()))

        expected = [
            ref_cpu.cores[i].set_frequency(float(row[i])) for i in range(n)
        ]
        applied = row_cpu.set_frequencies(row, count=n)

        assert applied.tolist() == expected
        assert row_cpu.frequencies().tolist() == ref_cpu.frequencies().tolist()
        assert row_inj.counts == ref_inj.counts
        assert list(row_inj.counts) == list(ref_inj.counts)
        assert _pending(row_engine) == _pending(ref_engine)
        assert row_inj.rng.bit_generator.state == ref_inj.rng.bit_generator.state
    assert row_cpu.total_switches() == ref_cpu.total_switches()
    if fail == 1.0:
        assert row_inj.counts["actuator.write_fail"] > 0
    if delay > 0.0 and fail < 1.0:
        assert row_inj.counts["actuator.delay"] > 0
    assert row_inj.counts["actuator.offline_write"] > 0


def test_second_actuator_injector_on_one_cpu_is_refused():
    plan = FaultPlan(dvfs_fail_prob=0.1)
    engine, cpu, _ = _twin(plan, 2)
    with pytest.raises(ValueError, match="already has"):
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()


def test_empty_plan_registers_no_row_writer():
    engine = Engine()
    cpu = Cpu(engine, 2)
    ActuatorFaults(engine, FaultPlan(), np.random.default_rng(0), cpu).arm()
    assert cpu._actuator is None
