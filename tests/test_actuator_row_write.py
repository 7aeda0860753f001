"""The actuator injector's row writes against per-core faulted writes.

:meth:`ActuatorFaults.write_row` (reached through
:meth:`Cpu.set_frequencies`) must be indistinguishable from writing the
same row one core at a time through the per-core ``set_frequency``
closures: same applied levels, same core levels, same fault counts, same
delayed writes pending on the engine and the same draws consumed.  The
controller tick's clean-row path (:meth:`ActuatorFaults.clean_row`, then
the plain write loop) must equal the tick that hands every row to
``write_row``, and the injector's block draws must be the stream of one
``rng.random()`` per draw.  Twin sockets run both ways through random
rows, ceiling moves and offline windows.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.thread_controller import ThreadController
from repro.cpu import Cpu
from repro.faults import ActuatorFaults, FaultEvent, FaultPlan
from repro.faults.injectors import DRAW_BLOCK
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
        assert row_inj.drawn == ref_inj.drawn
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


# --------------------------------------------------------------------------
# controller tick: clean rows through the plain loop


class _Server:
    """The slice of a server a :class:`ThreadController` reads."""

    def __init__(self, cpu, num_workers):
        self.cpu = cpu
        self.num_workers = num_workers
        self.sla = 0.01
        self.app = SimpleNamespace(short_time=1e-3)
        self.begins = np.full(num_workers, np.nan)

    def begin_times(self):
        return self.begins


def _row_tick(ctrl):
    """The tick without clean rows: every tick of an injector socket
    builds its raw and quantised row and hands it to ``write_row``."""
    now = ctrl.engine.now
    ctrl.tick_count += 1
    base, coef, sla = ctrl.base_freq, ctrl.scaling_coef, ctrl.sla
    ceiling = ctrl.cpu.ceiling
    raw, levels = [], []
    for b in ctrl.server.begin_times().tolist():
        s = base if b != b else (now - b) / sla * coef + base
        r = ctrl._turbo if s >= 1.0 else ctrl._fmin + ctrl._fspan * s
        raw.append(r)
        levels.append(ctrl.table.quantize(ceiling if r > ceiling else r))
    ctrl.cpu._actuator.write_row(raw, levels)


@pytest.mark.parametrize("num_cores, num_workers", [(4, 4), (8, 6)])
@pytest.mark.parametrize(
    "fail, delay", [(0.0, 0.0), (0.02, 0.0), (0.5, 0.0), (1.0, 0.0), (0.3, 0.4)]
)
def test_tick_matches_row_write_tick(num_cores, num_workers, fail, delay):
    plan = _plan(num_cores, fail, delay)
    sides = []
    for _ in range(2):
        engine, cpu, inj = _twin(plan, num_cores)
        server = _Server(cpu, num_workers)
        sides.append((engine, cpu, inj, server, ThreadController(engine, server)))
    (t_engine, t_cpu, t_inj, t_srv, tick_ctrl), (r_engine, r_cpu, r_inj, r_srv, ref_ctrl) = sides
    levels = t_cpu.table.levels
    rng = np.random.default_rng(num_cores * 100 + int(100 * fail + 10 * delay))
    ticks = 1500
    for k in range(ticks):
        t = k * 1e-3
        t_engine.run_until(t)
        r_engine.run_until(t)
        if rng.random() < 0.02:
            level = levels[int(rng.integers(len(levels)))]
            t_cpu.set_ceiling(level)
            r_cpu.set_ceiling(level)
        if rng.random() < 0.05:
            params = rng.random(2) * [1.1, 1.0]
            tick_ctrl.set_params(*params)
            ref_ctrl.set_params(*params)
        begins = t - rng.uniform(0.0, 0.02, size=num_workers)
        begins[rng.random(num_workers) < 0.4] = np.nan
        t_srv.begins[:] = begins
        r_srv.begins[:] = begins

        tick_ctrl.tick()
        _row_tick(ref_ctrl)

        assert t_cpu.frequencies().tolist() == r_cpu.frequencies().tolist()
        assert t_inj.counts == r_inj.counts
        assert list(t_inj.counts) == list(r_inj.counts)
        assert _pending(t_engine) == _pending(r_engine)
        assert t_inj.drawn == r_inj.drawn
    assert t_cpu.total_switches() == r_cpu.total_switches() > 0
    assert t_inj.counts.get("actuator.offline_write", 0) > 0
    if fail > 0.0:
        # Enough ticks to cross several block refills.
        assert t_inj.drawn > 3 * DRAW_BLOCK
    if 0.0 < fail < 1.0 and delay == 0.0:
        assert 0 < t_inj.counts["actuator.write_fail"] < t_inj.drawn


# --------------------------------------------------------------------------
# block draws: the stream of one rng.random() per draw


class _ScalarDraws(ActuatorFaults):
    """One ``rng.random()`` per draw; ``clean_row`` peeks by saving and
    restoring the generator's state."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scalar_draws = 0

    drawn = property(lambda self: self.scalar_draws)

    def _draw(self):
        self.scalar_draws += 1
        return float(self.rng.random())

    def clean_row(self, k):
        now = self.engine.now
        if self.plan.dvfs_delay_prob > 0.0 or any(
            now < self._offline_until.get(i, -math.inf) for i in range(k)
        ):
            return False
        if self.plan.dvfs_fail_prob == 0.0:
            return True
        state = self.rng.bit_generator.state
        draws = [self._draw() for _ in range(k)]
        if all(u >= self.plan.dvfs_fail_prob for u in draws):
            return True
        self.rng.bit_generator.state = state
        self.scalar_draws -= k
        return False


@pytest.mark.parametrize(
    "fail, delay", [(0.0, 0.0), (0.02, 0.0), (0.3, 0.0), (1.0, 0.0), (0.3, 0.4), (0.0, 0.5)]
)
def test_block_draws_are_the_scalar_stream(fail, delay):
    num_cores = 6
    plan = _plan(num_cores, fail, delay)
    sides = []
    for cls in (ActuatorFaults, _ScalarDraws):
        engine = Engine()
        cpu = Cpu(engine, num_cores)
        inj = cls(engine, plan, np.random.default_rng(plan.seed), cpu)
        inj.arm()
        sides.append((engine, cpu, inj))
    (b_engine, b_cpu, b_inj), (s_engine, s_cpu, s_inj) = sides
    rng = np.random.default_rng(int(100 * fail + 10 * delay))
    t, cleans = 0.0, []
    for _ in range(2000):
        t += float(rng.uniform(0.0, 0.001))
        b_engine.run_until(t)
        s_engine.run_until(t)
        op = rng.integers(3)
        if op == 0:
            i, f = int(rng.integers(num_cores)), float(rng.uniform(0.0, 3.4))
            assert b_cpu.cores[i].set_frequency(f) == s_cpu.cores[i].set_frequency(f)
        elif op == 1:
            n = int(rng.integers(1, num_cores + 1))
            row = rng.uniform(0.0, 3.4, size=num_cores)
            assert (
                b_cpu.set_frequencies(row, count=n).tolist()
                == s_cpu.set_frequencies(row, count=n).tolist()
            )
        else:
            k = int(rng.integers(num_cores + 1))
            clean = b_inj.clean_row(k)
            assert clean == s_inj.clean_row(k)
            cleans.append(clean)
        assert b_cpu.frequencies().tolist() == s_cpu.frequencies().tolist()
        assert b_inj.counts == s_inj.counts
        assert _pending(b_engine) == _pending(s_engine)
        assert b_inj.drawn == s_inj.drawn
    assert False in cleans and (True in cleans) == (delay == 0.0)
    if fail > 0.0:
        assert b_inj.drawn > 3 * DRAW_BLOCK
    elif delay == 0.0:
        # No DVFS probability: nothing drawn, no block even fetched.
        assert b_inj._blocks == 0
    # The next uniform is the scalar stream's next one.
    assert b_inj._draw() == s_inj.rng.random()

