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
from repro.cpu import Cpu, FrequencyTable
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
    table, ceiling = ctrl.table, ctrl.cpu.ceiling
    raw, levels = [], []
    for b in ctrl.server.begin_times().tolist():
        s = base if b != b else (now - b) / sla * coef + base
        r = table.turbo if s >= 1.0 else table.fmin + (table.fmax - table.fmin) * s
        raw.append(r)
        levels.append(table.quantize(ceiling if r > ceiling else r))
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



# --------------------------------------------------------------------------
# clean_row's cached failure position against a cache-free reference


class _Uniforms:
    """A generator stand-in dealing out a fixed list of uniforms in order."""

    def __init__(self, values):
        self.values = list(values)
        self.taken = 0

    def random(self, size=None):
        i = self.taken
        if size is None:
            self.taken = i + 1
            return self.values[i]
        self.taken = i + size
        return np.array(self.values[i:i + size])


class _OneDrawAtATime(ActuatorFaults):
    """One ``rng.random()`` per draw; ``clean_row`` reads the next ``k``
    uniforms afresh on every call, with no block and no cache."""

    drawn = property(lambda self: self.rng.taken)

    def _draw(self):
        return float(self.rng.random())

    def clean_row(self, k):
        now = self.engine.now
        if self.plan.dvfs_delay_prob > 0.0 or any(
            now < self._offline_until.get(i, -math.inf) for i in range(k)
        ):
            return False
        fail_p = self.plan.dvfs_fail_prob
        if fail_p == 0.0:
            return True
        i = self.rng.taken
        if any(u < fail_p for u in self.rng.values[i:i + k]):
            return False
        self.rng.taken = i + k
        return True


def _uniform_twins(plan, values, num_cores):
    sides = []
    for cls in (ActuatorFaults, _OneDrawAtATime):
        engine = Engine()
        cpu = Cpu(engine, num_cores)
        inj = cls(engine, plan, _Uniforms(values), cpu)
        inj.arm()
        sides.append((engine, cpu, inj))
    return sides


#: Stream positions that always fail: a block's first and last uniforms
#: and the first ones past a refill.
FORCED_FAILURES = (0, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK)


@pytest.mark.parametrize("fail", [0.02, 0.3])
@pytest.mark.parametrize("offline", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clean_row_cache_matches_one_draw_at_a_time(fail, offline, seed):
    num_cores = 6
    plan = _plan(num_cores, fail, 0.0)
    if not offline:
        plan = FaultPlan(seed=plan.seed, dvfs_fail_prob=fail)
    rng = np.random.default_rng(seed)
    values = rng.random(40 * DRAW_BLOCK).tolist()
    for i in FORCED_FAILURES:
        values[i] = fail / 2
    (b_engine, b_cpu, b_inj), (r_engine, r_cpu, r_inj) = _uniform_twins(
        plan, values, num_cores
    )
    t, cleans = 0.0, []
    while r_inj.drawn < 30 * DRAW_BLOCK:
        t += float(rng.uniform(0.0, 0.0005))
        b_engine.run_until(t)
        r_engine.run_until(t)
        op = rng.integers(4)
        if op == 0:
            # A run of draws, through _draw or the per-core closures.
            for _ in range(int(rng.integers(1, 12))):
                if rng.random() < 0.5:
                    assert b_inj._draw() == r_inj._draw()
                else:
                    i, f = int(rng.integers(num_cores)), float(rng.uniform(0.0, 3.4))
                    assert b_cpu.cores[i].set_frequency(f) == r_cpu.cores[i].set_frequency(f)
        elif op == 1:
            n = int(rng.integers(1, num_cores + 1))
            raw = rng.uniform(0.0, 3.4, size=n).tolist()
            levels = [b_cpu.table.quantize(f) for f in raw]
            b_inj.write_row(raw, levels)
            r_inj.write_row(raw, levels)
        else:
            k = int(rng.integers(num_cores + 1))
            clean = b_inj.clean_row(k)
            assert clean == r_inj.clean_row(k)
            cleans.append(clean)
        assert b_inj.drawn == r_inj.drawn
        assert b_inj.counts == r_inj.counts
        assert b_cpu.frequencies().tolist() == r_cpu.frequencies().tolist()
    assert True in cleans and False in cleans
    if offline:
        assert b_inj.counts["actuator.offline_write"] > 0


@pytest.mark.parametrize("start", [0, 3, DRAW_BLOCK - 4, DRAW_BLOCK - 2, DRAW_BLOCK])
@pytest.mark.parametrize("offset", [None, 0, 3, 4])
def test_clean_row_window_edges(start, offset):
    # A 4-core window from stream position ``start``, with its one failing
    # uniform at ``offset`` from the window's first position: 0 and 3 (its
    # first and last, end - 1) fail the row, 4 (end) and None do not.
    # ``start`` puts the window at a block's first position, across a
    # refill (DRAW_BLOCK - 2) and in the second block.  A failure cached
    # by an earlier row must not survive the _draw() calls consumed past it.
    k, fail = 4, 0.1
    plan = FaultPlan(seed=0, dvfs_fail_prob=fail)
    values = [0.5] * (3 * DRAW_BLOCK)
    early = None
    if start >= 2:
        early = start - 2
        values[early] = 0.0
    if offset is not None:
        values[start + offset] = 0.0
    (_, _, b_inj), (_, _, r_inj) = _uniform_twins(plan, values, k)
    for inj in (b_inj, r_inj):
        if early is not None:
            # Caches the early failure, then draws past it.
            assert inj.clean_row(k) == (early >= k)
        while inj.drawn < start:
            inj._draw()
    assert b_inj.drawn == r_inj.drawn == start
    expected = offset is None or offset >= k
    assert b_inj.clean_row(k) == r_inj.clean_row(k) == expected
    assert b_inj.drawn == r_inj.drawn == start + (k if expected else 0)
    assert b_inj._draw() == r_inj._draw()


# --------------------------------------------------------------------------
# the lean tick's inlined quantisation against FrequencyTable.quantize


def _quantize_tick(ctrl):
    """Algorithm 1 with :meth:`FrequencyTable.quantize` called per core."""
    now = ctrl.engine.now
    table = ctrl.table
    base, coef, sla = ctrl.base_freq, ctrl.scaling_coef, ctrl.sla
    ceiling = ctrl.cpu.ceiling
    for b, core in zip(ctrl.server.begin_times().tolist(), ctrl.cpu.cores):
        s = base if b != b else (now - b) / sla * coef + base
        r = table.turbo if s >= 1.0 else table.fmin + (table.fmax - table.fmin) * s
        q = table.quantize(ceiling if r > ceiling else r)
        if q != core.frequency:
            core.set_frequency(q, quantize=False)


def _on_level_bases(table):
    """BaseFreq values whose request ``fmin + (fmax - fmin) * base`` is
    exactly a sustained level."""
    fspan = table.fmax - table.fmin
    bases = []
    for level in table.sustained_levels:
        b = (level - table.fmin) / fspan
        for c in (b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)):
            if 0.0 <= c < 1.0 and table.fmin + fspan * c == level:
                bases.append(c)
                break
    return bases


#: The default table, and one whose fmax sits 5e-10 GHz off the step grid
#: (so its top sustained level is not fmax and the top index clamp binds).
TABLES = [FrequencyTable(), FrequencyTable(fmax=2.1 + 5e-10)]


@pytest.mark.parametrize("table", TABLES, ids=["default", "off-grid-fmax"])
def test_lean_tick_matches_quantize_per_core(table):
    num_cores = 6
    sla = 2.0 ** -7
    dt = 2.0 ** -10
    on_level = _on_level_bases(table)
    assert len(on_level) >= len(table.sustained_levels) - 1
    params = [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5),
        (math.nextafter(1.0, 0.0), 0.0), (0.25, 0.75), (0.3, 0.45),
    ] + [(b, 0.0) for b in on_level]
    sides = []
    for _ in range(2):
        engine = Engine()
        cpu = Cpu(engine, num_cores, table)
        server = _Server(cpu, num_cores)
        server.sla = sla
        sides.append((engine, cpu, server, ThreadController(engine, server)))
    (l_engine, l_cpu, l_srv, lean), (q_engine, q_cpu, q_srv, ref) = sides
    # Every ceiling under every parameter pair, then every pair under
    # every ceiling: each of the two cache keys also moves alone.
    settings = [(c, p) for c in table.levels for p in params]
    settings += [(c, p) for p in params for c in table.levels]
    rng = np.random.default_rng(5)
    k, scores_one = 0, 0
    for ceiling, (base, coef) in settings:
        for cpu, ctrl in ((l_cpu, lean), (q_cpu, ref)):
            if cpu.ceiling != ceiling:
                cpu.set_ceiling(ceiling)
            ctrl.set_params(base, coef)
        for _ in range(3):
            k += 1
            now = k * dt
            l_engine.run_until(now)
            q_engine.run_until(now)
            # Whole ticks back on the exact grid: gaps of 8 ticks are one
            # SLA, a score of exactly coef + base (1.0 at (0, 1)).
            gaps = rng.integers(0, 12, size=num_cores)
            begins = now - gaps * dt
            begins[rng.random(num_cores) < 0.3] = np.nan
            if coef + base == 1.0:
                scores_one += int(np.sum((gaps == 8) & ~np.isnan(begins)))
            l_srv.begins[:] = begins
            q_srv.begins[:] = begins
            lean.tick()
            _quantize_tick(ref)
            assert l_cpu.frequencies().tolist() == q_cpu.frequencies().tolist()
    assert l_cpu.total_switches() == q_cpu.total_switches() > 0
    assert scores_one > 0
    assert set(l_cpu.frequencies().tolist()) <= set(table.levels)
