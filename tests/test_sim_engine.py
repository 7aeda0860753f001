"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PRIORITY_CONTROL, PRIORITY_DEFAULT, Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule_at(2.0, fired.append, "b")
        eng.schedule_at(1.0, fired.append, "a")
        eng.schedule_at(3.0, fired.append, "c")
        eng.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo_order(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule_at(1.0, fired.append, i)
        eng.run_until(1.0)
        assert fired == list(range(10))

    def test_priority_orders_within_timestamp(self):
        eng = Engine()
        fired = []
        eng.schedule_at(1.0, fired.append, "control", priority=PRIORITY_CONTROL)
        eng.schedule_at(1.0, fired.append, "data", priority=PRIORITY_DEFAULT)
        eng.run_until(1.0)
        assert fired == ["data", "control"]

    def test_schedule_after_uses_relative_delay(self):
        eng = Engine(start_time=10.0)
        seen = []
        eng.schedule_after(1.5, lambda: seen.append(eng.now))
        eng.run_until(20.0)
        assert seen == [11.5]

    def test_schedule_in_past_raises(self):
        eng = Engine()
        eng.run_until(5.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_event_fire(self):
        eng = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                eng.schedule_after(1.0, chain, n + 1)

        eng.schedule_at(0.5, chain, 0)
        eng.run_until(10.0)
        assert fired == [0, 1, 2, 3]

    def test_run_until_exclusive_leaves_boundary_events(self):
        eng = Engine()
        fired = []
        eng.schedule_at(1.0, fired.append, "x")
        eng.run_until(1.0, inclusive=False)
        assert fired == []
        eng.run_until(1.0)
        assert fired == ["x"]

    def test_clock_advances_to_run_until_time(self):
        eng = Engine()
        eng.run_until(42.0)
        assert eng.now == 42.0

    def test_run_until_past_raises(self):
        eng = Engine()
        eng.run_until(5.0)
        with pytest.raises(SimulationError):
            eng.run_until(4.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        h = eng.schedule_at(1.0, fired.append, "x")
        eng.cancel(h)
        eng.run_until(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        eng.cancel(h)
        eng.cancel(h)
        assert eng.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        eng = Engine()
        fired = []
        h = eng.schedule_at(1.0, fired.append, 1)
        eng.run_until(2.0)
        eng.cancel(h)
        assert fired == [1]

    def test_heap_compaction_preserves_live_events(self):
        eng = Engine()
        fired = []
        handles = [eng.schedule_at(1.0 + i * 1e-6, lambda: None) for i in range(10000)]
        keeper = eng.schedule_at(2.0, fired.append, "live")
        for h in handles:
            eng.cancel(h)
        assert eng.pending_events == 1
        eng.run_until(3.0)
        assert fired == ["live"]


class TestRun:
    def test_run_drains_heap(self):
        eng = Engine()
        fired = []
        for i in range(5):
            eng.schedule_at(float(i), fired.append, i)
        count = eng.run()
        assert count == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_run_max_events(self):
        eng = Engine()
        for i in range(5):
            eng.schedule_at(float(i), lambda: None)
        assert eng.run(max_events=3) == 3
        assert eng.pending_events == 2

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_reentrancy_guard(self):
        eng = Engine()

        def evil():
            eng.run_until(10.0)

        eng.schedule_at(1.0, evil)
        with pytest.raises(SimulationError):
            eng.run_until(5.0)

    def test_processed_events_counter(self):
        eng = Engine()
        for i in range(3):
            eng.schedule_at(float(i + 1), lambda: None)
        eng.run_until(10.0)
        assert eng.processed_events == 3


class TestPeriodicTask:
    def test_fires_at_fixed_interval(self):
        eng = Engine()
        times = []
        eng.every(1.0, lambda: times.append(eng.now))
        eng.run_until(5.5)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_delay_zero_fires_immediately(self):
        eng = Engine()
        times = []
        eng.every(1.0, lambda: times.append(eng.now), start_delay=0.0)
        eng.run_until(2.5)
        assert times == [0.0, 1.0, 2.0]

    def test_stop_halts_future_firings(self):
        eng = Engine()
        count = [0]
        task = eng.every(1.0, lambda: count.__setitem__(0, count[0] + 1))
        eng.run_until(2.5)
        task.stop()
        eng.run_until(10.0)
        assert count[0] == 2
        assert task.stopped

    def test_callback_can_stop_its_own_task(self):
        eng = Engine()
        fired = []
        task = eng.every(1.0, lambda: (fired.append(eng.now), task.stop()))
        eng.run_until(10.0)
        assert fired == [1.0]

    def test_no_drift_over_many_firings(self):
        eng = Engine()
        times = []
        eng.every(0.1, lambda: times.append(eng.now))
        eng.run_until(10.0)
        assert len(times) == 100
        assert abs(times[-1] - 10.0) < 1e-9

    def test_invalid_interval_raises(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)

    def test_fire_count(self):
        eng = Engine()
        task = eng.every(1.0, lambda: None)
        eng.run_until(3.5)
        assert task.fire_count == 3

    def test_stop_inside_callback_cancels_scheduled_successor(self):
        # _fire schedules the successor *before* the callback runs; stopping
        # from inside the callback must cancel that pre-scheduled event, not
        # leave it to fire (or linger) in the heap.
        eng = Engine()
        task = eng.every(1.0, lambda: task.stop())
        eng.run_until(1.0)
        assert task.stopped
        assert task.fire_count == 1
        assert eng.pending_events == 0

    def test_zero_start_delay_immediate_stop_fires_exactly_once(self):
        eng = Engine()
        fired = []
        task = eng.every(
            1.0, lambda: (fired.append(eng.now), task.stop()), start_delay=0.0
        )
        eng.run_until(5.0)
        assert fired == [0.0]
        assert eng.pending_events == 0

    def test_negative_start_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().every(1.0, lambda: None, start_delay=-0.5)

    def test_mass_cancellation_of_periodic_tasks_compacts_heap(self):
        # Stopping thousands of periodic tasks crosses the engine's lazy-
        # cancellation compaction threshold; live events must survive it.
        eng = Engine()
        tasks = [eng.every(1.0 + i * 1e-9, lambda: None) for i in range(5000)]
        fired = []
        eng.schedule_at(2.0, fired.append, "live")
        for t in tasks:
            t.stop()
        assert eng.pending_events == 1
        assert len(eng._heap) < 5000  # compaction actually ran
        eng.run_until(3.0)
        assert fired == ["live"]


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
    )
)
@settings(max_examples=50, deadline=None)
def test_property_events_fire_in_nondecreasing_time_order(times):
    eng = Engine()
    fired = []
    for t in times:
        eng.schedule_at(t, lambda t=t: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    n=st.integers(min_value=1, max_value=100),
    cancel_idx=st.sets(st.integers(min_value=0, max_value=99)),
)
@settings(max_examples=50, deadline=None)
def test_property_cancelled_subset_never_fires(n, cancel_idx):
    eng = Engine()
    fired = set()
    handles = [eng.schedule_at(float(i % 7), lambda i=i: fired.add(i)) for i in range(n)]
    cancelled = {i for i in cancel_idx if i < n}
    for i in cancelled:
        eng.cancel(handles[i])
    eng.run()
    assert fired == set(range(n)) - cancelled


# One engine operation: schedule a one-shot event, start a periodic task,
# cancel a handle (fired, cancelled or live), stop a task, run to a horizon
# (inclusive or not), step once, or run through a callback that compacts
# the heap (see the property test).  Offsets come from a small grid so
# equal (time, priority) ties are common.
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_PRIORITIES = st.sampled_from([PRIORITY_DEFAULT, PRIORITY_CONTROL])
_ENGINE_OPS = st.one_of(
    st.tuples(st.just("schedule"), _OFFSETS, _PRIORITIES),
    st.tuples(st.just("every"), st.sampled_from([0.25, 0.5, 1.0]), _PRIORITIES),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("stop"), st.integers(0, 10**6)),
    st.tuples(st.just("run"), _OFFSETS, st.booleans()),
    st.tuples(st.just("step")),
    st.tuples(st.just("flush"), st.booleans()),
)


class _ReferenceEngine:
    """Pending events in a plain dict, fired in sorted (time, priority,
    scheduling order); periodic tasks reschedule when they fire."""

    def __init__(self):
        self.pending = {}  # label -> (time, priority, order, label)
        self.order = 0
        self.fired = []
        self.processed = 0
        self.now = 0.0
        self.interval = {}  # periodic label -> period
        self.next_time = {}  # periodic label -> accumulated next firing time
        self.actions = {}  # label -> fn() run right after it fires

    def add(self, time, priority, label):
        self.pending[label] = (time, priority, self.order, label)
        self.order += 1

    def remove(self, label):
        self.pending.pop(label, None)

    def fire_next(self):
        time, priority, _, label = min(self.pending.values())
        del self.pending[label]
        self.now = time
        self.processed += 1
        if label in self.interval:
            self.next_time[label] += self.interval[label]
            self.add(self.next_time[label], priority, label)
        self.fired.append(label)
        action = self.actions.pop(label, None)
        if action is not None:
            action()

    def run_until(self, horizon, inclusive):
        while self.pending:
            time = min(self.pending.values())[0]
            if time > horizon or (not inclusive and time == horizon):
                break
            self.fire_next()
        self.now = horizon


@given(
    ops=st.lists(_ENGINE_OPS, min_size=20, max_size=80),
    burst_at=st.integers(0, 80),
    burst_keep_every=st.integers(40, 80),
    flush_at=st.integers(0, 80),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_property_engine_matches_sorted_reference(
    ops, burst_at, burst_keep_every, flush_at
):
    """Schedules, cancels (also after firing), periodic stops, runs and steps
    fire in (time, priority, scheduling order) like a sorted reference list,
    with exact pending and processed counts, across heap compaction.

    A burst of more than ``_COMPACT_MIN`` events, most of them cancelled at
    once, is spliced in at ``burst_at`` so that compaction runs.  A
    ``flush`` (one spliced in at ``flush_at``) runs to a horizon through a
    callback that cancels a burst, compacting the heap under the running
    loop, and then schedules events earlier than a live one behind it.
    """
    eng = Engine()
    ref = _ReferenceEngine()
    fired = []
    handles = []  # (handle, label)
    tasks = []
    compacted = False
    compacted_in_run = False
    n_burst = Engine._COMPACT_MIN + 64
    ops = list(ops)
    ops.insert(min(burst_at, len(ops)), ("burst",))
    ops.insert(min(flush_at, len(ops)), ("flush", True))

    def cancel(handle, label):
        nonlocal compacted
        before = eng._cancelled
        eng.cancel(handle)
        ref.remove(label)
        compacted |= eng._cancelled < before

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            label = ("e", len(handles))
            time = eng.now + op[1]
            handles.append((eng.schedule_at(time, fired.append, label, priority=op[2]), label))
            ref.add(time, op[2], label)
        elif kind == "every":
            label = ("p", len(tasks))
            task = eng.every(op[1], fired.append, label, priority=op[2])
            tasks.append((task, label))
            ref.interval[label] = op[1]
            ref.next_time[label] = eng.now + op[1]
            ref.add(ref.next_time[label], op[2], label)
        elif kind == "cancel" and handles:
            cancel(*handles[op[1] % len(handles)])
        elif kind == "stop" and tasks:
            task, label = tasks[op[1] % len(tasks)]
            before = eng._cancelled
            task.stop()
            ref.remove(label)
            compacted |= eng._cancelled < before
        elif kind == "run":
            horizon = eng.now + op[1]
            eng.run_until(horizon, inclusive=op[2])
            ref.run_until(horizon, op[2])
        elif kind == "step":
            assert eng.step() is bool(ref.pending)
            if ref.pending:
                ref.fire_next()
        elif kind == "burst":
            burst = []
            for i in range(n_burst):
                label = ("b", i)
                time = eng.now + 0.25 * (i % 4)
                burst.append((eng.schedule_at(time, fired.append, label), label))
                ref.add(time, PRIORITY_DEFAULT, label)
            for i, (handle, label) in enumerate(burst):
                if i % burst_keep_every:
                    cancel(handle, label)
            handles.extend(burst[::burst_keep_every])
        elif kind == "flush":
            k = len(handles)
            t0 = eng.now
            burst_labels = [("f", k, i) for i in range(n_burst)]
            burst = [eng.schedule_at(t0 + 1.0, fired.append, lb) for lb in burst_labels]
            for lb in burst_labels:
                ref.add(t0 + 1.0, PRIORITY_DEFAULT, lb)
            live = ("e", k)
            handles.append((eng.schedule_at(t0 + 1.0, fired.append, live), live))
            ref.add(t0 + 1.0, PRIORITY_DEFAULT, live)
            early = [(0.0, ("c", k, 0)), (0.25, ("c", k, 1))]

            def flush(k=k, burst=burst, early=early):
                nonlocal compacted_in_run
                fired.append(("c", k))
                size = len(eng._heap)
                for handle in burst:
                    eng.cancel(handle)
                compacted_in_run |= len(eng._heap) < size
                for off, lb in early:
                    eng.schedule_at(eng.now + off, fired.append, lb)

            def ref_flush(burst_labels=burst_labels, early=early):
                for lb in burst_labels:
                    ref.remove(lb)
                for off, lb in early:
                    ref.add(ref.now + off, PRIORITY_DEFAULT, lb)

            eng.schedule_at(t0 + 0.5, flush)
            ref.add(t0 + 0.5, PRIORITY_DEFAULT, ("c", k))
            ref.actions[("c", k)] = ref_flush
            eng.run_until(t0 + 1.0, inclusive=op[1])
            ref.run_until(t0 + 1.0, op[1])
        assert fired == ref.fired
        assert eng.now == ref.now
        assert eng.pending_events == len(ref.pending)
        assert eng.processed_events == ref.processed
    assert compacted and compacted_in_run
    eng.run_until(eng.now + 2.0)
    ref.run_until(ref.now + 2.0, True)
    assert fired == ref.fired
    assert eng.processed_events == ref.processed
