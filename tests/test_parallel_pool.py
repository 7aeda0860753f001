"""Tests for the deterministic process-pool map (repro.parallel.pool)."""

import functools
import multiprocessing
import os

import pytest

from repro.parallel.pool import (
    _POOLS,
    ItemOutcome,
    ParallelMap,
    PoolStats,
    derive_seed,
    shutdown_pools,
)

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# Module-level so the fork pool can pickle them by reference.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * 10


def _pid_and_value(x):
    return (os.getpid(), x)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "xapian", "retail") == derive_seed(7, "xapian", "retail")

    def test_distinct_parts_distinct_seeds(self):
        a = derive_seed(7, "xapian", "retail")
        b = derive_seed(7, "xapian", "gemini")
        c = derive_seed(8, "xapian", "retail")
        assert len({a, b, c}) == 3

    def test_within_bits(self):
        for bits in (16, 31, 48):
            s = derive_seed(123, "app", bits=bits)
            assert 0 <= s < (1 << bits)


class TestEffectiveJobs:
    def test_none_and_zero_mean_all_cpus(self):
        assert ParallelMap(jobs=None).jobs == (os.cpu_count() or 1)
        assert ParallelMap(jobs=0).jobs == (os.cpu_count() or 1)

    def test_negative_clamps_to_one(self):
        assert ParallelMap(jobs=-3).jobs == 1

    def test_positive_passthrough(self):
        assert ParallelMap(jobs=5).jobs == 5


class TestItemOutcome:
    def test_ok_unwrap(self):
        out = ItemOutcome(index=0, value=42)
        assert out.ok
        assert out.unwrap() == 42

    def test_error_unwrap_raises_with_traceback(self):
        out = ItemOutcome(index=3, error="Traceback ...\nValueError: boom")
        assert not out.ok
        with pytest.raises(RuntimeError, match="item 3 failed"):
            out.unwrap()


class TestSerialMap:
    def test_order_and_values(self):
        pool = ParallelMap(jobs=1)
        assert pool.is_serial
        outs = pool.map(_square, [3, 1, 4, 1, 5])
        assert [o.index for o in outs] == [0, 1, 2, 3, 4]
        assert [o.unwrap() for o in outs] == [9, 1, 16, 1, 25]

    def test_empty(self):
        assert ParallelMap(jobs=1).map(_square, []) == []

    def test_failure_isolated_to_item(self):
        outs = ParallelMap(jobs=1).map(_fail_on_three, [1, 3, 5])
        assert outs[0].unwrap() == 10
        assert not outs[1].ok
        assert "three is right out" in outs[1].error
        assert outs[2].unwrap() == 50

    def test_map_values_reraises_first_error(self):
        with pytest.raises(RuntimeError, match="item 1 failed"):
            ParallelMap(jobs=1).map_values(_fail_on_three, [1, 3, 5])


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestForkMap:
    def test_matches_serial(self):
        items = list(range(8))
        serial = ParallelMap(jobs=1).map_values(_square, items)
        forked = ParallelMap(jobs=4).map_values(_square, items)
        assert forked == serial

    def test_failure_isolated_across_workers(self):
        outs = ParallelMap(jobs=4).map(_fail_on_three, [1, 2, 3, 4])
        assert [o.ok for o in outs] == [True, True, False, True]
        assert "ValueError" in outs[2].error
        assert [o.unwrap() for o in (outs[0], outs[1], outs[3])] == [10, 20, 40]

    def test_results_in_submission_order(self):
        outs = ParallelMap(jobs=4).map(_pid_and_value, list(range(12)))
        assert [o.unwrap()[1] for o in outs] == list(range(12))

    def test_single_item_stays_in_process(self):
        (out,) = ParallelMap(jobs=4).map(_pid_and_value, ["x"])
        assert out.unwrap() == (os.getpid(), "x")


class TestPoolStats:
    def test_tasks_per_worker(self):
        stats = PoolStats(workers=4, forks=4, tasks=12)
        assert stats.tasks_per_worker == 3.0
        assert PoolStats().tasks_per_worker == 0.0

    def test_as_dict_round_trip(self):
        d = PoolStats(workers=2, forks=2, map_calls=3, reused_maps=2,
                      tasks=10, chunksize=2).as_dict()
        assert d["forks"] == 2
        assert d["reused_maps"] == 2
        assert d["tasks_per_worker"] == 5.0


@pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
class TestPersistentPool:
    """ISSUE 8: workers survive across maps — fork once, map many."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def test_workers_reused_across_maps(self):
        pool = ParallelMap(jobs=2)
        first = pool.map_values(_pid_and_value, list(range(6)))
        stats1 = pool.last_stats
        second = pool.map_values(_pid_and_value, list(range(6)))
        stats2 = pool.last_stats
        # Only the two originally-forked workers ever served a task.
        assert len({p for p, _ in first + second}) <= 2
        assert stats1.forks == 2
        assert stats2.forks == 2  # unchanged: the regression this guards
        assert stats2.map_calls == 2
        assert stats2.reused_maps == 1

    def test_reuse_across_parallelmap_instances(self):
        ParallelMap(jobs=2).map(_square, range(4))
        pool = ParallelMap(jobs=2)
        pool.map(_square, range(4))
        assert pool.last_stats.forks == 2
        assert pool.last_stats.reused_maps == 1

    def test_last_stats_is_a_snapshot(self):
        pool = ParallelMap(jobs=2)
        pool.map(_square, range(4))
        snap = pool.last_stats
        pool.map(_square, range(4))
        assert snap.map_calls == 1  # not mutated by the second map

    def test_shutdown_then_refork(self):
        pool = ParallelMap(jobs=2)
        pool.map(_square, range(4))
        assert shutdown_pools() == 1
        assert not _POOLS
        pool.map(_square, range(4))
        assert pool.last_stats.reused_maps == 0  # fresh pool re-forked

    def test_chunksize_auto_sizes_to_four_chunks_per_worker(self):
        pool = ParallelMap(jobs=2)
        pool.map(_square, range(32))
        assert pool.last_stats.chunksize == 4
        explicit = ParallelMap(jobs=2, chunksize=7)
        explicit.map(_square, range(32))
        assert explicit.last_stats.chunksize == 7

    def test_partial_of_module_function_stays_persistent(self):
        # functools.partial pickles its inner function by reference, so it
        # is registry-safe like any module-level callable.
        fn = functools.partial(_square)
        pool = ParallelMap(jobs=2)
        assert pool.map_values(fn, [2, 3]) == [4, 9]
        assert pool.last_stats.forks == 2

    def test_main_module_function_never_enters_registry(self):
        # A __main__-defined function is invisible to a worker forked
        # before it existed; unpickling it there kills the worker and the
        # map never returns.  The guard must keep such functions out of
        # the persistent registry entirely.
        ns = {}
        exec(compile("def ghost(x):\n    return x\n", "<test>", "exec"), ns)
        ghost = ns["ghost"]
        ghost.__module__ = "__main__"
        pool = ParallelMap(jobs=2)
        try:
            pool.map(ghost, [1, 2])
        except Exception:
            pass  # unpicklable from pytest's parent — irrelevant here
        assert not _POOLS

    def test_persistent_false_bypasses_registry(self):
        pool = ParallelMap(jobs=2, persistent=False)
        assert pool.map_values(_square, [2, 3]) == [4, 9]
        assert not _POOLS

    def test_serial_map_sets_no_stats(self):
        pool = ParallelMap(jobs=1)
        pool.map(_square, [1, 2])
        assert pool.last_stats is None
