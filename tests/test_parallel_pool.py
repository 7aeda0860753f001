"""Tests for the deterministic process-pool map (repro.parallel.pool)."""

import functools
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.parallel.cells import derive_seed
from repro.parallel.pool import ItemOutcome, ParallelMap

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
    @pytest.mark.parametrize("jobs", [None, 0, -3])
    def test_below_one_raises(self, jobs):
        with pytest.raises(ValueError, match="jobs must be"):
            ParallelMap(jobs=jobs)

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


@pytest.mark.skipif(not _HAS_FORK, reason="fork start method unavailable")
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

    def test_imap_yields_each_index_once(self):
        outs = list(ParallelMap(jobs=2).imap(_square, range(6)))
        assert sorted(o.index for o in outs) == list(range(6))
        assert {o.index: o.unwrap() for o in outs} == {i: i * i for i in range(6)}

    def test_map_leaves_no_worker_running(self):
        ParallelMap(jobs=2).map(_square, range(4))
        assert multiprocessing.active_children() == []

    def test_abandoned_imap_terminates_its_pool(self):
        it = ParallelMap(jobs=2).imap(_square, range(8))
        next(it)
        it.close()
        assert multiprocessing.active_children() == []

    def test_partial_of_module_function(self):
        assert ParallelMap(jobs=2).map_values(functools.partial(_square), [2, 3]) == [4, 9]

    def test_main_module_functions_defined_between_maps(self):
        # Each map forks afresh, so a __main__ function defined after an
        # earlier map is visible to the next map's workers.
        code = (
            "from repro.parallel.pool import ParallelMap\n"
            "def double(x):\n    return 2 * x\n"
            "print(ParallelMap(jobs=2).map_values(double, [1, 2, 3]))\n"
            "def triple(x):\n    return 3 * x\n"
            "print(ParallelMap(jobs=2).map_values(triple, [1, 2, 3]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0])),
        )
        assert proc.stdout.splitlines() == ["[2, 4, 6]", "[3, 6, 9]"]
