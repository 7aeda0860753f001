"""Order-preserving, failure-isolating process-pool map.

Design constraints:

* **Determinism** — every outcome carries its item's index, so
  :meth:`ParallelMap.map` returns results in submission order no matter
  which worker finished first, and seeds are derived per item with a
  stable hash (:func:`~repro.parallel.cells.derive_seed`) so adding or
  reordering grid cells never perturbs sibling streams.
* **Failure isolation** — one item raising must not kill the grid; the
  traceback is captured in its :class:`ItemOutcome` and every sibling's
  result is still returned.
* **Serial fallback** — ``jobs=1`` (or a platform without ``fork``) runs
  the same code path in-process, so parallel-vs-serial comparisons always
  exercise identical per-item logic.

Each parallel map forks one fresh pool and closes it before it returns.
Workers use the ``fork`` start method, so they inherit the parent's
imported modules (``run_grid`` imports what its cells execute before it
forks) and see every function the parent defined or patched up to the
map, ``__main__`` functions included.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, List, Optional, Sequence, TypeVar

__all__ = ["ItemOutcome", "ParallelMap"]

T = TypeVar("T")
R = TypeVar("R")


def _fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


@dataclass
class ItemOutcome(Generic[R]):
    """Result of one mapped item: exactly one of ``value``/``error`` is set."""

    index: int
    value: Optional[R] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> R:
        """The value, re-raising the captured worker error if there is one."""
        if self.error is not None:
            raise RuntimeError(f"grid item {self.index} failed:\n{self.error}")
        return self.value  # type: ignore[return-value]


def _guarded(fn: Callable[[T], R], index: int, item: T) -> ItemOutcome:
    """Run ``fn(item)``, converting any exception into an error outcome."""
    try:
        return ItemOutcome(index=index, value=fn(item))
    except BaseException:  # noqa: BLE001 - isolation is the whole point
        return ItemOutcome(index=index, error=traceback.format_exc())


def _pool_entry(args) -> ItemOutcome:
    fn, index, item = args
    return _guarded(fn, index, item)


class ParallelMap:
    """Map a picklable function over items on a deterministic process pool.

    ``jobs`` is the number of worker processes (at least 1).  ``1`` runs
    serially in-process; on platforms without ``fork`` every map takes
    the serial path — correctness first.

    ``fn``'s results and every item must be picklable; ``fn`` itself is
    pickled by reference, so it must be a module-level function (or a
    :func:`functools.partial` of one), not a closure.
    """

    def __init__(self, jobs: int = 1) -> None:
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
        self.jobs = jobs

    @property
    def is_serial(self) -> bool:
        return self.jobs == 1 or not _fork_available()

    def imap(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[ItemOutcome]:
        """Yield one outcome per item as soon as it finishes.

        Outcomes arrive in completion order; each carries its item's
        index.  A parallel map forks its pool on the first ``next()`` and
        terminates it when the iterator is exhausted or closed.
        """
        items = list(items)
        if self.is_serial or len(items) <= 1:
            for i, item in enumerate(items):
                yield _guarded(fn, i, item)
            return
        tasks = [(fn, i, item) for i, item in enumerate(items)]
        with mp.get_context("fork").Pool(processes=min(self.jobs, len(tasks))) as pool:
            yield from pool.imap_unordered(_pool_entry, tasks)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[ItemOutcome]:
        """Apply ``fn`` to every item; outcomes are in submission order."""
        return sorted(self.imap(fn, items), key=lambda out: out.index)

    def map_values(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Like :meth:`map` but unwraps, re-raising the first item error."""
        return [out.unwrap() for out in self.map(fn, items)]
