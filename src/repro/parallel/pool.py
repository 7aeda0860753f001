"""Order-preserving, failure-isolating process-pool map.

Design constraints (ISSUE 3):

* **Determinism** — results come back in submission order no matter which
  worker finished first, and seeds are derived per item with a stable hash
  so adding/reordering grid cells never perturbs sibling streams.
* **Failure isolation** — one item raising must not kill the grid; the
  traceback is captured in its :class:`ItemOutcome` and every sibling's
  result is still returned.
* **Serial fallback** — ``jobs=1`` (or a platform without ``fork``) runs
  the same code path in-process, so parallel-vs-serial comparisons always
  exercise identical per-item logic.

The pool uses the ``fork`` start method: workers inherit the parent's
imported modules (numpy, the repro package) for free, which is the cheap
"warm-up" that makes small grids worth fanning out.  An optional explicit
``warmup`` callable runs once per worker for anything fork does not cover
(e.g. priming lazy caches).

Persistent pools (ISSUE 8)
--------------------------
Forking a fresh pool per ``map()`` call made every ``run_grid`` pay the
full worker start-up cost again — the dominant cost for short cells.  By
default maps now go through a module-level registry of persistent pools
keyed by ``(workers, warmup)``: workers are forked once, survive across
``map()`` calls *and* across whole ``run_grid`` invocations, and tasks are
shipped in chunks sized to the grid.  Read-only state (imported modules,
app catalogs, DVFS tables) is shared via fork-inherited memory for free.
Each map snapshots the pool's lifetime :class:`PoolStats` into
``ParallelMap.last_stats`` so callers can assert reuse (the regression
test: two consecutive ``run_grid`` calls fork at most once per worker).
``shutdown_pools()`` tears everything down and is registered ``atexit``.

The staleness trade-off is deliberate: workers resolve pickled functions
against the modules they forked with, so code *mutated in the parent
after the first map* (e.g. a test monkeypatching a module function) is
not seen by an already-forked pool.  Pass ``persistent=False`` (or call
``shutdown_pools()``) where that matters.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "ItemOutcome",
    "ParallelMap",
    "PoolStats",
    "derive_seed",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(base_seed: int, *parts: object, bits: int = 31) -> int:
    """Stable per-item seed: hash of ``base_seed`` and the item identity.

    Uses SHA-256 over the repr of the parts, so the result is invariant
    across python hash randomisation, process boundaries, and platforms —
    two grid cells with the same ``(base_seed, parts)`` always simulate
    the same world, and distinct cells get well-separated streams.

    >>> derive_seed(7, "xapian", "retail") == derive_seed(7, "xapian", "retail")
    True
    >>> derive_seed(7, "xapian", "retail") != derive_seed(7, "xapian", "gemini")
    True
    """
    payload = repr((int(base_seed),) + parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


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


# ---------------------------------------------------------- persistent pools

@dataclass
class PoolStats:
    """Lifetime accounting for one persistent pool (or one ad-hoc map).

    ``forks`` counts worker processes ever started under this pool key;
    with persistence it stays at ``workers`` no matter how many maps run.
    """

    workers: int = 0
    forks: int = 0
    map_calls: int = 0
    reused_maps: int = 0
    tasks: int = 0
    chunksize: int = 1

    @property
    def tasks_per_worker(self) -> float:
        return self.tasks / self.workers if self.workers else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "forks": self.forks,
            "map_calls": self.map_calls,
            "reused_maps": self.reused_maps,
            "tasks": self.tasks,
            "tasks_per_worker": self.tasks_per_worker,
            "chunksize": self.chunksize,
        }


class _PersistentPool:
    """One forked worker pool kept alive across maps (registry entry)."""

    def __init__(self, workers: int, warmup: Optional[Callable[[], None]]) -> None:
        ctx = mp.get_context("fork")
        self.pool = ctx.Pool(processes=workers, initializer=warmup)
        self.stats = PoolStats(workers=workers, forks=workers)

    def map(self, fn, tasks, chunksize: int):
        self.stats.map_calls += 1
        self.stats.tasks += len(tasks)
        self.stats.chunksize = chunksize
        return self.pool.map(fn, tasks, chunksize=chunksize)

    def close(self) -> None:
        self.pool.terminate()
        self.pool.join()


#: Live persistent pools, keyed by ``(workers, warmup identity)``.
_POOLS: Dict[Tuple[int, Optional[Callable]], _PersistentPool] = {}


def _acquire_pool(
    workers: int, warmup: Optional[Callable[[], None]]
) -> _PersistentPool:
    key = (workers, warmup)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _PersistentPool(workers, warmup)
        _POOLS[key] = pool
    else:
        pool.stats.reused_maps += 1
    return pool


def shutdown_pools() -> int:
    """Terminate every persistent pool; returns how many were closed.

    Safe to call any time (new maps just re-fork); registered ``atexit``
    so interpreter shutdown never hangs on live workers.
    """
    n = 0
    for pool in list(_POOLS.values()):
        pool.close()
        n += 1
    _POOLS.clear()
    return n


atexit.register(shutdown_pools)


class ParallelMap:
    """Map a picklable function over items on a deterministic process pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``None``/``0`` means one per CPU.  On platforms without ``fork``
        the map silently degrades to the serial path — correctness first.
    warmup:
        Optional zero-argument callable run once in each worker after it
        starts (module imports are already inherited via ``fork``).  Also
        part of the persistent-pool registry key, so it must be a stable
        module-level callable for pools to be reused across maps.
    chunksize:
        Items per pool task; ``None`` (default) auto-sizes to roughly four
        chunks per worker — batched shipping for big grids, per-item
        scheduling (fair for heterogeneous cell costs) for small ones.
    persistent:
        Keep workers alive across ``map()`` calls via the module registry
        (default).  ``False`` restores the historic fork-per-map pool for
        callers that mutate module state between maps.

    Notes
    -----
    ``fn`` and every item must be picklable (module-level functions and
    plain dataclasses; no closures).  Results arrive in submission order.
    After a parallel map, :attr:`last_stats` holds a snapshot of the
    serving pool's lifetime :class:`PoolStats` (``None`` after serial
    maps).
    """

    def __init__(
        self,
        jobs: int = 1,
        warmup: Optional[Callable[[], None]] = None,
        chunksize: Optional[int] = None,
        persistent: bool = True,
    ) -> None:
        # None/0 -> all CPUs, negatives -> 1.
        self.jobs = (
            (os.cpu_count() or 1) if jobs is None or jobs == 0 else max(1, int(jobs))
        )
        self.warmup = warmup
        self.chunksize = None if chunksize is None else max(1, int(chunksize))
        self.persistent = bool(persistent)
        #: Stats snapshot of the pool that served the last parallel map.
        self.last_stats: Optional[PoolStats] = None

    @property
    def is_serial(self) -> bool:
        return self.jobs <= 1 or not _fork_available()

    def _chunksize_for(self, num_tasks: int, workers: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, num_tasks // (workers * 4))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[ItemOutcome]:
        """Apply ``fn`` to every item; outcomes are in submission order."""
        items = list(items)
        if not items:
            return []
        if self.is_serial or len(items) == 1:
            self.last_stats = None
            return [_guarded(fn, i, item) for i, item in enumerate(items)]
        tasks = [(fn, i, item) for i, item in enumerate(items)]
        # __main__-defined functions resolve by name in the *forked* worker
        # namespace: a function defined after the pool forked is missing
        # there, and the unpickling error kills the worker mid-queue (the
        # map never returns).  Importable-module functions are immune — the
        # worker (re)imports the module on demand — so only scripts'
        # __main__ functions fall back to a fresh fork-per-map pool.
        persistent = (
            self.persistent and getattr(fn, "__module__", "__main__") != "__main__"
        )
        if persistent:
            chunk = self._chunksize_for(len(tasks), self.jobs)
            pool = _acquire_pool(self.jobs, self.warmup)
            try:
                outcomes = pool.map(_pool_entry, tasks, chunk)
            except BaseException:
                # A broken pool (killed worker, unpicklable payload mid-map)
                # must not serve the next caller: evict and re-fork lazily.
                if _POOLS.pop((self.jobs, self.warmup), None) is not None:
                    pool.close()
                raise
            self.last_stats = replace(pool.stats)
        else:
            ctx = mp.get_context("fork")
            workers = min(self.jobs, len(items))
            chunk = self._chunksize_for(len(tasks), workers)
            with ctx.Pool(processes=workers, initializer=self.warmup) as pool:
                outcomes = pool.map(_pool_entry, tasks, chunksize=chunk)
            self.last_stats = PoolStats(
                workers=workers, forks=workers, map_calls=1,
                tasks=len(tasks), chunksize=chunk,
            )
        # Pool.map preserves order already; assert the invariant cheaply.
        for i, out in enumerate(outcomes):
            if out.index != i:  # pragma: no cover - would be a stdlib bug
                raise RuntimeError("process pool returned results out of order")
        return outcomes

    def map_values(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Like :meth:`map` but unwraps, re-raising the first item error."""
        return [out.unwrap() for out in self.map(fn, items)]


def default_warmup() -> None:  # pragma: no cover - exercised in subprocesses
    """Touch the heavy imports so the first real item does not pay them.

    With ``fork`` this is usually a no-op (the parent already imported
    everything); under unusual embedding it still guarantees a warm worker.
    """
    import numpy  # noqa: F401

    from .. import experiments  # noqa: F401
