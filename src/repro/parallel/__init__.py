"""Deterministic parallel execution for experiment grids.

Every paper artifact is a grid of *independent* simulated runs — fig7 is
5 apps x 4 policies, table3 is 5 apps x 3 loads, the ablations sweep
reward weights — and each run owns its own :class:`~repro.sim.engine.Engine`
and :class:`~repro.sim.rng.RngRegistry`, so fanning the grid out over a
process pool is free of shared state and produces *bitwise identical*
results to the serial loop.  This package provides:

* :class:`ParallelMap` — an order-preserving process-pool map with per-item
  failure isolation (a crashing item returns an error, siblings survive),
  worker warm-up, and a serial in-process fallback when ``jobs == 1`` or
  the platform cannot ``fork``.
* :class:`RunResultCache` — a content-addressed on-disk cache for run
  results, keyed by a stable hash of the complete run description
  (app / policy / trace content / seed / profile) and invalidated by a
  schema version.
* :mod:`repro.parallel.grid` — picklable :class:`RunSpec` descriptions of
  single ``run_policy`` cells plus :func:`run_grid`, which combines the
  pool and the cache.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    RunResultCache,
    content_key,
    default_cache_root,
    plan_digest,
    resolve_cache,
)
from .grid import (
    EXTRAS_COLLECTORS,
    GridOutcome,
    RunSpec,
    execute_run_spec,
    grid_trace_path,
    run_grid,
)
from .pool import (
    ItemOutcome,
    ParallelMap,
    PoolStats,
    derive_seed,
    shutdown_pools,
)

__all__ = [
    "ParallelMap",
    "ItemOutcome",
    "PoolStats",
    "derive_seed",
    "shutdown_pools",
    "RunResultCache",
    "content_key",
    "default_cache_root",
    "plan_digest",
    "resolve_cache",
    "CACHE_SCHEMA_VERSION",
    "RunSpec",
    "GridOutcome",
    "run_grid",
    "grid_trace_path",
    "execute_run_spec",
    "EXTRAS_COLLECTORS",
]
