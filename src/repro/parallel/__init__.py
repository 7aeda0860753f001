"""Deterministic parallel execution for experiment grids.

Every paper artifact is a grid of *independent* simulated runs — fig7 is
5 apps x 4 policies, table3 is 5 apps x 3 loads, the ablations sweep
reward weights — and each run owns its own :class:`~repro.sim.engine.Engine`
and :class:`~repro.sim.rng.RngRegistry`, so fanning the grid out over a
process pool is free of shared state and produces *bitwise identical*
results to the serial loop.  This package provides:

* :class:`ParallelMap` — an order-preserving process-pool map with per-item
  failure isolation (a crashing item returns an error, siblings survive)
  on one fork pool per map, and a serial in-process fallback when
  ``jobs == 1`` or the platform cannot ``fork``.
* :class:`RunResultCache` — the content-addressed on-disk store for run
  results and trained agents, keyed by a stable hash of the complete run
  description or training recipe and invalidated by a schema version.
* :mod:`repro.parallel.grid` — picklable :class:`RunSpec` descriptions of
  single ``run_policy`` cells plus :func:`run_grid`, which combines the
  pool and the cache and stores each cell as soon as it finishes.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cache import (
        CACHE_SCHEMA_VERSION,
        RunResultCache,
        content_key,
        default_cache_root,
        plan_digest,
        resolve_cache,
    )
    from .cells import derive_seed
    from .grid import (
        EXTRAS_COLLECTORS,
        GridOutcome,
        RunSpec,
        execute_run_spec,
        grid_trace_path,
        run_grid,
    )
    from .pool import ItemOutcome, ParallelMap

__all__ = [
    "ParallelMap",
    "ItemOutcome",
    "derive_seed",
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

__getattr__, __dir__ = lazy_exports(__name__)
