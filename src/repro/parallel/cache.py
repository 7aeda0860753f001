"""Content-addressed on-disk cache for run results.

A cache entry's address is a SHA-256 over the *content* of the run
description — app, policy, the trace's edge/rate arrays, seed, profile
knobs, and (for DRL policies) a digest of the trained agent file — so two
invocations that would simulate the same world share one entry, and any
change to an input yields a different address automatically.  Code changes
that alter run *semantics* without changing inputs are handled the blunt
way: bump :data:`CACHE_SCHEMA_VERSION`, which namespaces the whole store.

It is the one place experiments persist anything.  Layout::

    $REPRO_CACHE/                 (default ./.artifacts)
        runs/v<schema>/ab/abcdef...pkl   run results and workload
                                         calibrations, sharded by key prefix
        runs/v<schema>/ab/abcdef...npz   trained DeepPower agents, keyed on
                                         their full training recipe

Writes are atomic (unique temp file + ``os.replace``), so concurrent
writers — a ``--jobs`` pool, or pytest-xdist workers sharing a cache dir —
can race on the same key and both land a complete entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import is_dataclass, fields
from typing import Any, Optional

import numpy as np

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "content_key",
    "default_cache_root",
    "file_digest",
    "plan_digest",
    "RunResultCache",
]

#: Bump when run semantics change (simulator physics, metrics definitions,
#: policy behaviour) so stale entries can never masquerade as fresh runs.
CACHE_SCHEMA_VERSION = 1


def default_cache_root() -> str:
    """The artifact root: ``$REPRO_CACHE``, else ``./.artifacts``."""
    return os.environ.get("REPRO_CACHE", os.path.join(os.getcwd(), ".artifacts"))


def _canonical(obj: Any, out: list) -> None:
    """Flatten ``obj`` into a stable byte-string stream.

    Dicts are key-sorted, numpy arrays contribute dtype/shape/raw bytes,
    dataclasses their field dict, floats their exact IEEE repr — anything
    that would hash differently across processes (id(), unordered repr) is
    normalised away.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj).encode())
    elif isinstance(obj, float):
        out.append(obj.hex().encode())
    elif isinstance(obj, bytes):
        out.append(b"b" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out.append(f"nd:{arr.dtype.str}:{arr.shape}".encode())
        out.append(arr.tobytes())
    elif isinstance(obj, np.generic):
        _canonical(obj.item(), out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"seq{len(obj)}".encode())
        for x in obj:
            _canonical(x, out)
    elif isinstance(obj, dict):
        out.append(f"map{len(obj)}".encode())
        for k in sorted(obj, key=repr):
            _canonical(k, out)
            _canonical(obj[k], out)
    elif is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__.encode())
        _canonical({f.name: getattr(obj, f.name) for f in fields(obj)}, out)
    else:
        raise TypeError(
            f"cannot build a stable cache key from {type(obj).__name__!r}; "
            "pass primitives, arrays, dataclasses, or containers thereof"
        )


def content_key(payload: Any) -> str:
    """Stable SHA-256 hex address of an arbitrary (canonicalisable) payload."""
    h = hashlib.sha256()
    parts: list = []
    _canonical(payload, parts)
    for p in parts:
        h.update(len(p).to_bytes(8, "big"))
        h.update(p)
    return h.hexdigest()


def file_digest(path: str) -> Optional[str]:
    """SHA-256 of a file's bytes (None if it does not exist).

    Used to fold a trained-agent artifact into a run's cache key: retrain
    the agent and every dependent cached evaluation is invalidated.
    """
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def plan_digest(plan: Any) -> Optional[str]:
    """Content digest of a fault/chaos plan for run cache keys.

    ``None`` for no plan *and* for a plan whose interpretation is a
    guaranteed no-op (``plan.is_empty``), so pre-existing clean-run cache
    entries stay addressable; any non-trivial plan contributes its full
    content hash, so a faulted run can never collide with a clean run —
    or with a run under a different fault scenario — of the same spec.
    """
    if plan is None or getattr(plan, "is_empty", False):
        return None
    return content_key(plan)


class RunResultCache:
    """Content-addressed store under ``<root>/runs/v<schema>/``.

    :meth:`get`/:meth:`put` hold pickled run results and calibrations;
    trained agents are ``.npz`` files at ``path_for(key, ".npz")``,
    written by the agent's own atomic save.

    Parameters
    ----------
    root:
        Artifact root; defaults to ``$REPRO_CACHE`` / ``./.artifacts``.
    schema_version:
        Namespace for entries; bumping it orphans (never corrupts) old ones.

    Corrupt or truncated entries read as misses and are deleted, so a
    killed writer can only ever cost a recomputation.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        schema_version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        self.root = root if root is not None else default_cache_root()
        self.schema_version = int(schema_version)
        self.dir = os.path.join(self.root, "runs", f"v{self.schema_version}")
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ paths

    def path_for(self, key: str, suffix: str = ".pkl") -> str:
        """Entry path of ``key``: ``.pkl`` for run results, ``.npz`` agents."""
        return os.path.join(self.dir, key[:2], key + suffix)

    def key(self, payload: Any) -> str:
        """Address for a payload; schema version is part of the content."""
        return content_key({"schema": self.schema_version, "payload": payload})

    # -------------------------------------------------------------------- I/O

    def get(self, key: str) -> Optional[Any]:
        """Stored value for ``key`` or None (corrupt entries are evicted)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt entry: treat as a miss and clear it.
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing eviction
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> str:
        """Atomically store ``value`` at ``key``; returns the entry path."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return path

    def contains(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResultCache(dir={self.dir!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def resolve_cache(
    result_cache: "bool | RunResultCache | None",
) -> Optional[RunResultCache]:
    """Normalise the ``result_cache`` argument experiments accept.

    ``True`` -> a cache at the default root; ``False``/``None`` -> no
    caching; an existing :class:`RunResultCache` passes through.
    """
    if isinstance(result_cache, RunResultCache):
        return result_cache
    if result_cache:
        return RunResultCache()
    return None
