"""Index-aware trace slicing: the ``trace tail`` / ``trace query`` backends.

Both entry points ride :func:`repro.obs.trace.read_trace`'s transparent
multi-format reading (plain, gzip-compressed, segmented), but when
``path`` is a segmented trace they consult its one-line JSON index first
and skip whole segment files that cannot contain a match:

* time filters (``since`` / ``until``) skip segments whose recorded
  ``first_t``/``last_t`` range does not overlap the query window;
* a ``node`` filter on a node-sharded trace (``shard_key="node"``) skips
  every other node's shards outright;
* :func:`trace_tail` with no filters skips leading segments by their
  recorded event counts, decompressing only the files that can reach the
  last ``n`` events.

Filter semantics are deliberately simple and uniform:

* ``kind`` matches ``event["kind"]`` exactly;
* ``node`` matches ``event["node"]`` exactly (events without the field —
  the header, fleet-level rows — never match);
* ``since``/``until`` bound the **virtual** timestamp ``t`` inclusively;
  events without a numeric ``t`` never match a time-bounded query.

Events come back in trace order (per-shard order for sharded traces —
the writer's documented interleaving caveat applies).  In strict mode a
hand-picked segment read validates the trace and index schemas from the
index document itself, which the writer stamps at publish time.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

from .trace import (
    TRACE_INDEX_SCHEMA,
    TRACE_SCHEMA,
    TraceError,
    _iter_jsonl,
    read_trace,
    read_trace_index,
)

__all__ = ["trace_query", "trace_tail"]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matches(
    event: Dict[str, Any],
    kind: Optional[str],
    node: Optional[Any],
    since: Optional[float],
    until: Optional[float],
) -> bool:
    if kind is not None and event.get("kind") != kind:
        return False
    if node is not None and event.get("node") != node:
        return False
    if since is not None or until is not None:
        t = event.get("t")
        if not _is_number(t):
            return False
        if since is not None and t < since:
            return False
        if until is not None and t > until:
            return False
    return True


def _segment_relevant(
    seg: Dict[str, Any],
    shard_key: Optional[str],
    node: Optional[Any],
    since: Optional[float],
    until: Optional[float],
) -> bool:
    """Whether a segment (judged by its index entry alone) can match."""
    if node is not None and shard_key == "node":
        # Shard-None segments hold only node-less events, which a node
        # filter excludes anyway.
        if seg.get("shard") != node:
            return False
    if since is not None or until is not None:
        first, last = seg.get("first_t"), seg.get("last_t")
        if not (_is_number(first) and _is_number(last)):
            # No timed events recorded: nothing a time filter can match.
            return False
        if until is not None and first > until:
            return False
        if since is not None and last < since:
            return False
    return True


def _check_index(path: str, index: Dict[str, Any], strict: bool) -> None:
    """Schema validation for hand-picked segment reads (strict only).

    The writer stamps both schemas into the index at publish time, so an
    indexed query need not decompress segment 0 just to see the header.
    """
    if not strict:
        return
    schema = index.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"{path}: unsupported trace schema {schema!r} "
            f"(this reader understands {TRACE_SCHEMA})"
        )
    ischema = index.get("index_schema")
    if ischema != TRACE_INDEX_SCHEMA:
        raise TraceError(
            f"{path}: unsupported trace index schema {ischema!r} "
            f"(this reader understands {TRACE_INDEX_SCHEMA})"
        )


def _iter_filtered(
    path: str,
    kind: Optional[str],
    node: Optional[Any],
    since: Optional[float],
    until: Optional[float],
    strict: bool,
) -> Iterator[Dict[str, Any]]:
    """Yield matching events, using the segment index to skip files."""
    filtered = (
        kind is not None or node is not None
        or since is not None or until is not None
    )
    index = read_trace_index(path) if filtered else None
    if index is None:
        # Unfiltered, or not segmented: the plain reader (which also
        # validates header and schema) is the whole story.
        for event in read_trace(path, strict=strict):
            if _matches(event, kind, node, since, until):
                yield event
        return
    _check_index(path, index, strict)
    base = os.path.dirname(os.path.abspath(path))
    codec = index.get("compress")
    shard_key = index.get("shard_key")
    for seg in index.get("segments", []):
        if not _segment_relevant(seg, shard_key, node, since, until):
            continue
        seg_path = os.path.join(base, seg.get("file", ""))
        for event in _iter_jsonl(seg_path, codec, strict):
            if _matches(event, kind, node, since, until):
                yield event


def trace_query(
    path: str,
    kind: Optional[str] = None,
    node: Optional[Any] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    limit: Optional[int] = None,
    strict: bool = True,
) -> Iterator[Dict[str, Any]]:
    """Yield the events of a trace matching every given filter, in order.

    ``limit`` stops after N matches (None = all).  Works on any storage
    layout; segmented traces skip irrelevant segment files via the index.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive (or None for all)")
    emitted = 0
    for event in _iter_filtered(path, kind, node, since, until, strict):
        yield event
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def trace_tail(
    path: str,
    n: int = 10,
    kind: Optional[str] = None,
    node: Optional[Any] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    strict: bool = True,
) -> List[Dict[str, Any]]:
    """Return the last ``n`` matching events of a trace.

    The unfiltered tail of a segmented trace uses the index's per-segment
    event counts to skip every leading segment that cannot reach the
    final ``n`` events.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    unfiltered = (
        kind is None and node is None and since is None and until is None
    )
    index = read_trace_index(path) if unfiltered else None
    out: deque = deque(maxlen=n)
    if index is not None:
        _check_index(path, index, strict)
        segments = index.get("segments", [])
        total = sum(int(seg.get("events", 0)) for seg in segments)
        skip = max(0, total - n)
        base = os.path.dirname(os.path.abspath(path))
        codec = index.get("compress")
        seen = 0
        for seg in segments:
            events = int(seg.get("events", 0))
            before = seen
            seen += events
            if before + events <= skip:
                continue  # wholly before the tail window: never opened
            seg_path = os.path.join(base, seg.get("file", ""))
            out.extend(_iter_jsonl(seg_path, codec, strict))
        return list(out)
    out.extend(_iter_filtered(path, kind, node, since, until, strict))
    return list(out)
