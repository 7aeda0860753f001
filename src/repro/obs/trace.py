"""Schema-versioned JSONL run traces: buffered atomic writes, compression,
segmentation, and a transparent multi-format reader.

A trace is an append-only sequence of JSON events, one per line.  The
first line is always a ``trace-header`` event carrying the schema version
and free-form run metadata; every later event has a ``kind`` plus
whatever fields its emitter chose (see EXPERIMENTS.md for the catalog:
``drl-step``, ``controller-window``, ``rapl-window``, ``watchdog-trip``,
``checkpoint``, ``run-summary``, ...).

Storage layouts (ISSUE 9) — all read back through the same
:func:`read_trace`:

* **plain** (the default, byte-identical to earlier schema-1 traces):
  one JSONL file at ``path``;
* **compressed**: the same single stream gzip-compressed (stdlib) at
  ``path``, detected on read by magic bytes;
* **segmented** (``segment_events=N`` and/or ``shard_key=...``): events
  are rotated into ``<path>.000N[...].jsonl[.gz]`` segment files
  (optionally sharded by an event field such as ``node``) and ``path``
  itself becomes a one-line JSON **index** mapping each segment to its
  event count, first/last virtual timestamp and byte size — enough for
  ``trace tail`` / ``trace query`` to skip whole segments without
  decompressing them.

Durability discipline mirrors the checkpoint layer's: events are buffered
in memory and written in batches to ``<file>.part``; finished files are
fsynced and ``os.replace``d over the final name (segments at rotation,
the index at :meth:`TraceWriter.close`), so a published trace is always
complete and a crash leaves at worst ``.part`` files that readers ignore
(or can be inspected by hand — they are still line-delimited JSON).

Floats are serialised with python's ``repr`` (via :mod:`json`), which
round-trips ``float`` exactly — the trace-vs-in-memory equality the
acceptance tests assert depends on this.
"""

from __future__ import annotations

import gzip
import json
import os
import warnings
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_INDEX_SCHEMA",
    "TraceError",
    "TraceWriter",
    "read_trace",
    "read_trace_index",
]

#: Bump when the event layout changes incompatibly.
TRACE_SCHEMA = 1

#: Bump when the segment-index layout changes incompatibly.
TRACE_INDEX_SCHEMA = 1

#: Events buffered before a batch write (keeps syscalls off the step path).
DEFAULT_BUFFER_EVENTS = 256

_GZIP_MAGIC = b"\x1f\x8b"
#: Recognised on read only, to name the codec this reader lacks.
_ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"


class TraceError(RuntimeError):
    """Invalid trace usage or an unreadable/incompatible trace file."""


def _jsonable(obj: Any):
    """JSON fallback for the numpy types instrumented code hands us."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj).__name__} into a trace event")


def _codec_ext(compress: Optional[str]) -> str:
    return ".gz" if compress == "gzip" else ""


def _open_compressed_writer(raw, compress: Optional[str]):
    """Wrap an open binary file in the requested compressor (or return it)."""
    if compress == "gzip":
        # mtime=0 and an empty embedded filename keep compressed bytes
        # deterministic for equal inputs regardless of path or wall clock.
        return gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
    return raw


class _Segment:
    """One open segment file (the writer's unit of rotation)."""

    def __init__(self, path: str, compress: Optional[str]) -> None:
        self.path = path
        self.part_path = path + ".part"
        self.raw = open(self.part_path, "wb")
        self.file = _open_compressed_writer(self.raw, compress)
        self.compressed = compress is not None
        self.events = 0
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self.buf: List[str] = []

    def note(self, t: Optional[float]) -> None:
        self.events += 1
        if t is not None:
            if self.first_t is None:
                self.first_t = t
            self.last_t = t

    def write_buffer(self) -> None:
        if self.buf:
            self.file.write(("\n".join(self.buf) + "\n").encode("utf-8"))
            self.buf.clear()
            if not self.compressed:
                self.file.flush()

    def publish(self) -> int:
        """Flush, fsync and atomically rename; returns the final byte size."""
        self.write_buffer()
        if self.file is not self.raw:
            self.file.close()  # flush the compressor's trailer
        self.raw.flush()
        os.fsync(self.raw.fileno())
        self.raw.close()
        os.replace(self.part_path, self.path)
        return os.path.getsize(self.path)


class TraceWriter:
    """Buffered JSONL event sink for one run (or one training session).

    Parameters
    ----------
    path:
        Final trace location.  Writes go to ``<file>.part`` until
        :meth:`close` atomically publishes everything.
    meta:
        Free-form JSON-able metadata stored in the header event (app,
        policy, seed, profile, ...).
    buffer_events:
        Events accumulated before a batch write.
    segment_events:
        Rotate to a new segment file every N events (per shard).  Enables
        the indexed layout: ``path`` becomes the JSON segment index.
    compress:
        ``"gzip"`` (stdlib); ``None`` writes plain JSONL.
    shard_key:
        Event field (e.g. ``"node"``) whose value routes events into
        per-shard segment files; events without the field go to the main
        shard.  Enables the indexed layout.  Per-shard event order is
        preserved; cross-shard interleaving is not (readers that need a
        global order should keep ``shard_key=None``).
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        buffer_events: int = DEFAULT_BUFFER_EVENTS,
        segment_events: Optional[int] = None,
        compress: Optional[str] = None,
        shard_key: Optional[str] = None,
    ) -> None:
        if buffer_events <= 0:
            raise ValueError("buffer_events must be positive")
        if segment_events is not None and segment_events <= 0:
            raise ValueError("segment_events must be positive")
        if compress not in (None, "gzip"):
            raise ValueError(f"unknown trace codec {compress!r}; the codec is gzip")
        self.path = str(path)
        self.part_path = self.path + ".part"
        self.buffer_events = int(buffer_events)
        self.segment_events = segment_events
        self.compress = compress
        self.shard_key = shard_key
        self.events_written = 0
        self._meta = meta or {}
        self._closed = False
        self._indexed = segment_events is not None or shard_key is not None
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        if self._indexed:
            #: shard value -> open segment; the index accumulates entries
            #: for published (rotated) segments in creation order.
            self._shards: Dict[Any, _Segment] = {}
            self._index_entries: List[Dict[str, Any]] = []
            self._seg_seq = 0
            self._segment: Optional[_Segment] = None
        else:
            self._segment = _Segment(self.path, compress)
        self.emit("trace-header", schema=TRACE_SCHEMA, meta=self._meta)

    # ------------------------------------------------------------------ events

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Append one event.  ``t`` is the virtual (simulation) timestamp."""
        if self._closed:
            raise TraceError(f"emit on closed trace {self.path!r}")
        event: Dict[str, Any] = {"kind": kind}
        if t is not None:
            event["t"] = float(t)
        event.update(fields)
        line = json.dumps(event, default=_jsonable)
        self.events_written += 1
        if not self._indexed:
            seg = self._segment
            seg.buf.append(line)
            seg.note(t)
            if len(seg.buf) >= self.buffer_events:
                self.flush()
            return
        shard = fields.get(self.shard_key) if self.shard_key is not None else None
        seg = self._shards.get(shard)
        if seg is None:
            seg = self._open_segment(shard)
        seg.buf.append(line)
        seg.note(t)
        if self.segment_events is not None and seg.events >= self.segment_events:
            self._rotate(shard)
        elif len(seg.buf) >= self.buffer_events:
            seg.write_buffer()

    # ---------------------------------------------------------------- segments

    def _segment_name(self, shard: Any) -> str:
        base = os.path.basename(self.path)
        tag = "" if shard is None else f".{self.shard_key}{shard}"
        name = f"{base}.{self._seg_seq:04d}{tag}.jsonl{_codec_ext(self.compress)}"
        self._seg_seq += 1
        return name

    def _open_segment(self, shard: Any) -> _Segment:
        name = self._segment_name(shard)
        seg = _Segment(
            os.path.join(os.path.dirname(os.path.abspath(self.path)), name),
            self.compress,
        )
        seg.name = name  # basename recorded in the index
        seg.shard = shard
        seg.seq = self._seg_seq - 1
        self._shards[shard] = seg
        return seg

    def _rotate(self, shard: Any) -> None:
        seg = self._shards.pop(shard)
        size = seg.publish()
        self._index_entries.append(
            {
                "file": seg.name,
                "seq": seg.seq,
                "shard": seg.shard,
                "events": seg.events,
                "first_t": seg.first_t,
                "last_t": seg.last_t,
                "bytes": size,
            }
        )

    # ------------------------------------------------------------------- sinks

    def flush(self) -> None:
        """Write buffered events to the open part file(s) (no fsync)."""
        if self._indexed:
            for seg in self._shards.values():
                seg.write_buffer()
        else:
            self._segment.write_buffer()

    def close(self) -> None:
        """Flush, fsync and atomically publish the trace (idempotent).

        Indexed traces publish every open segment first, then write the
        one-line JSON index to ``path`` — readers never observe a
        published index naming an unpublished segment.
        """
        if self._closed:
            return
        if self._indexed:
            for shard in list(self._shards):
                self._rotate(shard)
            # Creation order, not rotation order: shards rotate
            # independently, but segment 0 (which opens with the
            # trace-header) must read back first.
            self._index_entries.sort(key=lambda e: e["seq"])
            index = {
                "kind": "trace-index",
                "schema": TRACE_SCHEMA,
                "index_schema": TRACE_INDEX_SCHEMA,
                "compress": self.compress,
                "shard_key": self.shard_key,
                "segment_events": self.segment_events,
                "events": self.events_written,
                "meta": self._meta,
                "segments": self._index_entries,
            }
            with open(self.part_path, "w") as f:
                json.dump(index, f)
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(self.part_path, self.path)
        else:
            self._segment.publish()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -------------------------------------------------------------------- reading

def _sniff_codec(path: str) -> Optional[str]:
    """Identify a compressed stream by magic bytes (None = plain text)."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head[:2] == _GZIP_MAGIC:
        return "gzip"
    if head == _ZSTD_MAGIC:
        return "zstd"
    return None


def _open_stream(path: str, codec: Optional[str]):
    """Open a (possibly compressed) trace file as a binary line stream."""
    if codec == "gzip":
        return gzip.open(path, "rb")
    if codec == "zstd":
        raise TraceError(
            f"{path}: zstd-compressed trace; only plain and gzip traces are readable"
        )
    return open(path, "rb")


def read_trace_index(path: str) -> Optional[Dict[str, Any]]:
    """Return the segment index of an indexed trace, or None.

    A plain or compressed single-file trace (or anything unparseable)
    returns None — callers fall back to streaming the whole file.
    """
    if not os.path.exists(path) or _sniff_codec(path) is not None:
        return None
    try:
        with open(path, "rb") as f:
            first = f.readline(16 * 1024 * 1024)
        index = json.loads(first.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        return None
    if not isinstance(index, dict) or index.get("kind") != "trace-index":
        return None
    return index


def _iter_jsonl(
    path: str, codec: Optional[str], strict: bool
) -> Iterator[Dict[str, Any]]:
    """Yield the events of one JSONL file (plain or compressed).

    Damage handling: strict raises :class:`TraceError`; lenient warns —
    carrying the path and line number so silent mid-file truncation is
    diagnosable — and stops at the first broken line.
    """
    with _open_stream(path, codec) as f:
        lineno = 0
        while True:
            try:
                raw = f.readline()
            except (EOFError, OSError) as exc:
                # A torn compressed stream surfaces here rather than as a
                # bad line: same truncation semantics either way.
                if strict:
                    raise TraceError(
                        f"{path}: truncated {codec} stream after line "
                        f"{lineno} ({exc})"
                    ) from exc
                warnings.warn(
                    f"{path}: truncated {codec} stream after line {lineno} "
                    f"({exc}); remaining events skipped",
                    stacklevel=3,
                )
                return
            if not raw:
                break
            lineno += 1
            if not raw.strip():
                continue
            try:
                event = json.loads(raw.decode("utf-8").strip())
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if strict:
                    raise TraceError(f"{path}:{lineno}: bad JSON ({exc})") from exc
                warnings.warn(
                    f"{path}:{lineno}: bad JSON ({exc}); remaining events "
                    "skipped",
                    stacklevel=3,
                )
                return  # truncated/torn/corrupted: stop, never resync
            if not isinstance(event, dict):
                if strict:
                    raise TraceError(
                        f"{path}:{lineno}: trace event is not a JSON object"
                    )
                warnings.warn(
                    f"{path}:{lineno}: trace event is not a JSON object; "
                    "remaining events skipped",
                    stacklevel=3,
                )
                return
            yield event


def _iter_indexed(
    path: str, index: Dict[str, Any], strict: bool
) -> Iterator[Dict[str, Any]]:
    """Yield events of every segment named by an index, in index order."""
    schema = index.get("index_schema")
    if schema != TRACE_INDEX_SCHEMA:
        if strict:
            raise TraceError(
                f"{path}: unsupported trace index schema {schema!r} "
                f"(this reader understands {TRACE_INDEX_SCHEMA})"
            )
        warnings.warn(
            f"{path}: unsupported trace index schema {schema!r}; "
            "no events read",
            stacklevel=3,
        )
        return
    codec = index.get("compress")
    base = os.path.dirname(os.path.abspath(path))
    for seg in index.get("segments", []):
        seg_path = os.path.join(base, seg.get("file", ""))
        if not os.path.exists(seg_path):
            if strict:
                raise TraceError(f"{path}: missing trace segment {seg_path}")
            warnings.warn(
                f"{path}: missing trace segment {seg_path}; remaining "
                "events skipped",
                stacklevel=3,
            )
            return
        yield from _iter_jsonl(seg_path, codec, strict)


def read_trace(path: str, strict: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield every event of a trace, header first — any storage layout.

    Plain JSONL, gzip-compressed streams (detected by magic bytes)
    and segmented traces (``path`` is a ``trace-index`` document) all
    read back through this one call; segmented traces yield their
    segments in index order.

    With ``strict`` (default) the first event must be a ``trace-header``
    whose schema is known and any damage raises :class:`TraceError`; pass
    ``strict=False`` to inspect damaged or in-progress (``.part``) files —
    lenient reads warn (with path and line number) and stop cleanly at
    the first broken line, so a torn (partially written) final line from
    a crashed writer yields every complete event before it instead of
    poisoning the read, and a *mid-file* corruption is surfaced rather
    than silently truncating the tail.

    An empty (zero-byte) file — a writer that crashed before its first
    flush — raises in strict mode like any other missing-header damage;
    lenient mode warns and yields nothing.

    Lines are read as bytes and decoded individually: a line torn mid-way
    through a multi-byte UTF-8 character is a truncation like any other,
    not a stream-level decode crash.
    """
    if not os.path.exists(path) and os.path.exists(path + ".part"):
        # Convenience for crashed runs: fall back to the unpublished part
        # file (complete lines only; damage surfaces per-line below).
        path = path + ".part"
    codec = _sniff_codec(path) if os.path.exists(path) else None
    index = read_trace_index(path) if codec is None else None
    if index is not None:
        events = _iter_indexed(path, index, strict)
    else:
        events = _iter_jsonl(path, codec, strict)
    first = True
    for event in events:
        if first:
            first = False
            if strict:
                if event.get("kind") != "trace-header":
                    raise TraceError(f"{path}: missing trace-header event")
                schema = event.get("schema")
                if schema != TRACE_SCHEMA:
                    raise TraceError(
                        f"{path}: unsupported trace schema {schema!r} "
                        f"(this reader understands {TRACE_SCHEMA})"
                    )
        yield event
    if first:
        # Zero events: a writer that died before its first flush, or a
        # file that was never a trace.  Strict treats the missing
        # header as damage; lenient warns so scripted summaries of a
        # crashed run directory don't die on the one empty file.
        if strict:
            raise TraceError(f"{path}: empty trace (no events)")
        warnings.warn(f"{path}: empty trace (no events)", stacklevel=2)
