"""Observability layer: structured run traces, spans, trace readers.

The paper evaluates DeepPower through per-interval introspection (Fig 8's
frequency/queue/reward time series, Fig 7's run summaries); this package
is the substrate that makes the repro equally inspectable.  The trace is
the one record of a run: every step, watchdog transition, RAPL window and
glitch, and run summary is an event in it.

* :class:`TraceWriter` — schema-versioned JSONL run events with buffered
  atomic writes (:mod:`repro.obs.trace`),
* :class:`SpanRecorder` — wall-clock span timing for the engine loop,
  ``agent.update()`` and ``ThreadController.tick()``; its stats close the
  trace as one ``span-summary`` event (:mod:`repro.obs.spans`),
* :func:`summarize_trace` — Fig 8-style per-interval tables and per-kind
  event counts rebuilt from a trace file (:mod:`repro.obs.summarize`).

:class:`Observability` bundles the trace and spans behind one handle that
instrumented layers accept as an optional parameter.  The default
everywhere is ``None`` — no trace, no spans, no measurable cost — and a
handle with neither sink runs exactly as ``None`` does (the perf gate's
``--obs-check`` times that handle against ``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .query import trace_query, trace_tail
    from .spans import SpanRecorder
    from .summarize import (
        FleetTraceSummary,
        TraceSummary,
        render_fleet_summary,
        render_summary,
        summarize_fleet_trace,
        summarize_trace,
    )
    from .trace import (
        TRACE_SCHEMA,
        TraceError,
        TraceWriter,
        read_trace,
        read_trace_index,
    )

__all__ = [
    "SpanRecorder",
    "TraceWriter",
    "TraceError",
    "TRACE_SCHEMA",
    "read_trace",
    "read_trace_index",
    "trace_query",
    "trace_tail",
    "TraceSummary",
    "summarize_trace",
    "render_summary",
    "FleetTraceSummary",
    "summarize_fleet_trace",
    "render_fleet_summary",
    "Observability",
]

__getattr__, __dir__ = lazy_exports(__name__)


class Observability:
    """One handle bundling the trace and spans of a run.

    Parameters
    ----------
    trace:
        A :class:`TraceWriter`, or None for no event trace.
    profile:
        Attach a :class:`SpanRecorder` so instrumented hot paths time
        themselves (off by default — span recording costs two
        ``perf_counter`` calls per region).  Its stats are written into
        the trace on :meth:`close`, so profiling needs a trace.
    """

    def __init__(
        self,
        trace: Optional[TraceWriter] = None,
        profile: bool = False,
    ) -> None:
        from . import spans

        self.trace = trace
        self.spans: Optional[SpanRecorder] = spans.SpanRecorder() if profile else None
        self._closed = False

    @classmethod
    def from_paths(
        cls,
        trace_out: Optional[str] = None,
        profile: bool = False,
        meta: Optional[Dict[str, Any]] = None,
        trace_segment_events: Optional[int] = None,
        trace_compress: Optional[str] = None,
        trace_shard_key: Optional[str] = None,
    ) -> "Observability":
        """Build from a CLI-style output path (None = no trace).

        ``trace_segment_events`` / ``trace_compress`` / ``trace_shard_key``
        forward to :class:`TraceWriter` — segmented, compressed and/or
        sharded layouts all read back through :func:`read_trace`.
        """
        from . import trace as trace_io

        trace = (
            trace_io.TraceWriter(
                trace_out,
                meta=meta,
                segment_events=trace_segment_events,
                compress=trace_compress,
                shard_key=trace_shard_key,
            )
            if trace_out
            else None
        )
        return cls(trace=trace, profile=profile)

    # ------------------------------------------------------------------- sinks

    def flush(self) -> None:
        if self.trace is not None:
            self.trace.flush()

    def close(self) -> None:
        """Finalize the trace: span summary appended, file published
        atomically (idempotent)."""
        if self._closed:
            return
        if self.trace is not None and not self.trace.closed:
            if self.spans is not None and len(self.spans):
                self.trace.emit("span-summary", spans=self.spans.stats())
            self.trace.close()
        self._closed = True

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
