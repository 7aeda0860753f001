"""Observability layer: metrics registry, structured run traces, spans.

The paper evaluates DeepPower through per-interval introspection (Fig 8's
frequency/queue/reward time series, Fig 7's run summaries); this package
is the substrate that makes the repro equally inspectable:

* :class:`MetricsRegistry` — counters/gauges/histograms with cheap
  snapshotting (:mod:`repro.obs.registry`),
* :class:`TraceWriter` — schema-versioned JSONL run events with buffered
  atomic writes (:mod:`repro.obs.trace`),
* :class:`SpanRecorder` — wall-clock span timing for the engine loop,
  ``agent.update()`` and ``ThreadController.tick()``
  (:mod:`repro.obs.spans`),
* :func:`summarize_trace` — Fig 8-style per-interval tables rebuilt from
  a trace file (:mod:`repro.obs.summarize`).

:class:`Observability` bundles the three runtime pieces behind one handle
that instrumented layers accept as an optional parameter.  The default
everywhere is ``None`` — no registry, no trace, no spans, no measurable
cost — so observability is strictly opt-in (the perf-smoke benchmark
gates on exactly this).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, Optional

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .query import trace_query, trace_tail
    from .registry import Counter, Gauge, Histogram, MetricsRegistry
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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
    """One handle bundling trace + metrics + spans for a run.

    Parameters
    ----------
    trace:
        A :class:`TraceWriter`, or None for no event trace.
    metrics:
        A shared :class:`MetricsRegistry` (one is created if omitted).
    profile:
        Attach a :class:`SpanRecorder` so instrumented hot paths time
        themselves (off by default — span recording costs two
        ``perf_counter`` calls per region).
    metrics_out:
        Path the registry snapshot (plus span stats) is written to on
        :meth:`close`.
    """

    def __init__(
        self,
        trace: Optional[TraceWriter] = None,
        metrics: Optional[MetricsRegistry] = None,
        profile: bool = False,
        metrics_out: Optional[str] = None,
    ) -> None:
        from . import registry, spans

        self.trace = trace
        self.metrics = metrics if metrics is not None else registry.MetricsRegistry()
        self.spans: Optional[SpanRecorder] = spans.SpanRecorder() if profile else None
        self.metrics_out = metrics_out
        self._closed = False

    @classmethod
    def from_paths(
        cls,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        profile: bool = False,
        meta: Optional[Dict[str, Any]] = None,
        trace_segment_events: Optional[int] = None,
        trace_compress: Optional[str] = None,
        trace_shard_key: Optional[str] = None,
    ) -> "Observability":
        """Build from CLI-style output paths (either may be None).

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
        return cls(trace=trace, metrics_out=metrics_out, profile=profile)

    # ------------------------------------------------------------------- sinks

    def flush(self) -> None:
        if self.trace is not None:
            self.trace.flush()

    def close(self) -> None:
        """Finalize every sink: span summary into the trace, trace published
        atomically, metrics snapshot written to ``metrics_out`` (idempotent)."""
        if self._closed:
            return
        if self.trace is not None and not self.trace.closed:
            if self.spans is not None and len(self.spans):
                self.trace.emit("span-summary", spans=self.spans.stats())
            self.trace.close()
        if self.metrics_out is not None:
            payload = self.metrics.snapshot()
            if self.spans is not None and len(self.spans):
                payload["spans"] = self.spans.stats()
            tmp = self.metrics_out + ".tmp"
            with open(tmp, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, self.metrics_out)
        self._closed = True

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
