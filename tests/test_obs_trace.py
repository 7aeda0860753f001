"""Tests for the JSONL trace writer/reader and the summarizer."""

import json
import os

import numpy as np
import pytest

from repro.obs import (
    TRACE_SCHEMA,
    Observability,
    TraceError,
    TraceWriter,
    read_trace,
    render_summary,
    summarize_trace,
)


class TestTraceWriter:
    def test_header_first_and_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path, meta={"app": "tiny"}) as tw:
            tw.emit("drl-step", t=1.0, step=0, reward={"total": -0.5})
        events = list(read_trace(path))
        assert events[0]["kind"] == "trace-header"
        assert events[0]["schema"] == TRACE_SCHEMA
        assert events[0]["meta"] == {"app": "tiny"}
        assert events[1] == {"kind": "drl-step", "t": 1.0, "step": 0, "reward": {"total": -0.5}}

    def test_floats_roundtrip_exactly(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        vals = [0.1 + 0.2, 1e-300, np.float64(1.0) / 3.0, float("nan"), float("inf")]
        with TraceWriter(path) as tw:
            tw.emit("x", vals=vals)
        got = list(read_trace(path))[1]["vals"]
        for a, b in zip(vals, got):
            assert (a != a and b != b) or a == b

    def test_numpy_values_serialised(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as tw:
            tw.emit("x", arr=np.arange(3.0), scalar=np.float64(2.5), i=np.int64(7))
        ev = list(read_trace(path))[1]
        assert ev["arr"] == [0.0, 1.0, 2.0]
        assert ev["scalar"] == 2.5 and ev["i"] == 7

    def test_unserialisable_value_raises(self, tmp_path):
        with TraceWriter(str(tmp_path / "t.jsonl")) as tw:
            with pytest.raises(TypeError, match="cannot serialise"):
                tw.emit("x", bad=object())

    def test_atomic_publish_on_close(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tw = TraceWriter(path, buffer_events=4)
        tw.emit("x")
        # Before close: only the .part file exists.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".part")
        tw.close()
        assert os.path.exists(path)
        assert not os.path.exists(path + ".part")
        tw.close()  # idempotent

    def test_emit_after_close_raises(self, tmp_path):
        tw = TraceWriter(str(tmp_path / "t.jsonl"))
        tw.close()
        with pytest.raises(TraceError, match="closed"):
            tw.emit("x")

    def test_buffering_defers_writes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tw = TraceWriter(path, buffer_events=1000)
        for _ in range(5):
            tw.emit("x")
        # Nothing flushed yet beyond whatever the open() wrote (nothing).
        assert os.path.getsize(path + ".part") == 0
        tw.flush()
        assert os.path.getsize(path + ".part") > 0
        tw.close()
        assert len(list(read_trace(path))) == 6  # header + 5


class TestReadTrace:
    def test_missing_header_raises_strict(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "drl-step"}\n')
        with pytest.raises(TraceError, match="missing trace-header"):
            list(read_trace(str(p)))

    def test_unknown_schema_raises_strict(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"kind": "trace-header", "schema": 999}) + "\n")
        with pytest.raises(TraceError, match="unsupported trace schema"):
            list(read_trace(str(p)))

    def test_lenient_tolerates_truncated_tail(self, tmp_path):
        p = tmp_path / "crash.jsonl"
        p.write_text(
            json.dumps({"kind": "trace-header", "schema": TRACE_SCHEMA, "meta": {}})
            + "\n"
            + json.dumps({"kind": "drl-step", "step": 0})
            + "\n"
            + '{"kind": "drl-st'  # crashed mid-write
        )
        with pytest.warns(UserWarning, match="bad JSON"):
            events = list(read_trace(str(p), strict=False))
        assert [e["kind"] for e in events] == ["trace-header", "drl-step"]
        with pytest.raises(TraceError, match="bad JSON"):
            list(read_trace(str(p)))

    def test_lenient_warns_on_corrupted_middle_line(self, tmp_path):
        """Mid-file corruption must be *signalled*, not silently truncate:
        the warning carries path and line number, and events after the
        damage are dropped (resyncing could misparse torn bytes)."""
        p = tmp_path / "mid.jsonl"
        p.write_text(
            json.dumps({"kind": "trace-header", "schema": TRACE_SCHEMA, "meta": {}})
            + "\n"
            + json.dumps({"kind": "before", "step": 0})
            + "\n"
            + "CORRUPTED GARBAGE NOT JSON\n"
            + json.dumps({"kind": "after", "step": 1})
            + "\n"
        )
        with pytest.warns(UserWarning) as record:
            events = list(read_trace(str(p), strict=False))
        assert [e["kind"] for e in events] == ["trace-header", "before"]
        message = str(record[0].message)
        assert str(p) in message and ":3:" in message
        assert "skipped" in message

    def test_lenient_tolerates_line_torn_mid_utf8(self, tmp_path):
        """A crash can cut a line inside a multi-byte UTF-8 character;
        lenient reads treat that as truncation, not a decode crash."""
        p = tmp_path / "torn.jsonl"
        whole = json.dumps(
            {"kind": "trace-header", "schema": TRACE_SCHEMA, "meta": {}}
        ).encode() + b"\n"
        torn = json.dumps({"kind": "note", "msg": "café"}).encode()
        p.write_bytes(whole + torn[:-3])  # cut inside the 2-byte é
        with pytest.warns(UserWarning, match="bad JSON"):
            events = list(read_trace(str(p), strict=False))
        assert [e["kind"] for e in events] == ["trace-header"]
        with pytest.raises(TraceError, match="bad JSON"):
            list(read_trace(str(p)))

    def test_non_object_line_rejected_strict_stops_lenient(self, tmp_path):
        p = tmp_path / "scalar.jsonl"
        p.write_text(
            json.dumps({"kind": "trace-header", "schema": TRACE_SCHEMA, "meta": {}})
            + "\n[1, 2, 3]\n"
            + json.dumps({"kind": "after"})
            + "\n"
        )
        with pytest.raises(TraceError, match="not a JSON object"):
            list(read_trace(str(p)))
        with pytest.warns(UserWarning, match="not a JSON object"):
            events = list(read_trace(str(p), strict=False))
        assert [e["kind"] for e in events] == ["trace-header"]

    def test_falls_back_to_part_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tw = TraceWriter(path)
        tw.emit("x")
        tw.flush()  # never closed (simulated crash)
        events = list(read_trace(path))
        assert [e["kind"] for e in events] == ["trace-header", "x"]

    def test_empty_file_raises_strict(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            list(read_trace(str(p)))
        # Whitespace-only is just as header-less.
        p.write_text("\n\n")
        with pytest.raises(TraceError, match="empty trace"):
            list(read_trace(str(p)))

    def test_empty_file_warns_lenient(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.warns(UserWarning, match="empty trace"):
            events = list(read_trace(str(p), strict=False))
        assert events == []


class TestSummarize:
    def _write(self, path, events):
        with TraceWriter(path) as tw:
            for kind, fields in events:
                tw.emit(kind, **fields)

    def test_joins_steps_and_windows(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write(
            path,
            [
                ("episode-start", {"episode": 0}),
                (
                    "drl-step",
                    dict(t=1.0, step=0, reward={"total": -1.0, "energy": 0.5,
                                                "timeout": 0.25, "queue": 0.25},
                         action=[0.3, 0.7], avg_freq=1.5, queue_len=2, rps=10.0,
                         power_w=12.0),
                ),
                ("controller-window", dict(t=1.0, step=0, ticks=500, dvfs_switches=42,
                                           base_freq=0.3, scaling_coef=0.7,
                                           freq_mean=1.4, freq_min=1.0, freq_max=2.1)),
                ("run-summary", {"metrics": {"completed": 5}}),
                ("episode-end", {"episode": 0, "total_reward": -1.0}),
            ],
        )
        s = summarize_trace(path)
        assert s.counts["drl-step"] == 1
        (row,) = s.intervals
        assert row["episode"] == 0 and row["step"] == 0
        assert row["reward"] == -1.0 and row["r_energy"] == 0.5
        assert row["base_freq"] == 0.3 and row["scaling_coef"] == 0.7
        assert row["ticks"] == 500 and row["dvfs_switches"] == 42
        assert s.run_summaries == [{"completed": 5}]
        assert s.episodes == [{"episode": 0, "total_reward": -1.0}]
        text = render_summary(s)
        assert "drl-step=1" in text and "episodes:" in text

    def test_warnings_surface(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write(path, [("run-warning", {"warning": "zero-completions", "message": "m"})])
        s = summarize_trace(path)
        assert s.warnings[0]["warning"] == "zero-completions"
        assert "WARNING: zero-completions" in render_summary(s)

    def test_render_limit(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        events = [("episode-start", {"episode": 0})]
        for i in range(10):
            events.append(("drl-step", dict(t=float(i), step=i, reward={"total": 0.0})))
        self._write(path, events)
        text = render_summary(summarize_trace(path), limit=3)
        assert "(last 3 of 10 intervals)" in text

    def test_control_plane_events_aggregate(self, tmp_path):
        path = str(tmp_path / "bus.jsonl")
        self._write(
            path,
            [
                ("bus-drop", dict(t=0.5, channel="sensor", reason="fault", seq=1)),
                ("bus-drop", dict(t=1.0, channel="sensor", reason="partition", seq=2)),
                ("bus-drop", dict(t=1.5, channel="command", reason="shed", seq=1)),
                ("stale-window", dict(t=1.0, step=0, consecutive=1, have_reading=False)),
                ("stale-window", dict(t=2.0, step=1, consecutive=2, have_reading=False)),
                ("cmd-retry", dict(t=2.0, cmd_seq=3, attempt=1)),
                ("deadline-miss", dict(t=3.0, side="controller", misses=3, engaged=True)),
                ("deadline-miss", dict(t=4.0, side="node", age=2.0, engaged=True)),
                # A degraded (blind) interval: null telemetry must not break
                # the table join, and the flag must be counted.
                (
                    "drl-step",
                    dict(t=2.0, step=1, state=None, action=[1.0, 1.0], reward=None,
                         power_w=float("nan"), queue_len=-1, degraded=True),
                ),
            ],
        )
        s = summarize_trace(path)
        assert s.control["drops"] == {"sensor": 2, "command": 1}
        assert s.control["drop_reasons"] == {"fault": 1, "partition": 1, "shed": 1}
        assert s.control["retries"] == 1
        assert s.control["stale_windows"] == 2
        assert s.control["max_consecutive_stale"] == 2
        assert s.control["deadline_misses"] == {"controller": 1, "node": 1}
        assert s.control["degraded_intervals"] == 1
        (row,) = s.intervals
        assert row["reward"] != row["reward"]  # NaN: degraded steps join fine
        text = render_summary(s)
        assert "control plane:" in text
        assert "stale_windows=2" in text
        assert "deadline_misses=controller=1/node=1" in text

    def test_direct_runs_have_no_control_section(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        self._write(path, [("drl-step", dict(t=1.0, step=0, reward={"total": 0.0}))])
        s = summarize_trace(path)
        assert s.control == {}
        assert "control plane:" not in render_summary(s)


class TestObservability:
    def test_disabled_handle_has_no_sinks(self):
        obs = Observability()
        assert obs.trace is None and obs.spans is None
        assert not hasattr(obs, "metrics")
        obs.close()  # nothing to write; must not raise

    def test_close_writes_span_summary_into_trace(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        obs = Observability.from_paths(trace_out=trace_path, profile=True, meta={"a": 1})
        obs.spans.record("tick", 0.5)
        obs.close()
        obs.close()  # idempotent
        events = list(read_trace(trace_path))
        assert [e["kind"] for e in events] == ["trace-header", "span-summary"]
        assert events[1]["spans"]["tick"]["count"] == 1
        assert os.listdir(tmp_path) == ["t.jsonl"]
