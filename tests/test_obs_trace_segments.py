"""Compressed and segmented trace layouts: write → read round-trips.

Every layout must read back through the one :func:`read_trace` entry
point with the identical event sequence a plain trace would produce
(per-shard order for sharded traces), and the segment index must carry
enough metadata (event counts, first/last t, byte sizes) for the query
layer to skip segments without opening them.
"""

import gzip
import json
import os

import pytest

from repro.obs import (
    TraceError,
    TraceWriter,
    read_trace,
    read_trace_index,
)


def _emit_fleet_events(tw, nodes=3, windows=5):
    tw.emit("fleet-start", t=0.0, num_nodes=nodes)
    for win in range(windows):
        t = float(win + 1)
        for node in range(nodes):
            tw.emit("node-window", t=t, node=node, power_w=15.0 + node + win)
        tw.emit("powercap-window", t=t, total_w=50.0 + win, budget_w=60.0,
                throttled=False)
    tw.emit("fleet-summary", t=float(windows), metrics={"completed": 10})


def _events(path, **kw):
    return list(read_trace(path, **kw))


class TestCompressedTraces:
    def test_gzip_roundtrip_identical_to_plain(self, tmp_path):
        plain, gz = str(tmp_path / "p.jsonl"), str(tmp_path / "g.jsonl")
        with TraceWriter(plain, meta={"a": 1}) as tw:
            _emit_fleet_events(tw)
        with TraceWriter(gz, meta={"a": 1}, compress="gzip") as tw:
            _emit_fleet_events(tw)
        assert os.path.getsize(gz) < os.path.getsize(plain)
        assert _events(gz) == _events(plain)

    def test_gzip_bytes_deterministic_across_paths(self, tmp_path):
        """No embedded filename or mtime: equal inputs, equal bytes —
        the CI determinism checks cmp compressed traces too."""
        paths = [str(tmp_path / n) for n in ("one.jsonl", "somewhere-else.jsonl")]
        for p in paths:
            with TraceWriter(p, meta={"seed": 7}, compress="gzip") as tw:
                _emit_fleet_events(tw)
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b

    def test_gzip_detected_by_magic_not_extension(self, tmp_path):
        path = str(tmp_path / "no-ext-hint")
        with TraceWriter(path, compress="gzip") as tw:
            tw.emit("x", t=1.0)
        with gzip.open(path, "rb") as f:  # really is gzip on disk
            assert f.readline()
        kinds = [e["kind"] for e in _events(path)]
        assert kinds == ["trace-header", "x"]

    def test_zstd_unavailable_raises_at_writer(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace codec 'zstd'"):
            TraceWriter(str(tmp_path / "z.jsonl"), compress="zstd")

    def test_zstd_file_raises_naming_the_codec(self, tmp_path):
        # A zstd frame (magic bytes + junk): the reader names the codec
        # rather than reporting bad JSON.
        path = tmp_path / "z.trace.jsonl"
        path.write_bytes(b"\x28\xb5\x2f\xfd" + b"\x00" * 16)
        for strict in (True, False):
            with pytest.raises(TraceError, match="zstd-compressed"):
                _events(str(path), strict=strict)

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace codec"):
            TraceWriter(str(tmp_path / "t.jsonl"), compress="lz4")

    def test_truncated_gzip_stream_lenient_warns(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with TraceWriter(path, compress="gzip") as tw:
            for i in range(50):
                tw.emit("x", t=float(i), i=i)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])  # tear the stream
        with pytest.warns(UserWarning, match="truncated"):
            events = _events(path, strict=False)
        assert len(events) < 51
        with pytest.raises(TraceError, match="truncated"):
            _events(path)


class TestSegmentedTraces:
    def test_segmented_roundtrip_identical_to_plain(self, tmp_path):
        plain, seg = str(tmp_path / "p.jsonl"), str(tmp_path / "s.jsonl")
        with TraceWriter(plain, meta={"k": 1}) as tw:
            _emit_fleet_events(tw, nodes=4, windows=10)
        with TraceWriter(seg, meta={"k": 1}, segment_events=7) as tw:
            _emit_fleet_events(tw, nodes=4, windows=10)
        assert _events(seg) == _events(plain)

    def test_segmented_compressed_roundtrip(self, tmp_path):
        plain, seg = str(tmp_path / "p.jsonl"), str(tmp_path / "s.jsonl")
        with TraceWriter(plain) as tw:
            _emit_fleet_events(tw, nodes=4, windows=10)
        with TraceWriter(seg, segment_events=9, compress="gzip") as tw:
            _emit_fleet_events(tw, nodes=4, windows=10)
        segs = [f for f in os.listdir(tmp_path) if ".jsonl.gz" in f]
        assert len(segs) > 1  # actually rotated
        assert _events(seg) == _events(plain)

    def test_index_contents(self, tmp_path):
        seg = str(tmp_path / "s.jsonl")
        with TraceWriter(seg, meta={"app": "t"}, segment_events=10) as tw:
            for i in range(25):
                tw.emit("x", t=float(i), i=i)
        index = read_trace_index(seg)
        assert index is not None
        assert index["kind"] == "trace-index"
        assert index["events"] == 26  # header + 25
        assert index["meta"] == {"app": "t"}
        assert sum(s["events"] for s in index["segments"]) == 26
        for entry in index["segments"]:
            path = os.path.join(str(tmp_path), entry["file"])
            assert os.path.getsize(path) == entry["bytes"]
        # timestamp ranges are recorded and ordered within each segment
        timed = [s for s in index["segments"] if s["first_t"] is not None]
        assert timed and all(s["first_t"] <= s["last_t"] for s in timed)

    def test_plain_trace_has_no_index(self, tmp_path):
        plain = str(tmp_path / "p.jsonl")
        with TraceWriter(plain) as tw:
            tw.emit("x")
        assert read_trace_index(plain) is None

    def test_sharded_by_node_per_shard_order(self, tmp_path):
        plain, shard = str(tmp_path / "p.jsonl"), str(tmp_path / "s.jsonl")
        with TraceWriter(plain) as tw:
            _emit_fleet_events(tw, nodes=3, windows=6)
        with TraceWriter(shard, shard_key="node") as tw:
            _emit_fleet_events(tw, nodes=3, windows=6)
        ref, got = _events(plain), _events(shard)
        # same multiset of events, header still first...
        assert got[0]["kind"] == "trace-header"
        key = lambda e: json.dumps(e, sort_keys=True)  # noqa: E731
        assert sorted(map(key, got)) == sorted(map(key, ref))
        # ...and within any one node the original order is preserved
        for node in range(3):
            ref_node = [e for e in ref if e.get("node") == node]
            got_node = [e for e in got if e.get("node") == node]
            assert got_node == ref_node

    def test_missing_segment_strict_raises_lenient_warns(self, tmp_path):
        seg = str(tmp_path / "s.jsonl")
        with TraceWriter(seg, segment_events=5) as tw:
            for i in range(12):
                tw.emit("x", t=float(i), i=i)
        index = read_trace_index(seg)
        victim = os.path.join(str(tmp_path), index["segments"][-1]["file"])
        os.unlink(victim)
        with pytest.raises(TraceError, match="missing trace segment"):
            _events(seg)
        with pytest.warns(UserWarning, match="missing trace segment"):
            events = _events(seg, strict=False)
        assert events and events[0]["kind"] == "trace-header"

    def test_unknown_index_schema_rejected(self, tmp_path):
        seg = str(tmp_path / "s.jsonl")
        with TraceWriter(seg, segment_events=5) as tw:
            tw.emit("x")
        index = read_trace_index(seg)
        index["index_schema"] = 999
        with open(seg, "w") as f:
            json.dump(index, f)
        with pytest.raises(TraceError, match="unsupported trace index schema"):
            _events(seg)

    def test_fleet_summaries_identical_across_layouts(self, tmp_path):
        """summarize --group-by node must not care how bytes are stored."""
        from repro.obs import render_fleet_summary, summarize_fleet_trace

        layouts = {
            "plain.jsonl": {},
            "gz.jsonl": {"compress": "gzip"},
            "seg.jsonl": {"segment_events": 11},
            "shard.jsonl": {"shard_key": "node", "compress": "gzip"},
        }
        renders = {}
        for name, kw in layouts.items():
            path = str(tmp_path / name)
            with TraceWriter(path, meta={"seed": 1}, **kw) as tw:
                _emit_fleet_events(tw, nodes=4, windows=8)
            text = render_fleet_summary(summarize_fleet_trace(path))
            # first line names the file; the rest must be layout-invariant
            renders[name] = text.split("\n", 1)[1]
        assert len(set(renders.values())) == 1
