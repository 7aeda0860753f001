"""``deeppower trace`` tools on a segmented, compressed, node-sharded trace.

The 4-node capped retail fleet (seed 2023) runs twice in-process: once to
a plain JSONL trace and once with ``--trace-segment-events 200
--trace-compress gzip --trace-shard-nodes``.  The tests pin what the
trace-tools CI job once checked with shell ``test``/``diff``/``grep``/
``wc`` steps: the segment files exist, ``summarize`` reads the same run
from both layouts, and ``tail``/``query`` ride the segment index.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main

FLEET = ["fleet", "--nodes", "4", "--policy", "retail",
         "--routing", "power-aware", "--power-cap", "auto", "--seed", "2023"]
SEGMENTED = ["--trace-segment-events", "200", "--trace-compress", "gzip",
             "--trace-shard-nodes"]


def _cli(argv):
    """Run the CLI in-process; returns its stdout (the exit code must be 0)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """(directory, plain trace path, segmented trace index path)."""
    out = tmp_path_factory.mktemp("trace-tools")
    plain, seg = out / "plain.trace.jsonl", out / "seg.trace.jsonl"
    _cli([*FLEET, "--trace-out", str(plain)])
    _cli([*FLEET, "--trace-out", str(seg), *SEGMENTED])
    return out, plain, seg


def _query(seg, *args):
    lines = _cli(["trace", "query", str(seg), *args]).splitlines()
    return [json.loads(line) for line in lines]


def test_index_and_gzip_segments_exist(traces):
    out, _, seg = traces
    assert seg.stat().st_size > 0
    assert sorted(out.glob("seg.trace.jsonl.0*.jsonl.gz"))


def test_summarize_matches_the_plain_layout(traces):
    # The first render line names the trace path; the rest must match.
    _, plain, seg = traces
    seg_summary, plain_summary = (
        _cli(["trace", "summarize", str(path), "--group-by", "node"])
        .split("\n", 1)[1]
        for path in (seg, plain)
    )
    assert seg_summary and seg_summary == plain_summary


def test_tail_prints_the_last_events(traces):
    lines = _cli(["trace", "tail", str(traces[2]), "-n", "5"]).splitlines()
    assert len(lines) == 5
    assert all('"kind"' in line for line in lines)


def test_query_node_filter_on_a_sharded_trace(traces):
    events = _query(traces[2], "--kind", "node-window", "--node", "2")
    assert events
    assert all(event["node"] == 2 for event in events)


def test_query_time_window(traces):
    events = _query(
        traces[2], "--kind", "node-window", "--since", "30", "--until", "31"
    )
    assert len(events) == 8
