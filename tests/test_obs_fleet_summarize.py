"""Round-trip tests for the --group-by node fleet-trace summarizer."""

import pytest

from repro.cluster.sim import ClusterConfig, FleetSpec, fleet_power_budget
from repro.obs import (
    TraceWriter,
    render_fleet_summary,
    summarize_fleet_trace,
)
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace


def _run_fleet_with_trace(path, power_cap=None, duration=5.0):
    rps = get_app("xapian").rps_for_load(0.5, 4)
    config = ClusterConfig(
        app="xapian", policy="retail", num_nodes=2, cores_per_node=2, seed=5,
        routing="jsq", power_cap_watts=power_cap,
    )
    spec = FleetSpec(config, constant_trace(rps, duration), trace_out=str(path))
    metrics, _ = spec.execute()
    return metrics


class TestFleetTraceRoundTrip:
    def test_node_rows_match_run_metrics(self, tmp_path):
        path = tmp_path / "fleet.trace.jsonl"
        metrics = _run_fleet_with_trace(path)
        summary = summarize_fleet_trace(str(path))
        assert [row["node"] for row in summary.nodes] == [0, 1]
        for row, m, routed in zip(
            summary.nodes, metrics.node_metrics, metrics.routed
        ):
            assert row["routed"] == routed
            assert row["completed"] == m.completed
            assert row["timeouts"] == m.timeouts
            assert row["energy_j"] == pytest.approx(m.energy_joules)
            assert row["p99_ms"] == pytest.approx(m.tail_latency * 1e3)
        assert summary.fleet["completed"] == metrics.fleet.completed
        assert summary.fleet["routed"] == sum(metrics.routed)
        # Uncapped run: no powercap stats.
        assert summary.powercap == {}

    def test_capped_run_reports_budget_compliance(self, tmp_path):
        path = tmp_path / "capped.trace.jsonl"
        budget = fleet_power_budget(2, 2, fraction=0.5)
        metrics = _run_fleet_with_trace(path, power_cap=budget)
        summary = summarize_fleet_trace(str(path))
        assert summary.powercap["budget_w"] == pytest.approx(budget)
        assert summary.powercap["cap_ok"] == metrics.cap_ok
        assert summary.powercap["peak_w"] == pytest.approx(
            metrics.max_window_power
        )
        assert summary.powercap["windows"] > 0
        rendered = render_fleet_summary(summary)
        assert "powercap: budget_w=" in rendered

    def test_render_contains_node_and_fleet_rows(self, tmp_path):
        path = tmp_path / "fleet.trace.jsonl"
        _run_fleet_with_trace(path)
        rendered = render_fleet_summary(summarize_fleet_trace(str(path)))
        lines = rendered.splitlines()
        assert any(line.startswith("0 ") for line in lines)
        assert any(line.startswith("fleet") for line in lines)

    def test_truncated_trace_falls_back_to_windows(self, tmp_path):
        path = tmp_path / "fleet.trace.jsonl"
        _run_fleet_with_trace(path)
        # Cut the trace before the summaries (keep header + some windows).
        lines = path.read_text().splitlines(keepends=True)
        kept = [
            ln for ln in lines
            if '"node-summary"' not in ln and '"fleet-summary"' not in ln
        ]
        cut = tmp_path / "cut.trace.jsonl"
        cut.write_text("".join(kept))
        summary = summarize_fleet_trace(str(cut), strict=False)
        assert summary.nodes, "windows should reconstruct node rows"
        for row in summary.nodes:
            assert row["p99_ms"] is None  # latency needs the summary events
            assert row["windows"] > 0
        assert summary.fleet == {}

    def test_non_fleet_trace_renders_hint(self, tmp_path):
        path = tmp_path / "plain.trace.jsonl"
        tw = TraceWriter(str(path), meta={"kind": "unit"})
        tw.emit("drl-step", t=1.0, reward=0.0)
        tw.close()
        summary = summarize_fleet_trace(str(path))
        assert summary.nodes == []
        rendered = render_fleet_summary(summary)
        assert "no node-tagged events" in rendered
