"""The perf gate script: its command line and each gate's thresholds.

The checkers are fed synthetic result dicts, so no simulation runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_perf", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench = _load()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert f"{bench.HIER_OVERHEAD_TOLERANCE * 100:.0f}%" in out
    assert f"{bench.OBS_OVERHEAD_TOLERANCE * 100:.0f}%" in out


def test_refuses_to_overwrite_the_e2e_report(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--trace", "--out", bench.E2E_REPORT])
    assert exc.value.code == 2
    assert "end-to-end" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,tolerance",
    [
        ("obs", "untraced_overhead", 0.02),
        ("hier", "hier_overhead", 0.05),
    ],
)
def test_overhead_gates(section, key, tolerance):
    def code(ratio):
        return bench.check_overhead({section: {key: ratio}}, section)

    assert code(0.97) == 0
    assert code(1.0 + tolerance - 1e-3) == 0
    assert code(1.0 + tolerance + 1e-3) == 1


def test_trace_summarize_floor():
    def code(mbps):
        return bench.check_regression(
            {"trace": {"summarize_mb_per_sec": mbps}}, "unused"
        )

    assert code(5.0) == 0
    assert code(30.0) == 0
    assert code(4.9) == 1


def _grid(speedups, jobs=2, cpus=4, gate="ok"):
    return {"grid": {"speedups": speedups, "jobs": jobs, "cpus": cpus,
                     "speedup_gate": gate}}


def test_grid_speedup_floor():
    assert bench.check_regression(_grid([1.5, 1.5, 1.5]), "unused") == 0
    assert bench.check_regression(_grid([1.49, 1.49, 1.49]), "unused") == 1


def test_grid_gate_reads_the_median_round():
    # One noisy round neither fails a good grid nor passes a bad one.
    assert bench.check_regression(_grid([1.8, 1.06, 1.7]), "unused") == 0
    assert bench.check_regression(_grid([1.3, 2.2, 1.4]), "unused") == 1


def test_grid_gate_skips_an_oversubscribed_run():
    skipped = _grid([1.0], jobs=4, cpus=2, gate="skipped: jobs=4 oversubscribes 2 cpu(s)")
    assert bench.check_regression(skipped, "unused") == 0


def test_fleet_floor_against_the_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"fleet_scaling": {"gate_nodes": 256, "gate_nodes_per_sec": 1000.0}}
    ))

    def code(nps):
        scaling = {"gate_nodes": 256, "gate_nodes_per_sec": nps}
        return bench.check_regression({"fleet_scaling": scaling}, str(baseline))

    assert code(700.0) == 0
    assert code(699.0) == 1


def test_committed_baseline_gates_256_nodes():
    with open(bench.DEFAULT_BASELINE) as f:
        baseline = json.load(f)
    assert set(baseline) == {"note", "schema", "fleet_scaling"}
    assert baseline["fleet_scaling"]["gate_nodes"] == 256


#: Each section bench, stubbed with the fields its progress lines print.
STUB_SECTIONS = {
    "bench_grid": {"serial_seconds": 1.0, "parallel_seconds": 1.0, "jobs": 2,
                   "speedup": 1.0, "speedups": [1.0, 1.0, 1.0], "cpus": 2},
    "bench_fleet_scaling": {"rows": []},
    "bench_trace": {"events": 1, "plain_bytes": 1, "summarize_mb_per_sec": 9.0,
                    "codecs": {}},
    "bench_hier_overhead": {"heuristic_seconds": 1.0, "learned_seconds": 1.0,
                            "decisions": 1},
    "bench_obs_overhead": {"plain_seconds": 1.0, "untraced_seconds": 1.0,
                           "traced_seconds": 1.0, "traced_overhead": 1.0},
}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["--check"], ["bench_grid"]),
        (["--jobs", "2"], ["bench_grid"]),
        (["--fleet", "--check"], ["bench_fleet_scaling"]),
        (["--trace", "--check", "--obs-check"], ["bench_trace", "bench_obs_overhead"]),
        (["--hier"], ["bench_hier_overhead"]),
    ],
)
def test_each_mode_runs_only_the_section_it_gates(monkeypatch, argv, expected):
    ran = []
    for name, section in STUB_SECTIONS.items():
        def stub(*args, _name=name, _section=section, **kwargs):
            ran.append(_name)
            return _section
        monkeypatch.setattr(bench, name, stub)
    monkeypatch.setattr(bench, "check_regression", lambda *args: 0)
    monkeypatch.setattr(bench, "check_overhead", lambda *args: 0)
    assert bench.main(argv) == 0
    assert ran == expected
