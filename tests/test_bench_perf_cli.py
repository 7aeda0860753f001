"""The perf benchmark's command line parses (``--help`` exits cleanly)."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_perf", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_help_exits_zero(capsys):
    bench = _load()
    with pytest.raises(SystemExit) as exc:
        bench.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert f"{bench.HIER_OVERHEAD_TOLERANCE * 100:.0f}%" in out
    assert f"{bench.OBS_OVERHEAD_TOLERANCE * 100:.0f}%" in out
