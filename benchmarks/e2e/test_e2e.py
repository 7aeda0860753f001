"""Tests of the end-to-end benchmark (run with ``pytest benchmarks/e2e``).

Workloads run in-process at a few simulated seconds, not at benchmark size.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from layers import LayerTracer, layer_of_module  # noqa: E402
from workloads import FACTORIES, check  # noqa: E402

#: Simulated seconds per workload: enough for every layer to act once
#: (fleet-chaos needs its crash, partition and rack failure).
SHORT = {
    "node-saturated": 2.0,
    "node-deeppower": 6.0,
    "fleet-capped": 0.5,
    "fleet-chaos": 8.0,
}


def _once(name, tmp_path, trace=False, seed=3):
    return worker.run_once(
        name, seed, time.monotonic(), trace=trace, duration=SHORT[name],
        workdir=tmp_path,
    )


def test_self_time_arithmetic_on_a_synthetic_tree():
    # Clock readings in call order: a starts, b starts, c starts and ends,
    # b ends, d starts and ends, a ends.
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = LayerTracer(clock=lambda: next(ticks))

    def a():
        tracer.span("server", "b", lambda: tracer.span("cpu", "c", lambda: None))
        tracer.span("server", "d", lambda: None)

    tracer.span("run", "a", a)
    self_s = tracer.layer_self_s()
    assert self_s["run"] == 10.0 - (4.0 - 1.0) - (9.0 - 5.0)
    assert self_s["server"] == (3.0 - 1.0) + (9.0 - 5.0)
    assert self_s["cpu"] == 1.0
    assert sum(self_s.values()) == 10.0
    rows = {row[0]: row for row in tracer.log}
    assert rows["c"][4] == tracer.log.index(rows["b"])
    assert rows["a"][4] == -1


def test_layer_map():
    assert layer_of_module("repro.core.thread_controller") == "controller"
    assert layer_of_module("repro.cluster.batch") == "controller"
    assert layer_of_module("repro.core.runtime") == "drl"
    assert layer_of_module("repro.faults.injectors") == "lifecycle"
    assert layer_of_module("repro.cluster.sim") == "run"
    assert layer_of_module("repro.cluster.node") is None
    assert layer_of_module("repro.simulation") is None


def _unmapped_callback():
    pass


def test_unmapped_callback_is_reported_under_other():
    from repro.sim.engine import Engine

    original = Engine.schedule_at
    tracer = LayerTracer()
    tracer.install()
    try:
        engine = Engine()
        engine.schedule_at(1.0, _unmapped_callback)
        engine.every(0.5, _unmapped_callback)
        engine.run_until(2.0)
    finally:
        tracer.uninstall()
    assert Engine.schedule_at is original
    assert tracer.events == 5
    (name,) = tracer.other_callbacks()
    assert name.endswith("_unmapped_callback")
    assert tracer.layer_self_s()["other"] > 0


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_and_untraced_runs_agree(name, tmp_path):
    plain = _once(name, tmp_path)
    traced = _once(name, tmp_path, trace=True)
    assert plain["failures"] == []
    assert traced["failures"] == []
    assert traced["sim_digest"] == plain["sim_digest"]
    assert traced["counters"] == plain["counters"]
    layers = traced["layers"]
    assert all(layers[f"{layer}.self_s"] >= 0 for layer in ("sim", "server", "run", "other"))
    assert layers["trace.self_sum_over_wall"] == pytest.approx(1.0, abs=0.05)


def test_tampered_result_fails_the_output_check(tmp_path):
    workload = FACTORIES["fleet-chaos"](
        3, duration=SHORT["fleet-chaos"], workdir=str(tmp_path)
    )
    try:
        workload.run()
        workload.readback()
        outcome = workload.outcome()
    finally:
        workload.cleanup()
    assert check(outcome) == []
    lost = outcome["conservation"]["completed"] - 1
    tampered = [
        ("conservation", lambda o: o["conservation"].update(completed=lost)),
        ("energy", lambda o: o.update(energy_j=float("nan"))),
        ("cap", lambda o: o.update(cap_ok=False)),
        ("DVFS table", lambda o: o.update(off_table_freqs=1)),
        ("read back", lambda o: o["readback"].update(query_events=0)),
    ]
    for label, tamper in tampered:
        bad = json.loads(json.dumps(outcome))
        tamper(bad)
        assert check(bad), label


def test_digest_mismatch_across_runs_counts_as_failed(tmp_path):
    first = _once("node-saturated", tmp_path)
    second = dict(first, sim_digest="0" * 64)
    ev = run.evaluate([first, second], None)
    assert (ev["attempted"], ev["failed"]) == (2, 1)
    assert "differs" in ev["failures"][0]


def test_crashed_worker_counts_as_a_failed_run(tmp_path):
    crashed = run.spawn("no-such-workload", 3)
    assert crashed["crashed"]
    assert "KeyError" in crashed["failures"][0]
    good = _once("node-saturated", tmp_path)
    ev = run.evaluate([good, crashed], None)
    assert (ev["attempted"], ev["failed"]) == (2, 1)
    assert ev["metrics"]["setup_s"]["n"] == 1
    assert ev["metrics"]["error_rate"]["median"] == 0.5


@pytest.mark.parametrize("trace", [False, True])
def test_rounds_and_traced_runs_fit_in_the_seconds_budget(monkeypatch, trace):
    # Each untraced run takes 9.5 s of a fake clock; a traced one 1.6x that.
    now = [0.0]

    def fake_spawn(name, seed, *flags):
        now[0] += 9.5 * (1.6 if "--trace" in flags else 1.0)
        return {"run_s": 9.0, "setup_s": 0.3, "loadavg_before": 0.0, "failures": []}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    results, traced = run.run_all(["w"], 1, None, 30.0, trace, clock=lambda: now[0])
    assert now[0] <= 30.0
    assert len(results["w"]) == (1 if trace else 3)
    assert (traced["w"] is not None) == trace
