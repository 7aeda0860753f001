#!/usr/bin/env python3
"""Run one benchmark workload once in this process and print its result.

``run.py`` starts this in a fresh single-threaded subprocess per run::

    python benchmarks/e2e/worker.py --workload NAME --seed S --t0 T \\
        [--trace] [--span-log FILE]

``--t0`` is the parent's ``time.monotonic()`` taken just before it started
this process, so ``setup_s`` covers interpreter start, imports, trace
synthesis and agent/fleet construction up to the call that starts
simulated time.  ``--trace`` installs the outside-in layer tracer
(``layers.py``) before anything is built.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: A traced run fails when callbacks outside the layer map take more than
#: this share of its wall time.
OTHER_LIMIT = 0.02
#: A traced run fails when its layer self times do not sum to its wall
#: time within this share.
SELF_SUM_TOLERANCE = 0.05


def import_simulator() -> None:
    """Put this checkout's ``src`` first on the path and import from it.

    Fails when the sources are missing or ``repro`` resolves elsewhere, so
    the benchmark never measures an installed copy of the package.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def _percentile(samples, q: float, scale: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * scale if samples else 0.0


def layer_metrics(tracer, outcome: dict, engine, wall_s: float) -> dict:
    """Per-layer metrics of a traced run (times from the tracer)."""
    self_s = tracer.layer_self_s()
    c = outcome["counters"]
    samples = tracer.samples
    events = c["sim.events"]
    cancelled = tracer.scheduled - events - engine.pending_events
    writes = tracer.dvfs_writes

    def per(secs: float, count: float, scale: float) -> float:
        return secs / count * scale if count else 0.0

    metrics = {f"{layer}.self_s": secs for layer, secs in self_s.items()}
    metrics.update({
        "sim.us_per_event": per(self_s["sim"], events, 1e6),
        "sim.cancelled_frac": per(cancelled, tracer.scheduled, 1.0),
        "server.summarize_s": sum(samples["LatencyRecorder.summarize"]),
        "cpu.dvfs_writes": writes,
        "cpu.dvfs_useful_frac": per(c["cpu.dvfs_switches"], writes, 1.0),
        "controller.us_per_tick": per(self_s["controller"], c["controller.ticks"], 1e6),
        "drl.act_us_p50": _percentile(samples["DeepPowerAgent.act"], 50, 1e6),
        "drl.act_us_p99": _percentile(samples["DeepPowerAgent.act"], 99, 1e6),
        "drl.update_ms_p50": _percentile(samples["DeepPowerAgent.update"], 50, 1e3),
        "drl.update_ms_p99": _percentile(samples["DeepPowerAgent.update"], 99, 1e3),
        "dispatch.us_per_route": per(self_s["dispatch"], c["dispatch.routed"], 1e6),
        "hier.act_ms_p90": _percentile(samples["FleetAgent.act"], 90, 1e3),
        "hier.update_ms_p90": _percentile(samples["FleetAgent.update"], 90, 1e3),
        "obs.read_s": sum(samples["summarize_fleet_trace"]) + sum(samples["trace_query"]),
        "trace.self_sum_over_wall": sum(self_s.values()) / wall_s,
    })
    return metrics


def trace_failures(metrics: dict, wall_s: float) -> list:
    """Checks on the layer account itself."""
    failures = [
        f"{name} is negative ({value!r})"
        for name, value in metrics.items()
        if name.endswith(".self_s") and value < 0
    ]
    if metrics["other.self_s"] > OTHER_LIMIT * wall_s:
        failures.append(
            f"callbacks outside the layer map took {metrics['other.self_s']:.3f} s, "
            f"over {OTHER_LIMIT:.0%} of {wall_s:.3f} s"
        )
    if abs(metrics["trace.self_sum_over_wall"] - 1.0) > SELF_SUM_TOLERANCE:
        failures.append(
            f"layer self times sum to {metrics['trace.self_sum_over_wall']:.3f}x wall time"
        )
    return failures


def run_once(
    name: str,
    seed: int,
    t0: float,
    trace: bool = False,
    span_log: Optional[str] = None,
    duration: Optional[float] = None,
    workdir: Path = HERE / "out",
) -> dict:
    """Build, run and check one workload; the result :func:`main` prints.

    ``duration`` overrides the workload's simulated length (tests only).
    """
    from layers import LayerTracer
    from workloads import FACTORIES, check

    sized = {} if duration is None else {"duration": duration}
    tracer = LayerTracer() if trace else None
    Path(workdir).mkdir(exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        workload = FACTORIES[name](seed, workdir=str(workdir), **sized)
        try:
            setup_s = time.monotonic() - t0

            def measure():
                start = time.perf_counter()
                workload.run()
                ran = time.perf_counter()
                workload.readback()
                return ran - start, time.perf_counter() - start

            if tracer is None:
                run_s, wall_s = measure()
            else:
                tracer.clear_times()
                start = time.perf_counter()
                run_s, _ = tracer.span("run", "workload", measure)
                wall_s = time.perf_counter() - start
                # The outcome's reads must stay out of the layer account.
                tracer.uninstall()
            outcome = workload.outcome()
        finally:
            workload.cleanup()
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": wall_s,
        "node_s": workload.nodes * workload.sim_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": outcome["sim"],
        "sim_digest": outcome["sim_digest"],
        "counters": outcome["counters"],
        "readback": outcome["readback"],
        "failures": check(outcome),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, outcome, workload.engine, wall_s)
        result["layers"] = layers
        result["other_callbacks"] = tracer.other_callbacks()
        result["failures"] += trace_failures(layers, wall_s)
        if span_log:
            tracer.write_log(span_log)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's time.monotonic() when it started this process")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--span-log", default=None)
    args = p.parse_args(argv)
    import_simulator()
    result = run_once(
        args.workload, args.seed, args.t0, trace=args.trace, span_log=args.span_log,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
