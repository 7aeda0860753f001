#!/usr/bin/env python
"""The performance gates the end-to-end benchmark does not have.

``benchmarks/e2e/run.py`` measures run throughput and the per-layer
account, and its ``--out`` report is ``BENCH_perf.json``.  This script
keeps the five gates that benchmark has no equivalent for.  Each mode
runs only the section it gates::

    python benchmarks/bench_perf.py --jobs 2 --check   # median grid speedup >= 1.5x
    python benchmarks/bench_perf.py --obs-check        # untraced obs <= 2 %
    python benchmarks/bench_perf.py --hier             # learned coordinator < 5 %
    python benchmarks/bench_perf.py --trace --check    # summarize >= 5 MB/s
    python benchmarks/bench_perf.py --fleet --check    # 256-node floor

The section flags ``--fleet``, ``--trace``, ``--hier`` and ``--obs-check``
combine; with none of them the grid runs.  ``--check`` gates the grid,
trace and fleet-scaling sections.  The two overhead A/Bs (``--obs-check``,
``--hier``) gate themselves: each times its arms in rounds, interleaved
in turns of simulated time (:func:`run_in_turns`), and compares the
median of per-round ratios, so the gate does not depend on how fast the
machine is.  The grid gate likewise reads the median
serial/parallel ratio of ``GRID_ROUNDS`` alternating rounds; it is
skipped, with the reason recorded, when the grid's jobs oversubscribe
the machine's cores.  The 256-node
floor is 70 % of the ``fleet_scaling`` row of
``benchmarks/bench_perf_baseline.json``.

The JSON report is written to ``--out`` when one is given; it is never
``BENCH_perf.json``, which holds the end-to-end benchmark's report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.runner import build_context  # noqa: E402
from repro.parallel import RunSpec, run_grid  # noqa: E402
from repro.workload.apps import get_app  # noqa: E402
from repro.workload.trace import constant_trace  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
E2E_REPORT = os.path.join(REPO_ROOT, "BENCH_perf.json")
DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "bench_perf_baseline.json")

#: Gate report schema version (documented in EXPERIMENTS.md).
#: Schema 8: the gated ``obs`` arm is ``untraced`` (was ``metrics_only``)
#: and the obs arms are timed in interleaved turns.  Schema 9: so are the
#: ``hier`` arms.
BENCH_SCHEMA = 9

#: --fleet --check fails when 256-node nodes/sec falls below (1 - this) *
#: the committed baseline.
REGRESSION_TOLERANCE = 0.30

#: --check gates the median grid parallel speedup at this floor — but
#: only when the machine actually has more cores than grid jobs; an
#: oversubscribed run (jobs > cpus) skips the gate with a logged reason.
GRID_SPEEDUP_FLOOR = 1.5

#: Alternating serial/parallel grid rounds; one wall-clock ratio of a
#: short grid on a shared host is too noisy to gate alone.
GRID_ROUNDS = 3

#: --trace --check fails when the streaming fleet summarizer processes
#: fewer MB of plain JSONL per second than this.  Deliberately far below
#: any healthy machine (CI runners do 20-60 MB/s) — the gate exists to
#: catch an accidental return to per-event accumulation, which tanks
#: throughput by an order of magnitude at fleet scale.
TRACE_SUMMARIZE_MBPS_FLOOR = 5.0

#: --obs-check fails when an attached ``Observability`` with no trace and
#: no spans costs more than this fractional slowdown over no handle at
#: all: instrumentation must be free when it is off.
OBS_OVERHEAD_TOLERANCE = 0.02

#: Rounds of the obs A/B; the gate reads the median of their ratios.
OBS_ROUNDS = 9

#: Simulated seconds an A/B arm runs before the next arm takes its turn
#: (see :func:`run_in_turns`).
TURN_SECONDS = 2.0

#: --hier fails when the learned budget coordinator (frozen actor) costs
#: more than this fractional slowdown over the heuristic coordinator at
#: 64 batched nodes — the fleet agent's decision path (observe + actor
#: forward + apportion) must stay a rounding error next to simulation.
HIER_OVERHEAD_TOLERANCE = 0.05

#: The two self-gating A/Bs: section -> (ratio key, tolerance, arm, base).
OVERHEAD_GATES = {
    "obs": ("untraced_overhead", OBS_OVERHEAD_TOLERANCE,
            "untraced observability", "no observability"),
    "hier": ("hier_overhead", HIER_OVERHEAD_TOLERANCE,
             "the learned coordinator", "the heuristic"),
}


def run_in_turns(advance: dict, duration: float, turn: float) -> dict:
    """Advance every arm to ``duration`` in turns; each arm's wall seconds.

    ``advance[name](t)`` runs arm ``name`` up to simulated time ``t``.
    Each turn moves every arm ``turn`` simulated seconds further, the arms
    taking their turns in every order in rotation; an arm's time is the
    sum of its turns.  A host slowdown that outlasts a few turns therefore
    lands on every arm alike, which back-to-back whole runs did not
    achieve: there, two identical arms read ratios of 0.82-1.22 per round
    on a shared 2-vCPU host.
    """
    spent = dict.fromkeys(advance, 0.0)
    orders = list(itertools.permutations(advance))
    t, k = 0.0, 0
    while t < duration:
        t = min(t + turn, duration)
        for name in orders[k % len(orders)]:
            t0 = time.perf_counter()
            advance[name](t)
            spent[name] += time.perf_counter() - t0
        k += 1
    return spent


def median_ratio(rounds: list, arm: str, base: str) -> float:
    """Median over rounds of ``arm / base``; > 1.0 means ``arm`` was slower.

    The median discards spike rounds in either direction.
    """
    return statistics.median(r[arm] / r[base] for r in rounds)


def bench_obs_overhead(
    app_name: str = "xapian", num_cores: int = 4,
    duration: float = 20.0, rps: float = 150.0, seed: int = 3,
    repeats: int = OBS_ROUNDS,
) -> dict:
    """In-process A/B of a DeepPower run with and without observability.

    Drives :class:`DeepPowerRuntime` (``gemini`` would dodge the
    instrumented runtime) because that is where the obs branches live.
    Each round starts one run per arm on the same trace and seed and
    advances them in turns of ``TURN_SECONDS`` simulated seconds
    (:func:`run_in_turns`).  The simulated duration is floored at 240 s,
    and one untimed round absorbs cold start.  The gated ``untraced`` arm
    attaches an ``Observability()`` with no sinks, which must run as the
    plain one does.  The traced arm writes a real JSONL trace to a
    throwaway file and is reported but not gated.
    """
    import tempfile

    from repro.core import DeepPowerAgent, default_ddpg_config
    from repro.core.runtime import DeepPowerConfig, DeepPowerRuntime
    from repro.obs import Observability, TraceWriter
    from repro.sim import RngRegistry

    app = get_app(app_name)
    duration = max(duration, 240.0)
    trace = constant_trace(rps, duration)

    def start(obs):
        agent = DeepPowerAgent(
            RngRegistry(seed).get("agent"),
            default_ddpg_config(warmup=8, batch_size=16),
        )
        ctx = build_context(app, trace, num_cores, seed, obs=obs)
        DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, agent, DeepPowerConfig(), obs=obs,
        ).start()
        ctx.source.start()
        return ctx.engine

    def one_round() -> dict:
        with tempfile.TemporaryDirectory(prefix="obs-check-") as tmp:
            handles = {
                "plain": None,
                "untraced": Observability(),
                "traced": Observability(
                    trace=TraceWriter(os.path.join(tmp, "run.trace.jsonl"))
                ),
            }
            engines = {name: start(obs) for name, obs in handles.items()}
            spent = run_in_turns(
                {name: eng.run_until for name, eng in engines.items()},
                duration, TURN_SECONDS,
            )
            for obs in handles.values():
                if obs is not None:
                    obs.close()
        return spent

    one_round()
    rounds = [one_round() for _ in range(repeats)]
    best = {name: min(r[name] for r in rounds) for name in rounds[0]}
    return {
        "sim_seconds": duration,
        "repeats": repeats,
        "plain_seconds": best["plain"],
        "untraced_seconds": best["untraced"],
        "traced_seconds": best["traced"],
        "untraced_overhead": median_ratio(rounds, "untraced", "plain"),
        "traced_overhead": median_ratio(rounds, "traced", "plain"),
    }


def bench_hier_overhead(
    nodes: int = 64, cores_per_node: int = 2, duration: float = 48.0,
    load: float = 0.05, seed: int = 3, repeats: int = 3,
) -> dict:
    """In-process A/B of the learned budget coordinator vs the heuristic.

    Each round runs the identical 64-node batched fleet under the
    heuristic :class:`~repro.cluster.powercap.PowerCapCoordinator` and
    under the learned coordinator with a frozen actor (``train=False`` —
    the decision path minus learner updates, which are a tunable training
    cost rather than fixed overhead).  Both fleets are built and started,
    advanced in turns of ``TURN_SECONDS`` simulated seconds
    (:func:`run_in_turns`) and finished; an arm's time also counts its
    build, start and finish.  One untimed round absorbs cold start.  Light
    per-worker load and the cheap tick-driven ``controller`` policy keep
    the shared pipeline thin, so the ratio actually stresses the
    coordinator path instead of burying it.
    """
    from repro.cluster import ClusterConfig, ClusterSim, fleet_power_budget
    from repro.hier import HierConfig

    app = get_app("xapian")
    trace = constant_trace(
        app.rps_for_load(load, nodes * cores_per_node), duration
    )
    budget = fleet_power_budget(nodes, cores_per_node, fraction=0.7)
    hier = HierConfig(train=False)
    decisions = []

    def one_round() -> dict:
        spent, sims = {}, {}
        for name in ("heuristic", "learned"):
            config = ClusterConfig(
                app="xapian", num_nodes=nodes, cores_per_node=cores_per_node,
                policy="controller", routing="jsq", seed=seed,
                power_cap_watts=budget,
                hier=hier if name == "learned" else None,
            )
            t0 = time.perf_counter()
            sims[name] = ClusterSim(config, trace)
            sims[name].start()
            spent[name] = time.perf_counter() - t0
        turns = run_in_turns(
            {name: sim.engine.run_until for name, sim in sims.items()},
            duration, TURN_SECONDS,
        )
        for name, sim in sims.items():
            t0 = time.perf_counter()
            metrics = sim.finish()
            spent[name] += turns[name] + time.perf_counter() - t0
        decisions.append(metrics.hier_decisions)
        return spent

    one_round()
    rounds = [one_round() for _ in range(repeats)]
    if decisions[-1] == 0:  # pragma: no cover - sanity guard
        raise AssertionError("hier bench made no coordinator decisions")
    return {
        "nodes": nodes,
        "cores_per_node": cores_per_node,
        "sim_seconds": duration,
        "repeats": repeats,
        "decisions": decisions[-1],
        "heuristic_seconds": min(r["heuristic"] for r in rounds),
        "learned_seconds": min(r["learned"] for r in rounds),
        "hier_overhead": median_ratio(rounds, "learned", "heuristic"),
    }


def bench_fleet_scaling(
    counts=(4, 64, 256, 1024), gate_nodes: int = 256,
    cores_per_node: int = 2, duration: float = 4.0, load: float = 0.05,
    seed: int = 3,
) -> dict:
    """Fleet throughput of the tick-driven ``controller`` policy.

    A fixed-parameter
    :class:`~repro.core.thread_controller.ThreadController` per node is
    the shape whose per-tick python dispatch dominates large fleets.
    Fleets from ``SCALAR_BATCH_CUTOFF`` (16) nodes up run it as one
    stacked fleet tick; smaller ones as one event calling each node's
    tick.  Light
    per-worker load so the measurement isolates tick overhead rather
    than the shared per-request pipeline.
    """
    from repro.cluster import ClusterConfig, ClusterSim

    app = get_app("xapian")
    rows = []
    for n in counts:
        trace = constant_trace(
            app.rps_for_load(load, n * cores_per_node), duration
        )
        config = ClusterConfig(
            app="xapian", num_nodes=n, cores_per_node=cores_per_node,
            policy="controller", routing="jsq", seed=seed,
        )
        t0 = time.perf_counter()
        ClusterSim(config, trace).run()
        wall = time.perf_counter() - t0
        rows.append({
            "nodes": n,
            "sim_seconds": duration,
            "wall_seconds": wall,
            "nodes_per_sec": n * duration / wall,
        })
    gate = next(r for r in rows if r["nodes"] == gate_nodes)
    return {
        "cpus": os.cpu_count(),
        "policy": "controller",
        "routing": "jsq",
        "cores_per_node": cores_per_node,
        "load": load,
        "rows": rows,
        # The --check floor compares this absolute throughput against the
        # committed baseline.
        "gate_nodes": gate_nodes,
        "gate_nodes_per_sec": gate["nodes_per_sec"],
    }


def _write_synthetic_fleet_trace(path: str, nodes: int, windows: int,
                                 compress=None, segment_events=None) -> None:
    """Emit a deterministic fleet-shaped trace (node/powercap windows)."""
    from repro.obs import TraceWriter

    with TraceWriter(
        path, meta={"kind": "bench-trace", "num_nodes": nodes},
        compress=compress, segment_events=segment_events,
    ) as w:
        w.emit("fleet-start", t=0.0, num_nodes=nodes)
        for win in range(windows):
            t = float(win + 1)
            for node in range(nodes):
                # Varied but deterministic floats so lines are full-width
                # (repr floats dominate real trace bytes too).
                w.emit(
                    "node-window", t=t, node=node,
                    power_w=15.0 + 0.125 * ((node * 7 + win) % 40),
                    queue_len=(node + win) % 5,
                    busy_workers=1 + (win % 2),
                    routed=win * 70 + node,
                    completed=win * 69 + node,
                    timeouts=win % 3,
                    ceiling=3.0,
                )
            w.emit(
                "powercap-window", t=t,
                total_w=nodes * (15.0 + 0.25 * (win % 8)),
                budget_w=nodes * 18.0, throttled=win % 16 == 0,
            )
        for node in range(nodes):
            w.emit(
                "node-summary", t=float(windows), node=node,
                routed=windows * 70 + node, availability=1.0, downtime=0.0,
                metrics={"completed": windows * 69, "timeouts": 3},
            )
        w.emit("fleet-summary", t=float(windows),
               metrics={"completed": nodes * windows * 69})


def bench_trace(nodes: int = 32, windows: int = 500, repeats: int = 3) -> dict:
    """Streaming-summarize throughput and the gzip trace size ratio.

    Writes one deterministic fleet-shaped trace (``nodes`` node-windows
    per simulated second for ``windows`` seconds, plus powercap windows
    and summaries), then measures (a) how many MB of plain JSONL
    :func:`~repro.obs.summarize_fleet_trace` processes per wall second
    (best of ``repeats``) and (b) the plain-vs-gzip size ratio of the
    same event stream.  ``--trace --check``
    gates (a) at ``TRACE_SUMMARIZE_MBPS_FLOOR``; the ratios are
    informational.
    """
    import tempfile

    from repro.obs import summarize_fleet_trace

    with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
        plain = os.path.join(tmp, "bench.trace.jsonl")
        _write_synthetic_fleet_trace(plain, nodes, windows)
        plain_bytes = os.path.getsize(plain)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            summary = summarize_fleet_trace(plain)
            best = min(best, time.perf_counter() - t0)
        if len(summary.nodes) != nodes:  # pragma: no cover - sanity guard
            raise AssertionError("bench trace summarized wrong node count")
        result = {
            "nodes": nodes,
            "windows": windows,
            "events": nodes * windows + windows + nodes + 3,
            "plain_bytes": plain_bytes,
            "summarize_seconds": best,
            "summarize_mb_per_sec": plain_bytes / 1e6 / best,
        }
        gz = os.path.join(tmp, "bench.gzip.trace.jsonl")
        t0 = time.perf_counter()
        _write_synthetic_fleet_trace(gz, nodes, windows, compress="gzip")
        write_wall = time.perf_counter() - t0
        size = os.path.getsize(gz)
        result["codecs"] = {
            "gzip": {
                "bytes": size,
                "ratio_vs_plain": plain_bytes / size,
                "write_seconds": write_wall,
            },
        }
        return result


def _grid_specs(apps, num_cores: int, duration: float, seed: int):
    specs = []
    for name in apps:
        # gemini ticks a per-core controller every 1 ms, making each cell
        # representative of real experiment cost (baseline cells are so
        # cheap that pool start-up would dominate the comparison).
        for load_rps in (80.0, 150.0, 220.0):
            specs.append(
                RunSpec(
                    app=name,
                    policy="gemini",
                    trace=constant_trace(load_rps, duration),
                    num_cores=num_cores,
                    seed=seed,
                    label="bench-perf",
                )
            )
    return specs


def bench_grid(apps, jobs, num_cores: int = 4, duration: float = 20.0,
               seed: int = 3) -> dict:
    """Wall-clock the same grid serially and fanned over ``jobs`` workers.

    The two arms alternate for ``GRID_ROUNDS`` rounds; ``speedups`` holds
    each round's serial/parallel ratio and ``speedup`` their median.
    ``jobs=None`` auto-sizes to ``min(4, cpu_count)`` so the benchmark
    never oversubscribes by default.  An explicit ``jobs`` larger than the
    machine still runs (the wall-clock numbers are real), but the section
    marks itself oversubscribed and records why the speedup gate does not
    apply: N workers time-slicing fewer cores measure scheduler fairness,
    not parallel speedup.
    """
    cpus = os.cpu_count() or 1
    requested = jobs
    if jobs is None:
        jobs = min(4, cpus)
    jobs = max(1, int(jobs))
    specs = _grid_specs(apps, num_cores, duration, seed)

    rounds, reference = [], None
    for _ in range(GRID_ROUNDS):
        row = {}
        for arm, arm_jobs in (("serial", 1), ("parallel", jobs)):
            t0 = time.perf_counter()
            outcomes = run_grid(specs, jobs=arm_jobs)
            row[arm] = time.perf_counter() - t0
            metrics = [o.unwrap() for o in outcomes]
            if reference is None:
                reference = metrics
            elif metrics != reference:  # pragma: no cover - determinism guard
                raise AssertionError(f"{arm} grid diverged from the first serial grid")
        rounds.append(row)
    oversubscribed = jobs > cpus
    if oversubscribed:
        gate = (
            f"skipped: jobs={jobs} oversubscribes {cpus} cpu(s); "
            f"wall-clock recorded, speedup not gated"
        )
    elif jobs == 1:
        gate = "skipped: jobs=1 is the serial path; nothing to compare"
    else:
        gate = "ok"
    return {
        "cells": len(specs),
        "jobs_requested": requested,
        "jobs": jobs,
        "cpus": cpus,
        "oversubscribed": oversubscribed,
        "speedup_gate": gate,
        "rounds": GRID_ROUNDS,
        "serial_seconds": statistics.median(r["serial"] for r in rounds),
        "parallel_seconds": statistics.median(r["parallel"] for r in rounds),
        "speedups": [r["serial"] / r["parallel"] for r in rounds],
        "speedup": median_ratio(rounds, "serial", "parallel"),
    }


def run_benchmarks(args) -> dict:
    """Run the sections the flags select; with no section flag, the grid."""
    result = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if not (args.fleet or args.trace or args.hier or args.obs_check):
        apps = [a.strip() for a in args.grid_apps.split(",") if a.strip()]
        print(f"[bench_perf] grid of {3 * len(apps)} cells, jobs={args.jobs or 'auto'} ...")
        grid = bench_grid(apps, args.jobs, duration=args.duration)
        print(
            f"  median serial {grid['serial_seconds']:.2f}s, "
            f"jobs={grid['jobs']} {grid['parallel_seconds']:.2f}s "
            f"({grid['speedup']:.2f}x on {grid['cpus']} cpu(s); rounds "
            + ", ".join(f"{s:.2f}x" for s in grid["speedups"]) + ")"
        )
        result["grid"] = grid
    if args.fleet:
        print("[bench_perf] fleet-tick throughput ...")
        scaling = bench_fleet_scaling()
        for row in scaling["rows"]:
            print(
                f"  {row['nodes']} nodes: "
                f"{row['nodes_per_sec']:.0f} node-s/s"
            )
        result["fleet_scaling"] = scaling
    if args.trace:
        print("[bench_perf] streaming trace summarize + gzip ratio ...")
        tr = bench_trace()
        print(
            f"  {tr['events']:,} events, {tr['plain_bytes'] / 1e6:.1f} MB "
            f"plain: summarize {tr['summarize_mb_per_sec']:.1f} MB/s"
        )
        for codec, row in tr["codecs"].items():
            print(
                f"  {codec}: {row['bytes'] / 1e6:.2f} MB "
                f"({row['ratio_vs_plain']:.1f}x smaller)"
            )
        result["trace"] = tr
    if args.hier:
        print("[bench_perf] learned-coordinator overhead A/B at 64 nodes ...")
        hier = bench_hier_overhead()
        print(
            f"  heuristic {hier['heuristic_seconds']:.2f}s, learned "
            f"{hier['learned_seconds']:.2f}s ({hier['decisions']} decisions)"
        )
        result["hier"] = hier
    if args.obs_check:
        print(
            "[bench_perf] observability overhead A/B "
            f"(median of {OBS_ROUNDS} interleaved rounds) ..."
        )
        obs = bench_obs_overhead(duration=args.duration)
        print(
            f"  plain {obs['plain_seconds']:.2f}s, untraced "
            f"{obs['untraced_seconds']:.2f}s, traced "
            f"{obs['traced_seconds']:.2f}s "
            f"({(obs['traced_overhead'] - 1.0) * 100:+.1f}%, not gated)"
        )
        result["obs"] = obs
    return result


def check_overhead(result: dict, section: str) -> int:
    """Gate one paired-rounds A/B section (``obs`` or ``hier``).

    Returns a process exit code.
    """
    key, tolerance, arm, base = OVERHEAD_GATES[section]
    overhead = result[section][key]
    pct = (overhead - 1.0) * 100
    if overhead > 1.0 + tolerance:
        print(
            f"[bench_perf] REGRESSION: {arm} costs {pct:.1f}% over {base} "
            f"(> {tolerance * 100:.0f}% tolerance)",
            file=sys.stderr,
        )
        return 1
    print(
        f"[bench_perf] {section} overhead {pct:+.1f}% "
        f"(tolerance {tolerance * 100:.0f}%): OK"
    )
    return 0


def check_regression(result: dict, baseline_path: str) -> int:
    """Gate the grid, trace and fleet-scaling sections ``result`` holds.

    Returns a process exit code.
    """
    failures = []
    grid = result.get("grid")
    if grid is not None:
        speedup = statistics.median(grid["speedups"])
        if grid["speedup_gate"] != "ok":
            print(f"[bench_perf] grid speedup gate {grid['speedup_gate']}")
        elif speedup < GRID_SPEEDUP_FLOOR:
            failures.append(
                f"median grid speedup {speedup:.2f}x below "
                f"{GRID_SPEEDUP_FLOOR}x floor at jobs={grid['jobs']} "
                f"on {grid['cpus']} cpu(s)"
            )
        else:
            print(f"[bench_perf] median grid speedup {speedup:.2f}x: OK")
    scaling = result.get("fleet_scaling")
    if scaling is not None and not os.path.exists(baseline_path):
        print(f"[bench_perf] no baseline at {baseline_path}; skipping floor check")
    elif scaling is not None:
        with open(baseline_path) as f:
            base_nps = json.load(f)["fleet_scaling"]["gate_nodes_per_sec"]
        n = scaling["gate_nodes"]
        nps = scaling["gate_nodes_per_sec"]
        floor = (1.0 - REGRESSION_TOLERANCE) * base_nps
        if nps < floor:
            failures.append(
                f"fleet nodes/sec at {n} nodes regressed: {nps:,.0f} < "
                f"{floor:,.0f} (70% of baseline {base_nps:,.0f})"
            )
        else:
            print(
                f"[bench_perf] fleet nodes/sec at {n} nodes {nps:,.0f} vs "
                f"baseline {base_nps:,.0f} (floor {floor:,.0f}): OK"
            )
    trace = result.get("trace")
    if trace is not None:
        mbps = trace["summarize_mb_per_sec"]
        if mbps < TRACE_SUMMARIZE_MBPS_FLOOR:
            failures.append(
                f"trace summarize throughput {mbps:.1f} MB/s below "
                f"{TRACE_SUMMARIZE_MBPS_FLOOR} MB/s floor"
            )
        else:
            print(f"[bench_perf] trace summarize {mbps:.1f} MB/s: OK")
    for msg in failures:
        print(f"[bench_perf] REGRESSION: {msg}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the grid comparison "
                        "(default: min(4, cpu count) so the benchmark never "
                        "oversubscribes by default)")
    p.add_argument("--grid-apps", default="xapian,moses",
                   help="comma-separated apps for the grid benchmark")
    p.add_argument("--duration", type=float, default=20.0,
                   help="simulated seconds per grid cell and per obs A/B "
                        "run (floored at 240 there)")
    p.add_argument("--out", default=None,
                   help="write the JSON gate report here (not "
                        "BENCH_perf.json, the end-to-end benchmark's report)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when the grid, trace or fleet-scaling "
                        "section misses its gate")
    p.add_argument("--fleet", action="store_true",
                   help="measure fleet-tick throughput at 4-1024 nodes; "
                        "with --check, gate 256 nodes against the baseline")
    p.add_argument("--trace", action="store_true",
                   help="benchmark the streaming trace summarizer "
                        "(MB/s over a synthetic fleet trace) and the "
                        "gzip-vs-plain size ratio; with "
                        f"--check, gate MB/s at {TRACE_SUMMARIZE_MBPS_FLOOR}")
    p.add_argument("--hier", action="store_true",
                   help="run the learned-vs-heuristic budget "
                        "coordinator A/B at 64 batched nodes; exit 1 when "
                        "the frozen fleet agent's decision path costs more "
                        f"than {HIER_OVERHEAD_TOLERANCE * 100:.0f}%%")
    p.add_argument("--obs-check", action="store_true",
                   help="run the observability A/B; exit 1 when a "
                        "handle with no trace and no spans costs more than "
                        f"{OBS_OVERHEAD_TOLERANCE * 100:.0f}%%")
    p.add_argument("--baseline", default=DEFAULT_BASELINE,
                   help="baseline JSON for the --fleet --check floor")
    args = p.parse_args(argv)
    if args.out is not None and os.path.abspath(args.out) == E2E_REPORT:
        p.error("BENCH_perf.json is the end-to-end benchmark's report; "
                "write the gate report elsewhere")

    result = run_benchmarks(args)
    if args.out is not None:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[bench_perf] wrote {args.out}")

    code = check_regression(result, args.baseline) if args.check else 0
    for section in OVERHEAD_GATES:
        if section in result:
            code = max(code, check_overhead(result, section))
    return code


if __name__ == "__main__":
    sys.exit(main())
