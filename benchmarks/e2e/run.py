#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: four workloads, seven metrics.

Usage::

    python benchmarks/e2e/run.py --seed 1 --runs 5 [--workload NAME] [--trace] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME --seed 1 --seconds 32 --trace 0

Every run executes one workload in a fresh single-threaded subprocess
(``worker.py``), one run at a time; repeats go round-robin over the
workloads so machine drift hits each of them alike.  ``--runs N`` runs
each workload N times.  ``--seconds T`` starts another round only while
it, and the traced runs ``--trace`` asks for, are expected to end within
T seconds; one untraced round is always made.  Workload names and the
gated end-to-end and per-layer metrics are read from ``BENCHMARK.json``.

Standard output: host details as ``#`` lines, then every end-to-end metric
as ``workload metric median unit q1=.. q3=.. n=..``.  ``--trace`` adds one
traced run per workload and prints its per-layer metrics; the span log of
its first 10,000 engine events is written to ``benchmarks/e2e/out/``.  The
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the gated end-to-end metrics, or with ``--trace`` the
per-layer ones; names carry a ``workload.`` prefix when several workloads
ran.  A run that crashes or times out counts as attempted and failed.  The
exit code is 1 when an output check fails or a run crashes, and 2 when the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: A worker is killed after this long; the slowest traced run takes ~20 s.
WORKER_TIMEOUT_S = 120
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A traced run's wall time over an untraced round's, with margin; traced
#: runs measured 1.44-1.58x on a 2-vCPU host.
TRACED_COST = 1.7

#: End-to-end metrics printed but not in ``BENCHMARK.json``, as (name, unit).
#: ``error_rate`` is 0 on a correct build, and the result line carries it as
#: ``failed / attempted``.  The other two are exact for one seed, since
#: ``sim_digest`` pins them, but differ several-fold between seeds.
UNGATED = (
    ("error_rate", "fraction"),
    ("sim_p99_over_sla", "ratio"),
    ("sim_miss_frac", "fraction"),
)


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run ``worker.py`` once and return its JSON result.

    A worker that crashes or times out comes back as a run with
    ``crashed`` set and its error as the one failure.
    """
    env = dict(os.environ, **SINGLE_THREAD)
    loadavg = os.getloadavg()[0]
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--t0", repr(time.monotonic()), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {WORKER_TIMEOUT_S} s"
    else:
        error = f"worker exited {proc.returncode}: {proc.stderr[-3000:]}"
        if proc.returncode == 0:
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                error = f"worker printed no result: {proc.stdout[-3000:]}"
            else:
                result["loadavg_before"] = loadavg
                return result
    return {"crashed": True, "failures": [error], "loadavg_before": loadavg}


def describe(r: dict) -> str:
    if r.get("crashed"):
        return "crashed"
    return (
        f"{r['run_s']:.3f} s, set-up {r['setup_s']:.3f} s, "
        f"loadavg {r['loadavg_before']:.2f}"
    )


def run_all(names, seed: int, runs, seconds, trace: bool, clock=time.monotonic):
    """Untraced rounds, round-robin over ``names``, then one traced run each."""
    results = {name: [] for name in names}
    start = clock()
    while True:
        round_start = clock()
        for name in names:
            r = spawn(name, seed)
            results[name].append(r)
            print(f"# run {name} {len(results[name])}: {describe(r)}", flush=True)
        now = clock()
        round_s = now - round_start
        if runs is not None:
            if len(results[names[0]]) >= runs:
                break
        elif now - start + round_s * (1.0 + (TRACED_COST if trace else 0.0)) > seconds:
            break
    traced = dict.fromkeys(names)
    if trace:
        OUT.mkdir(exist_ok=True)
        for name in names:
            log = OUT / f"spans-{name}-s{seed}.jsonl"
            traced[name] = spawn(name, seed, "--trace", "--span-log", str(log))
            print(f"# traced run {name}: {describe(traced[name])}; span log "
                  f"{log.relative_to(ROOT)}", flush=True)
    return results, traced


def host_info(seed: int) -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def summarize(values) -> dict:
    """Median, quartiles and count (quartiles collapse for one value)."""
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def evaluate(runs: list, traced, per_layer=()) -> dict:
    """Checks across one workload's runs, and its metrics.

    Metrics come from the runs that did not crash; ``per_layer`` names the
    traced run's metrics to report.
    """
    ok = [r for r in runs if not r.get("crashed")]
    digest = ok[0]["sim_digest"] if ok else None
    labelled = [(f"run {i + 1}", r) for i, r in enumerate(runs)]
    if traced:
        labelled.append(("traced run", traced))
    failures = []
    failed = 0
    for label, r in labelled:
        problems = list(r["failures"])
        if not r.get("crashed") and r["sim_digest"] != digest:
            problems.append(
                f"sim_digest {r['sim_digest'][:12]} differs from run 1's {digest[:12]}"
            )
        failures += [f"{label}: {p}" for p in problems]
        failed += bool(problems)
    attempted = len(labelled)
    values = {"error_rate": [failed / attempted]}
    if ok:
        values.update({
            "node_s_per_wall_s": [r["node_s"] / r["run_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        })
        values.update({k: [r["sim"][k] for r in ok] for k in ok[0]["sim"]})
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "sim_digest": digest,
        "metrics": {k: dict(summarize(v), values=v) for k, v in values.items()},
    }
    if ok and traced and not traced.get("crashed"):
        layer = dict(ok[0]["counters"], **traced["layers"])
        untraced_wall = statistics.median(r["wall_s"] for r in ok)
        layer["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
        out["per_layer"] = {name: layer[name] for name in per_layer}
        out["other_callbacks"] = traced["other_callbacks"]
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    gated = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]

    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", choices=workloads, default=None,
                   help="one workload (default: all four)")
    repeat = p.add_mutually_exclusive_group()
    repeat.add_argument("--runs", type=int, default=None,
                        help="untraced runs per workload (default 1)")
    repeat.add_argument("--seconds", type=float, default=None,
                        help="run rounds for at most about this long")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                   help="add one traced run per workload; report per-layer metrics")
    p.add_argument("--out", default=None, help="write the full report as JSON")
    args = p.parse_args(argv)
    if args.runs is None and args.seconds is None:
        args.runs = 1
    if (args.runs is not None and args.runs < 1) or (
        args.seconds is not None and args.seconds <= 0
    ):
        p.error("--runs and --seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workloads
    host = host_info(args.seed)
    for key, value in host.items():
        print(f"# {key} {value}")
    results, traced = run_all(names, args.seed, args.runs, args.seconds, bool(args.trace))

    layer_names = [name for name, _ in per_layer]
    report = {"host": host, "workloads": {}}
    for name in names:
        report["workloads"][name] = ev = evaluate(results[name], traced[name], layer_names)
        ev["runs"], ev["traced"] = results[name], traced[name]
        for metric, unit in gated + list(UNGATED):
            s = ev["metrics"].get(metric)
            if s is not None:
                print(
                    f"{name} {metric} {s['median']:.6g} {unit} "
                    f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
                )
        print(f"{name} sim_digest {ev['sim_digest']}")
        if args.trace and "per_layer" in ev:
            for metric, unit in per_layer:
                print(f"{name} {metric} {ev['per_layer'][metric]:.6g} {unit}")
        for callback, secs in ev.get("other_callbacks", {}).items():
            print(f"# {name} unmapped callback {callback} {secs:.6f} s")
        for failure in ev["failures"]:
            print(f"# {name} FAILED {failure}")

    attempted = sum(ev["attempted"] for ev in report["workloads"].values())
    failed = sum(ev["failed"] for ev in report["workloads"].values())
    metrics = {}
    for name, ev in report["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            for metric, unit in per_layer if "per_layer" in ev else ():
                metrics[prefix + metric] = {"value": ev["per_layer"][metric], "unit": unit}
        else:
            for metric, unit in gated:
                if metric in ev["metrics"]:
                    value = ev["metrics"][metric]["median"]
                    metrics[prefix + metric] = {"value": value, "unit": unit}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report.update(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    print(json.dumps(line, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
