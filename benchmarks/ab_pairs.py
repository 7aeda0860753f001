#!/usr/bin/env python3
"""Alternating A/B pairs of one end-to-end workload: a base revision
against this checkout.

Usage::

    python benchmarks/ab_pairs.py --base HEAD~1 --workload fleet-chaos --seed 1 --pairs 10
    python benchmarks/ab_pairs.py --base HEAD~1 --workload node-deeppower --metric setup_s

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --runs 1``
once in a copy of the base and once in a copy of this checkout,
alternating which side goes first so drift on the host hits both alike.
Both copies live in temporary directories (honouring ``TMPDIR``) and are
removed afterwards, so neither side gains from where it runs.  The base
is ``git archive`` of ``--base``; the change is this checkout's tracked
files plus its untracked, not-ignored ones, as the working tree holds
them.  The repository itself gains no worktree entry.

Prints every pair, then each side's median and quartiles of the
``--metric`` (any end-to-end metric of ``BENCHMARK.json``; default
``node_s_per_wall_s``), the change over the base, the pairs the change
won, whether the gap between the medians is larger than the base's
interquartile range, whether ``sim_energy_j`` and ``sim_digest`` were
equal in every run, and each side's median of the other end-to-end
metrics.  A pair is won, and the gap counted, in the direction the
metric's ``better`` field in ``BENCHMARK.json`` gives.  The exit code is
1 when a run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
METRIC = "node_s_per_wall_s"


def _better() -> Dict[str, str]:
    """End-to-end metric name -> ``"higher"`` or ``"lower"``, from
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


#: The end-to-end metrics and the direction in which each is better.
BETTER = _better()

#: ``runner(checkout, workload, seed)`` -> one run's result, see :func:`run_e2e`.
Runner = Callable[[Path, str, int], Dict]
#: ``checkout(rev)`` -> context manager yielding a copy of ``rev``, or of
#: the working tree when ``rev`` is None; see :func:`tree_copy`.
Checkout = Callable[[Optional[str]], ContextManager[Path]]


def _load_summarize() -> Callable[[List[float]], Dict]:
    """``summarize`` from ``benchmarks/e2e/run.py``, so both report the
    same quartiles."""
    spec = importlib.util.spec_from_file_location(
        "e2e_run", ROOT / "benchmarks" / "e2e" / "run.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.summarize


summarize = _load_summarize()


def run_e2e(checkout: Path, workload: str, seed: int) -> Dict:
    """One ``run.py --runs 1`` call in ``checkout``.

    Returns ``{"metrics": {name: value}, "sim_digest": hex}``; raises
    ``RuntimeError`` when the run fails.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
             "--seed", str(seed), "--runs", "1", "--out", str(out)],
            cwd=checkout, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"run.py in {checkout} exited {proc.returncode}: "
                f"{(proc.stdout + proc.stderr)[-2000:]}"
            )
        ev = json.loads(out.read_text())["workloads"][workload]
    return {
        "metrics": {k: v["median"] for k, v in ev["metrics"].items()},
        "sim_digest": ev["sim_digest"],
    }


@contextlib.contextmanager
def tree_copy(rev: Optional[str]) -> Iterator[Path]:
    """The files of ``rev`` in a temporary directory, removed on exit.

    With ``rev`` None, the working tree's files instead: the tracked ones
    and the untracked ones git does not ignore, as they are on disk.
    """
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        path = Path(tmp) / "tree"
        path.mkdir()
        if rev is None:
            listed = subprocess.run(
                ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                cwd=ROOT, check=True, capture_output=True,
            ).stdout
            for name in filter(None, listed.split(b"\0")):
                src = ROOT / os.fsdecode(name)
                if src.is_file():  # a tracked file deleted on disk is listed too
                    dst = path / os.fsdecode(name)
                    dst.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copy2(src, dst)
        else:
            archive = Path(tmp) / "base.tar"
            for cmd in (
                ["git", "archive", "--output", str(archive), rev],
                ["tar", "-xf", str(archive), "-C", str(path)],
            ):
                subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)
        yield path


def run_pairs(
    runner: Runner, base: Path, change: Path, workload: str, seed: int,
    pairs: int, metric: str = METRIC,
) -> List[Tuple[Dict, Dict]]:
    """``pairs`` (base, change) results; odd pairs run the change first.

    Echoes each pair's ``metric`` as it completes.
    """
    results = []
    for i in range(pairs):
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        got = {side: runner(path, workload, seed) for side, path in order}
        results.append((got["base"], got["change"]))
        print(
            f"# pair {i + 1} ({order[0][0]} first): "
            f"base {got['base']['metrics'][metric]:.6g} "
            f"change {got['change']['metrics'][metric]:.6g}",
            flush=True,
        )
    return results


def report(results: List[Tuple[Dict, Dict]], metric: str = METRIC) -> List[str]:
    """The summary lines for ``results`` on ``metric``.

    Pairs won and the median gap count in the metric's better direction,
    so a positive gap is always an improvement.
    """
    base = [b["metrics"][metric] for b, _ in results]
    change = [c["metrics"][metric] for _, c in results]
    bq, cq = summarize(base), summarize(change)
    sign = 1.0 if BETTER[metric] == "higher" else -1.0
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    gap = sign * (cq["median"] - bq["median"])
    iqr = bq["q3"] - bq["q1"]
    runs = [r for pair in results for r in pair]
    energy = len({r["metrics"]["sim_energy_j"] for r in runs}) == 1
    digests = {r["sim_digest"] for r in runs}
    lines = [
        f"{side:<6} {metric} median {q['median']:.6g} q1={q['q1']:.6g} "
        f"q3={q['q3']:.6g} n={q['n']}"
        for side, q in (("base", bq), ("change", cq))
    ]
    lines += [
        f"change/base {cq['median'] / bq['median']:.3f}x; "
        f"pairs won {won}/{len(results)} ({BETTER[metric]} is better); "
        f"median gap {gap:.6g} > base IQR "
        f"{iqr:.6g}: {'yes' if gap > iqr else 'no'}",
        f"sim_energy_j equal: {'yes' if energy else 'no'}; "
        f"sim_digest equal: {'yes' if len(digests) == 1 else 'no'} "
        f"({', '.join(sorted(d[:12] for d in digests))})",
    ]
    for name in results[0][0]["metrics"]:
        if name != metric:
            lines.append(
                f"{name} median base "
                f"{statistics.median(b['metrics'][name] for b, _ in results):.6g}"
                f" change "
                f"{statistics.median(c['metrics'][name] for _, c in results):.6g}"
            )
    return lines


def main(
    argv=None, runner: Runner = run_e2e, checkout: Checkout = tree_copy
) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--metric", default=METRIC, choices=sorted(BETTER),
                   help=f"end-to-end metric to pair (default {METRIC})")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")

    with checkout(args.base) as base_path, checkout(None) as change_path:
        print(f"# base {args.base}; change: the working tree of {ROOT}; "
              f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.metric}",
              flush=True)
        try:
            results = run_pairs(
                runner, base_path, change_path, args.workload, args.seed, args.pairs,
                args.metric,
            )
        except RuntimeError as err:
            print(f"# FAILED {err}", file=sys.stderr)
            return 1
    for line in report(results, args.metric):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
