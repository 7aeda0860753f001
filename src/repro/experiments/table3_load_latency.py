"""Table 3: per-app p99 latency at 20/50/70 % load (no power management).

The paper characterises each benchmark by its SLA and the unmanaged p99
latency at three static load levels.  We reproduce the table on the
simulated stack: constant-rate Poisson arrivals at the given fraction of
saturation, all cores at max frequency.

Expected shape: p99 grows with load for the long-tailed apps (queueing
amplifies the tail) but stays nearly flat for Img-dnn (deterministic
service times leave nothing for queueing to amplify until saturation),
mirroring the paper's 2.30 / 2.30 / 2.48 ms row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import RunResultCache

from ..analysis.reporting import format_table
from ..workload.apps import get_app
from ..workload.trace import constant_trace
from .scenarios import active_profile, workers_for

__all__ = ["Table3Row", "run_table3", "render_table3", "check_table3", "TABLE3_LOADS"]

TABLE3_LOADS = (0.2, 0.5, 0.7)


@dataclass(frozen=True)
class Table3Row:
    app: str
    sla_ms: float
    #: load fraction -> p99 latency (ms)
    p99_ms: Dict[float, float]
    mean_ms: Dict[float, float]


def run_table3(
    apps: Optional[Sequence[str]] = None,
    loads: Sequence[float] = TABLE3_LOADS,
    seed: int = 2023,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache: Optional["RunResultCache"] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, Table3Row]:
    """Measure unmanaged p99 at each static load level.

    The (app x load) grid fans out over ``jobs`` worker processes — each
    cell is an independent simulation, so the results are bitwise identical
    to the serial loop — and ``result_cache`` skips cells already stored.
    ``trace_dir`` writes a per-cell JSONL observability trace.
    """
    from ..parallel import RunSpec, run_grid

    profile = active_profile(full)
    apps = apps if apps is not None else ("xapian", "masstree", "moses", "sphinx", "img-dnn")
    specs: List[RunSpec] = []
    for name in apps:
        app = get_app(name)
        nw = workers_for(name, profile.num_cores)
        # Tailbench load is a fraction of the peak QPS the server sustains,
        # and at peak every request carries the full colocation inflation:
        # the peak is n * f / (mean_work * (1 + contention)), not the
        # nominal capacity (which would make "70 % load" saturate it).
        peak = nw * 2.1 / (app.service.expected_work() * (1.0 + app.contention))
        for load in loads:
            rps = load * peak
            specs.append(
                RunSpec(
                    app=name,
                    policy="baseline",
                    trace=constant_trace(rps, profile.table3_duration),
                    num_cores=profile.num_cores,
                    seed=seed,
                    num_workers=nw,
                    policy_kwargs=(("use_turbo", False),),
                    label=f"table3-{profile.name}",
                )
            )
    outcomes = iter(run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir))

    out: Dict[str, Table3Row] = {}
    for name in apps:
        app = get_app(name)
        p99: Dict[float, float] = {}
        mean: Dict[float, float] = {}
        for load in loads:
            m = next(outcomes).unwrap()
            p99[load] = m.tail_latency * 1e3
            mean[load] = m.mean_latency * 1e3
        out[name] = Table3Row(app=name, sla_ms=app.sla * 1e3, p99_ms=p99, mean_ms=mean)
    return out


def render_table3(results: Dict[str, Table3Row]) -> str:
    loads = sorted(next(iter(results.values())).p99_ms)
    headers = ["app", "SLA (ms)"] + [f"p99@{int(l*100)}% (ms)" for l in loads]
    rows = []
    for name, row in results.items():
        # A degenerate cell (zero completions) carries NaN; show it as n/a
        # rather than a number that sorts/plots as data.
        rows.append(
            [name, row.sla_ms]
            + ["n/a" if v != v else v for v in (row.p99_ms[l] for l in loads)]
        )
    return format_table(headers, rows, "{:.2f}")


def check_table3(results: Dict[str, Table3Row], full: Optional[bool] = None) -> List[str]:
    """Table 3's claims that ``results`` fails.

    The tail grows with load (within 5 % small-sample noise for the
    near-deterministic app at low load), and 70 % load stays servable:
    p99 within 2.2x the SLA at the smoke profile, whose 4-core socket
    queues burstier, and 1.4x at full.  Img-dnn's deterministic service
    keeps its tail far below the SLA at every load (paper: 2.30 / 2.30 /
    2.48 ms vs SLA 5), unlike the long-tailed apps, whose p99 sits near
    their SLA.
    """
    envelope = 1.4 if active_profile(full).is_full else 2.2
    claims = []
    for name, row in results.items():
        p99 = row.p99_ms
        claims += [
            (f"{name}: p99@70% {p99[0.7]:.2f} ms >= 0.95 x p99@20% {p99[0.2]:.2f} ms",
             p99[0.7] >= p99[0.2] * 0.95),
            (f"{name}: p99@70% {p99[0.7]:.2f} ms <= {envelope} x SLA {row.sla_ms:.2f} ms",
             p99[0.7] <= row.sla_ms * envelope),
        ]
    img = results["img-dnn"]
    claims += [
        (f"img-dnn: p99@{load:.0%} {v:.2f} ms <= 0.7 x SLA {img.sla_ms:.2f} ms",
         v <= img.sla_ms * 0.7)
        for load, v in img.p99_ms.items()
    ]
    img_ratio = img.p99_ms[0.7] / img.sla_ms
    for name in ("xapian", "masstree", "moses", "sphinx"):
        ratio = results[name].p99_ms[0.7] / results[name].sla_ms
        claims.append((f"{name}: p99@70%/SLA {ratio:.2f} > img-dnn's {img_ratio:.2f}",
                       ratio > img_ratio))
    return [claim for claim, holds in claims if not holds]
