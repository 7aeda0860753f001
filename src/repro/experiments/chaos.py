"""Chaos experiment: the fleet under seeded node failures.

Sweeps fault intensity × routing policy over the standard chaos scenario
(:func:`~repro.faults.fleet.standard_chaos_plan`: one node crash, one
correlated rack failure, one telemetry partition, per-node stochastic
DVFS faults) and adds a *no-failover ablation* — health-aware dispatch
disabled — at the top intensity.  Each row reports tail latency, SLA
compliance, energy, and the resilience counters (crashes, dropped and
re-dispatched requests, per-node availability) against the intensity-0
baseline of the same routing.

The contrast the grid is built to show: with failover, the fleet keeps
meeting the SLA on surviving nodes through crashes; without it, an
oblivious router (round-robin) keeps feeding dead nodes, whose mailboxes
drain as huge-latency completions on restart and blow the fleet p99 by
orders of magnitude.  Queue-aware routers (JSQ, power-aware) partially
self-heal — a paused node's backlog repels them — which the ablation rows
make visible too.

Cells are :class:`~repro.cluster.sim.FleetSpec` objects — a
:class:`~repro.cluster.sim.ClusterConfig` carrying the fault plan, plus
the shared trace — executed through :func:`repro.parallel.run_grid`; the
fault plan is part of the cache key (see ``plan_digest``), so chaos cells
never collide with clean fleet cells of the same spec.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.reporting import format_table
from ..cluster.sim import ClusterConfig, FleetSpec, fleet_trace
from ..faults.fleet import standard_chaos_plan
from ..parallel.grid import run_grid
from .fleet import FLEET_LOAD, fleet_dimensions, fmt_cell
from .scenarios import active_profile, evaluation_trace

__all__ = ["run_chaos", "render_chaos", "check_chaos", "CHAOS_ROUTINGS", "CHAOS_INTENSITIES"]

#: Routing policies swept (display order).
CHAOS_ROUTINGS = ("round-robin", "jsq", "power-aware")
#: Fault intensities swept; 0.0 is the no-fault baseline row.
CHAOS_INTENSITIES = (0.0, 1.0)
#: Per-node power policy for every cell (prediction baseline: cheap and
#: deterministic, so the grid isolates routing/failover effects).
CHAOS_POLICY = "retail"


def run_chaos(
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=None,
    trace_dir: Optional[str] = None,
    num_nodes: Optional[int] = None,
    app_name: str = "xapian",
    seed: Optional[int] = None,
) -> dict:
    """Run the fault-intensity × routing chaos grid plus ablation rows.

    Returns a plain-data dict (checkpoint/cache friendly):
    ``{"profile", "app", "num_nodes", "cores_per_node", "seed",
    "rows": [{routing, intensity, failover, metrics | error}, ...]}``.
    """
    profile = active_profile(full)
    default_nodes, cores_per_node = fleet_dimensions(profile)
    n_nodes = num_nodes if num_nodes is not None else default_nodes
    run_seed = profile.seed if seed is None else seed
    base = evaluation_trace(profile)
    trace = fleet_trace(base, app_name, n_nodes, cores_per_node, load=FLEET_LOAD)
    duration = float(trace.duration)

    specs: List[FleetSpec] = []
    cells: List[dict] = []

    def add(routing: str, intensity: float, health_aware: Optional[bool]) -> None:
        plan = standard_chaos_plan(intensity, n_nodes, duration, seed=run_seed)
        failover = health_aware is None  # None = auto (on when plan active)
        config = ClusterConfig(
            app=app_name,
            num_nodes=n_nodes,
            cores_per_node=cores_per_node,
            policy=CHAOS_POLICY,
            routing=routing,
            seed=run_seed,
            fault_plan=plan if not plan.is_empty else None,
            health_aware=health_aware,
        )
        specs.append(
            FleetSpec(
                config,
                trace,
                label=(
                    f"{profile.name}-chaos-{routing}-i{intensity:g}"
                    + ("" if failover else "-nofailover")
                ),
            )
        )
        cells.append(
            {"routing": routing, "intensity": intensity, "failover": failover}
        )

    for routing in CHAOS_ROUTINGS:
        for intensity in CHAOS_INTENSITIES:
            add(routing, intensity, None)
    # No-failover ablation at top intensity: the router keeps addressing
    # dead nodes, so the cost of losing health-aware dispatch is measured
    # against the row directly above it.
    worst = max(CHAOS_INTENSITIES)
    for routing in CHAOS_ROUTINGS:
        add(routing, worst, False)

    outcomes = run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir)
    rows = []
    for cell, outcome in zip(cells, outcomes):
        row = dict(cell)
        if outcome.ok:
            row["metrics"] = outcome.metrics.as_dict()
        else:
            row["error"] = outcome.error
        rows.append(row)
    return {
        "profile": profile.name,
        "app": app_name,
        "num_nodes": n_nodes,
        "cores_per_node": cores_per_node,
        "seed": run_seed,
        "rows": rows,
    }


def render_chaos(result: dict) -> str:
    """Comparison table: routing × intensity, failover vs ablation rows."""
    headers = [
        "routing",
        "intensity",
        "failover",
        "power(W)",
        "energy(J)",
        "p99(ms)",
        "p99/SLA",
        "sla",
        "timeout",
        "crashes",
        "redisp",
        "dropped",
        "avail",
    ]
    table_rows = []
    for row in result["rows"]:
        if "error" in row:
            table_rows.append(
                [row["routing"], fmt_cell(row["intensity"], "{:.1f}"),
                 "yes" if row["failover"] else "NO"]
                + ["ERROR"] * (len(headers) - 3)
            )
            continue
        m = row["metrics"]
        fleet = m["fleet"]
        sla = fleet["sla"]
        table_rows.append(
            [
                row["routing"],
                fmt_cell(row["intensity"], "{:.1f}"),
                "yes" if row["failover"] else "NO",
                fmt_cell(fleet["avg_power_watts"], "{:.1f}"),
                fmt_cell(fleet["energy_joules"], "{:.0f}"),
                fmt_cell(fleet["tail_latency"] * 1e3),
                fmt_cell(fleet["tail_latency"] / sla if sla else float("nan")),
                "met" if fleet["sla_met"] else "MISS",
                fmt_cell(fleet["timeout_rate"], "{:.2%}"),
                m["crashes"],
                m["redispatches"],
                m["dropped_requests"],
                fmt_cell(m["fleet_availability"], "{:.3f}"),
            ]
        )
    lines = [
        (
            f"chaos: {result['num_nodes']} nodes x "
            f"{result['cores_per_node']} cores, app={result['app']}, "
            f"policy={CHAOS_POLICY}, profile={result['profile']}, "
            f"seed={result['seed']} "
            "(failover=NO rows: health-aware dispatch disabled)"
        ),
        format_table(headers, table_rows, "{:.2f}"),
    ]
    return "\n".join(lines)


def check_chaos(result: dict) -> List[str]:
    """The chaos claims that ``result`` fails.

    Every cell runs.  The no-fault rows are clean: no crash, nothing
    redispatched, full availability, SLA met.  At intensity 1 faults flow
    (crashes, redispatches, availability below 1), and the acceptance
    contrast holds: round-robin with health-aware failover meets the SLA
    on the surviving nodes, while the no-failover ablation, which keeps
    feeding dead nodes, misses it with a p99 more than 5x larger.
    """
    rows = {
        (r["routing"], r["intensity"], r["failover"]): r["metrics"]
        for r in result["rows"]
        if "metrics" in r
    }
    errored = len(result["rows"]) - len(rows)
    if errored:
        return [f"every cell runs ({errored} errored)"]
    claims = []
    for routing in CHAOS_ROUTINGS:
        base = rows[(routing, 0.0, True)]
        claims += [
            (f"{routing} without faults: {base['crashes']} crashes == 0", base["crashes"] == 0),
            (f"{routing} without faults: {base['redispatches']} redispatches == 0",
             base["redispatches"] == 0),
            (f"{routing} without faults: availability {base['fleet_availability']:.4f} == 1.0",
             base["fleet_availability"] == 1.0),
            (f"{routing} without faults meets the SLA", base["fleet"]["sla_met"]),
        ]
    chaotic = rows[("round-robin", 1.0, True)]
    ablation = rows[("round-robin", 1.0, False)]
    tail, ablation_tail = chaotic["fleet"]["tail_latency"], ablation["fleet"]["tail_latency"]
    claims += [
        (f"round-robin at intensity 1: {chaotic['crashes']} crashes >= 1", chaotic["crashes"] >= 1),
        (f"round-robin at intensity 1: {chaotic['redispatches']} redispatches >= 1",
         chaotic["redispatches"] >= 1),
        (f"round-robin at intensity 1: availability {chaotic['fleet_availability']:.4f} < 1.0",
         chaotic["fleet_availability"] < 1.0),
        ("round-robin with failover meets the SLA at intensity 1", chaotic["fleet"]["sla_met"]),
        ("round-robin without failover misses the SLA at intensity 1",
         not ablation["fleet"]["sla_met"]),
        (f"no-failover p99 {ablation_tail * 1e3:.2f} ms > 5 x failover p99 {tail * 1e3:.2f} ms",
         ablation_tail > 5 * tail),
    ]
    return [claim for claim, holds in claims if not holds]
