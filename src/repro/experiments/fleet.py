"""Fleet experiment: routing policy × power policy at cluster scale.

The single-node experiments answer "which power policy?"; at fleet scale
the question becomes two-dimensional: how requests are *routed* interacts
with how each node manages *power* (a power-aware router shifts load off
throttled nodes; a JSQ router fights a per-node booster by equalising
queues it is trying to build).  This experiment runs the full grid —
every routing policy × every baseline power policy, uncapped — plus a
power-capped column under the power-aware router, where the
:class:`~repro.cluster.powercap.PowerCapCoordinator` holds the fleet to a
deterministic global budget.

Cells are :class:`~repro.cluster.sim.FleetSpec` objects (one
:class:`~repro.cluster.sim.ClusterConfig` each plus the shared trace)
executed through :func:`repro.parallel.run_grid` — same fan-out, result
cache and per-cell ``--trace-dir`` observability traces as the
single-node grids (fleet traces carry ``node``-tagged events for
``deeppower trace summarize --group-by node``).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..analysis.reporting import format_table
from ..cluster.sim import ClusterConfig, FleetSpec, fleet_power_budget, fleet_trace
from ..parallel.grid import run_grid
from .scenarios import active_profile, evaluation_trace

__all__ = ["run_fleet", "render_fleet", "FLEET_ROUTINGS", "FLEET_POLICIES"]

#: Display order (dict insertion order is the table order).
FLEET_ROUTINGS = ("round-robin", "jsq", "power-aware")
FLEET_POLICIES = ("baseline", "retail", "gemini")

#: Mean fleet utilisation the shared diurnal trace is scaled to.  Chosen so
#: the uncapped fleet meets the SLA with headroom while the capped column
#: shows a measurable (not degenerate) tail cost of losing turbo.
FLEET_LOAD = 0.45
#: Budget position within the fleet's controllable power range.
CAP_FRACTION = 0.7


def fleet_dimensions(profile) -> tuple:
    """(num_nodes, cores_per_node) for a profile (8 nodes at full scale)."""
    if profile.is_full:
        return 8, 4
    return 4, 2


def run_fleet(
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=None,
    trace_dir: Optional[str] = None,
    num_nodes: Optional[int] = None,
    app_name: str = "xapian",
    seed: Optional[int] = None,
) -> dict:
    """Run the routing × power-policy fleet grid.

    Returns a plain-data dict (checkpoint/cache friendly):
    ``{"profile", "app", "num_nodes", "cores_per_node", "budget_watts",
    "seed", "rows": [{routing, policy, cap_watts, metrics | error}, ...]}``.
    """
    profile = active_profile(full)
    default_nodes, cores_per_node = fleet_dimensions(profile)
    n_nodes = num_nodes if num_nodes is not None else default_nodes
    run_seed = profile.seed if seed is None else seed
    base = evaluation_trace(profile)
    trace = fleet_trace(base, app_name, n_nodes, cores_per_node, load=FLEET_LOAD)
    budget = fleet_power_budget(n_nodes, cores_per_node, fraction=CAP_FRACTION)

    def cell(policy: str, routing: str, cap, tag: str) -> FleetSpec:
        config = ClusterConfig(
            app=app_name,
            num_nodes=n_nodes,
            cores_per_node=cores_per_node,
            policy=policy,
            routing=routing,
            power_cap_watts=cap,
            seed=run_seed,
        )
        return FleetSpec(config, trace, label=f"{profile.name}-fleet-{tag}")

    specs: List[FleetSpec] = [
        cell(policy, routing, None, routing)
        for routing in FLEET_ROUTINGS
        for policy in FLEET_POLICIES
    ]
    # The capped column: the power-aware router is the one designed to
    # cooperate with the coordinator (throttled nodes shed traffic).
    specs += [
        cell(policy, "power-aware", budget, "capped") for policy in FLEET_POLICIES
    ]

    outcomes = run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir)
    rows = []
    for spec, outcome in zip(specs, outcomes):
        row = {
            "routing": spec.config.routing,
            "policy": spec.policy,
            "cap_watts": spec.config.power_cap_watts,
        }
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
        "budget_watts": budget,
        "seed": run_seed,
        "rows": rows,
    }


def fmt_cell(value, spec: str = "{:.2f}") -> str:
    """One table cell of a fleet grid: ``-`` for None, ``n/a`` for NaN/inf."""
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        return "n/a"
    return spec.format(value)


def render_fleet(result: dict) -> str:
    """Comparison table: routing × policy with power/QoS/cap columns."""
    headers = [
        "routing",
        "policy",
        "cap(W)",
        "power(W)",
        "peak(W)",
        "energy(J)",
        "p99(ms)",
        "p99/SLA",
        "timeout",
        "imbalance",
        "cap_ok",
    ]
    table_rows = []
    for row in result["rows"]:
        if "error" in row:
            table_rows.append(
                [row["routing"], row["policy"], fmt_cell(row["cap_watts"], "{:.1f}")]
                + ["ERROR"] * (len(headers) - 3)
            )
            continue
        m = row["metrics"]
        fleet = m["fleet"]
        sla = fleet["sla"]
        table_rows.append(
            [
                row["routing"],
                row["policy"],
                fmt_cell(row["cap_watts"], "{:.1f}"),
                fmt_cell(fleet["avg_power_watts"], "{:.1f}"),
                fmt_cell(m["max_window_power"], "{:.1f}"),
                fmt_cell(fleet["energy_joules"], "{:.0f}"),
                fmt_cell(fleet["tail_latency"] * 1e3),
                fmt_cell(fleet["tail_latency"] / sla if sla else float("nan")),
                fmt_cell(fleet["timeout_rate"], "{:.2%}"),
                fmt_cell(m["routed_imbalance"]),
                "yes" if m["cap_ok"] else "NO",
            ]
        )
    lines = [
        (
            f"fleet: {result['num_nodes']} nodes x "
            f"{result['cores_per_node']} cores, app={result['app']}, "
            f"profile={result['profile']}, seed={result['seed']}, "
            f"budget={result['budget_watts']:.1f} W (capped rows)"
        ),
        format_table(headers, table_rows, "{:.2f}"),
    ]
    return "\n".join(lines)
