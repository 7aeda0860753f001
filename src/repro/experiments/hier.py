"""Hierarchical fleet control: learned vs. heuristic budget coordinator.

The fleet experiment established the heuristic
:class:`~repro.cluster.powercap.PowerCapCoordinator` under the power-aware
router; this experiment asks the HiDVFS question on top of it: does a
*learned* upper-level agent apportion the same watt budget better than
the fixed heuristic?  For each node policy the grid runs three
coordinators over the identical shared trace and seed:

* ``learned``   — :class:`~repro.hier.LearnedBudgetCoordinator`: the fleet
  agent emits per-node budget shares every coordination window, enforced
  through the unchanged DVFS-ceiling path,
* ``heuristic`` — the stock coordinator (boosted demand + headroom
  redistribution toward the cap),
* ``uncapped``  — no coordinator at all (the energy/latency frontier's
  free end).

The headline comparison is energy at SLA attainment: the heuristic
redistributes every spare watt up to the cap, so its fleet draw rides the
budget; the learned apportioner spends only what its actions ask for, and
at moderate load that frugality buys lower energy at the same (met) SLA.

Cells are :class:`~repro.cluster.sim.FleetSpec` objects — a
:class:`~repro.cluster.sim.ClusterConfig` carrying the hier config, plus
the shared trace — through :func:`repro.parallel.run_grid`; the hier
config rides the spec's cache payload, so learned cells never collide
with heuristic cells.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.reporting import format_table
from ..cluster.sim import ClusterConfig, FleetSpec, fleet_power_budget, fleet_trace
from ..hier import HierConfig
from ..parallel.grid import run_grid
from .fleet import fleet_dimensions, fmt_cell
from .scenarios import active_profile, evaluation_trace

__all__ = [
    "run_hier",
    "render_hier",
    "HIER_COORDINATORS",
    "HIER_EXPERIMENT_POLICIES",
]

#: Display order of the coordinator column.
HIER_COORDINATORS = ("learned", "heuristic", "uncapped")
#: Node power policies compared under each coordinator.
HIER_EXPERIMENT_POLICIES = ("baseline", "controller")

#: Mean fleet utilisation.  Lower than the fleet experiment's 0.45 so both
#: capped coordinators can meet the SLA — the comparison is then energy at
#: equal attainment, not two different SLA misses.
HIER_LOAD = 0.35
#: Budget position within the fleet's controllable power range.
HIER_CAP_FRACTION = 0.7


#: The experiment's fleet-agent configuration (online-learning DDPG).  The
#: actor starts at a 0.65 share of each node's controllable envelope — one
#: DVFS ceiling below where the budget-riding heuristic lands — with
#: moderate exploration noise so the learner can probe lower shares during
#: trace valleys without destabilising the tail.
HIER_AGENT = HierConfig(
    algo="ddpg",
    train=True,
    init_share=0.65,
    noise_sigma=0.2,
    noise_decay=0.98,
    noise_min_sigma=0.02,
)


def run_hier(
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=None,
    trace_dir: Optional[str] = None,
    num_nodes: Optional[int] = None,
    app_name: str = "xapian",
    seed: Optional[int] = None,
) -> dict:
    """Run the coordinator × node-policy grid.

    Returns a plain-data dict (checkpoint/cache friendly):
    ``{"profile", "app", "num_nodes", "cores_per_node", "budget_watts",
    "seed", "rows": [{coordinator, policy, cap_watts, metrics | error}]}``.
    """
    profile = active_profile(full)
    default_nodes, cores_per_node = fleet_dimensions(profile)
    n_nodes = num_nodes if num_nodes is not None else default_nodes
    run_seed = profile.seed if seed is None else seed
    base = evaluation_trace(profile)
    trace = fleet_trace(base, app_name, n_nodes, cores_per_node, load=HIER_LOAD)
    budget = fleet_power_budget(
        n_nodes, cores_per_node, fraction=HIER_CAP_FRACTION
    )

    specs: List[FleetSpec] = []
    cells = []
    for policy in HIER_EXPERIMENT_POLICIES:
        for coordinator in HIER_COORDINATORS:
            capped = coordinator != "uncapped"
            config = ClusterConfig(
                app=app_name,
                num_nodes=n_nodes,
                cores_per_node=cores_per_node,
                policy=policy,
                routing="power-aware",
                power_cap_watts=budget if capped else None,
                seed=run_seed,
                hier=HIER_AGENT if coordinator == "learned" else None,
            )
            specs.append(
                FleetSpec(config, trace, label=f"{profile.name}-hier-{coordinator}")
            )
            cells.append((policy, coordinator))

    outcomes = run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir)
    rows = []
    for (policy, coordinator), spec, outcome in zip(cells, specs, outcomes):
        row = {
            "coordinator": coordinator,
            "policy": policy,
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


def render_hier(result: dict) -> str:
    """Policy × coordinator table plus the learned-vs-heuristic verdict."""
    headers = [
        "policy",
        "coordinator",
        "cap(W)",
        "power(W)",
        "energy(J)",
        "p99(ms)",
        "p99/SLA",
        "sla_met",
        "timeout",
        "imbalance",
        "decisions",
        "cap_ok",
    ]
    table_rows = []
    by_cell = {}
    for row in result["rows"]:
        if "error" in row:
            table_rows.append(
                [row["policy"], row["coordinator"], fmt_cell(row["cap_watts"], "{:.1f}")]
                + ["ERROR"] * (len(headers) - 3)
            )
            continue
        m = row["metrics"]
        fleet = m["fleet"]
        sla = fleet["sla"]
        by_cell[(row["policy"], row["coordinator"])] = (
            fleet["energy_joules"],
            bool(fleet["sla_met"]),
        )
        table_rows.append(
            [
                row["policy"],
                row["coordinator"],
                fmt_cell(row["cap_watts"], "{:.1f}"),
                fmt_cell(fleet["avg_power_watts"], "{:.1f}"),
                fmt_cell(fleet["energy_joules"], "{:.0f}"),
                fmt_cell(fleet["tail_latency"] * 1e3),
                fmt_cell(fleet["tail_latency"] / sla if sla else float("nan")),
                "yes" if fleet["sla_met"] else "NO",
                fmt_cell(fleet["timeout_rate"], "{:.2%}"),
                fmt_cell(m["routed_imbalance"]),
                str(m.get("hier_decisions", 0)),
                "yes" if m["cap_ok"] else "NO",
            ]
        )
    lines = [
        (
            f"hier: {result['num_nodes']} nodes x "
            f"{result['cores_per_node']} cores, app={result['app']}, "
            f"profile={result['profile']}, seed={result['seed']}, "
            f"budget={result['budget_watts']:.1f} W (capped rows)"
        ),
        format_table(headers, table_rows, "{:.2f}"),
    ]
    # The headline: cells where the learned coordinator spends no more
    # energy than the heuristic at equal-or-better SLA attainment.
    wins = []
    for policy in dict.fromkeys(r["policy"] for r in result["rows"]):
        learned = by_cell.get((policy, "learned"))
        heur = by_cell.get((policy, "heuristic"))
        if learned is None or heur is None:
            continue
        if learned[0] <= heur[0] and learned[1] >= heur[1]:
            saved = (1.0 - learned[0] / heur[0]) if heur[0] else 0.0
            wins.append(f"{policy} ({saved:.1%} energy saved)")
    if wins:
        lines.append(
            "learned <= heuristic energy at equal-or-better SLA: "
            + ", ".join(wins)
        )
    else:
        lines.append(
            "learned coordinator did not beat the heuristic on any cell"
        )
    return "\n".join(lines)
