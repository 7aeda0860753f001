"""Hierarchical fleet RL: a learned budget agent above the per-node agents.

The :class:`~repro.cluster.powercap.PowerCapCoordinator` apportions the
fleet's watt budget with a fixed heuristic (boosted demand + headroom
redistribution).  This package replaces that *apportioning decision* with
a fleet-level DRL agent — the two-level scheme of HiDVFS and Liu et al.'s
hierarchical cloud framework (PAPERS.md) — while keeping the enforcement
path untouched: targets still become per-node DVFS ceilings through
``_ceiling_for`` + :meth:`~repro.cpu.topology.Cpu.set_ceiling`, so the
cap stays guaranteed by construction no matter what the agent emits.

* :class:`HierConfig` — frozen, picklable description of the layer; a
  ``ClusterConfig.hier`` of ``None`` (the default) keeps fleet runs
  bitwise identical to runs without this package,
* :class:`FleetObserver` — the fleet observation: per-node windowed load,
  p99/SLA slack, RAPL-style watts, routed share and the node health
  masks (:mod:`repro.hier.obs`),
* :class:`FleetAgent` / :func:`build_fleet_agent` — the upper-level agent
  on the existing DDPG/TD3/SAC stack, acting in ``[0, 1]^N`` per-node
  budget shares (:mod:`repro.hier.agent`),
* :class:`LearnedBudgetCoordinator` — the drop-in coordinator subclass
  that queries the agent every window, emits ``coordinator-decision``
  trace events and re-apportions on membership changes
  (:mod:`repro.hier.coordinator`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .agent import FleetAgent, build_fleet_agent, fleet_state_dim
    from .config import HIER_ALGOS, HierConfig
    from .coordinator import LearnedBudgetCoordinator
    from .obs import FEATURES_PER_NODE, FleetObserver

__all__ = [
    "HierConfig",
    "HIER_ALGOS",
    "FleetObserver",
    "FEATURES_PER_NODE",
    "FleetAgent",
    "build_fleet_agent",
    "fleet_state_dim",
    "LearnedBudgetCoordinator",
]

__getattr__, __dir__ = lazy_exports(__name__)
