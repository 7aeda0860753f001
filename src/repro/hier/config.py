"""Configuration of the hierarchical fleet-RL layer.

:class:`HierConfig` holds the three settings a caller chooses: the
upper-level ``algo``, whether it learns online (``train``) and an
optional ``agent_path`` to preload.  Every other value of the layer is a
module constant below, read by :func:`~repro.hier.agent.build_fleet_agent`
and the coordinator reward.

The config is frozen and picklable so it can ride
:class:`~repro.cluster.sim.ClusterConfig` / ``FleetSpec`` into pool
workers, and hashable content (via :meth:`HierConfig.cache_payload`) so
grid cells with different hier settings never collide in the
content-addressed result cache.  A ``hier`` of ``None`` on the cluster
config is the off switch: no agent is built, no extra RNG stream is
drawn, no extra events are scheduled — the run stays bitwise identical
to one from before this package existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HierConfig", "HIER_ALGOS"]

#: Upper-level learner choices (the existing rl/ stack).
HIER_ALGOS = ("ddpg", "td3", "sac")

#: Reward = ``-(ENERGY_WEIGHT * fleet_power/budget + SLA_WEIGHT *
#: window_timeout_fraction)`` — the fleet-level analogue of the paper's
#: power/QoS trade-off reward.
ENERGY_WEIGHT = 1.0
SLA_WEIGHT = 2.0
#: Actor/critic hidden widths.  Exactly three entries (the SAC critic
#: stack requires three).
HIDDEN = (64, 32, 16)
#: Learner hyper-parameters, sized for window-scale (seconds, not
#: milliseconds) decision cadence: small buffer, short warmup.
WARMUP = 8
BATCH_SIZE = 32
BUFFER_CAPACITY = 4096
NOISE_SIGMA = 0.2
NOISE_DECAY = 0.98
NOISE_MIN_SIGMA = 0.02
#: The untrained actor's operating point in (0, 1) (the sigmoid head's
#: initial bias): roughly one DVFS level below the heuristic's operating
#: point, so a cold fleet agent starts *safe enough* to meet the SLA while
#: exploration around the start point actually probes cheaper ceilings
#: instead of saturating at the top of the table.
INIT_SHARE = 0.65


@dataclass(frozen=True)
class HierConfig:
    """Static description of the fleet-level agent layer.

    Parameters
    ----------
    algo:
        Upper-level learner: ``"ddpg"`` (default), ``"td3"`` or ``"sac"``.
        Its action apportions the watt budget, one share per node.
    train:
        Learn online during the run (the DeepPower convention: explore,
        observe, update every window).  ``False`` runs the actor frozen —
        the eval mode, and what the decision-overhead benchmark measures.
    agent_path:
        Optional ``.npz`` of fleet-agent network parameters to preload
        (saved by :meth:`~repro.hier.agent.FleetAgent.save`).
    """

    algo: str = "ddpg"
    train: bool = True
    agent_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algo not in HIER_ALGOS:
            raise ValueError(
                f"unknown hier algo {self.algo!r}; available: {HIER_ALGOS}"
            )

    def cache_payload(self) -> dict:
        """Content for grid-cell cache keys (covers every learning-relevant
        value; ``agent_path`` enters as a content digest, not a path).

        The constants and the two node-replay keys (always off) stay in
        the payload so results cached under earlier keys still hit."""
        from ..parallel.cache import file_digest

        return {
            "algo": self.algo,
            "train": self.train,
            "agent_digest": (
                file_digest(self.agent_path) if self.agent_path else None
            ),
            "energy_weight": ENERGY_WEIGHT,
            "sla_weight": SLA_WEIGHT,
            "hidden": list(HIDDEN),
            "warmup": WARMUP,
            "batch_size": BATCH_SIZE,
            "buffer_capacity": BUFFER_CAPACITY,
            "noise_sigma": NOISE_SIGMA,
            "noise_decay": NOISE_DECAY,
            "noise_min_sigma": NOISE_MIN_SIGMA,
            "shared_replay": False,
            "fed_avg_every": 0,
            "init_share": INIT_SHARE,
        }
