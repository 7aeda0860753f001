"""Configuration of the hierarchical fleet-RL layer.

:class:`HierConfig` is frozen and picklable so it can ride
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
from typing import Optional, Tuple

__all__ = ["HierConfig", "HIER_ALGOS"]

#: Upper-level learner choices (the existing rl/ stack).
HIER_ALGOS = ("ddpg", "td3", "sac")


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
    energy_weight, sla_weight:
        Reward = ``-(energy_weight * fleet_power/budget
        + sla_weight * window_timeout_fraction)`` — the fleet-level
        analogue of the paper's power/QoS trade-off reward.
    hidden:
        Actor/critic hidden widths.  Exactly three entries (the SAC
        critic stack requires three).
    warmup, batch_size, buffer_capacity, noise_sigma, noise_decay,
    noise_min_sigma:
        Learner hyper-parameters, sized for window-scale (seconds, not
        milliseconds) decision cadence: small buffer, short warmup.
    shared_replay:
        Pool per-node DeepPower transitions through one
        :class:`~repro.hier.replay.SharedReplay` (``policy="deeppower"``
        fleets only; ignored otherwise).
    fed_avg_every:
        Coordination windows between federated parameter averages across
        the node agents (0 disables; requires ``shared_replay``).
    init_share:
        The untrained actor's operating point in [0, 1] (the sigmoid
        head's initial bias).  Defaults to 0.65 — roughly one DVFS level
        below the heuristic's operating point: a cold fleet agent starts
        *safe enough* to meet the SLA while exploration around the start
        point actually probes cheaper ceilings instead of saturating at
        the top of the table.
    """

    algo: str = "ddpg"
    train: bool = True
    agent_path: Optional[str] = None
    energy_weight: float = 1.0
    sla_weight: float = 2.0
    hidden: Tuple[int, ...] = (64, 32, 16)
    warmup: int = 8
    batch_size: int = 32
    buffer_capacity: int = 4096
    noise_sigma: float = 0.2
    noise_decay: float = 0.98
    noise_min_sigma: float = 0.02
    shared_replay: bool = False
    fed_avg_every: int = 0
    init_share: float = 0.65

    def __post_init__(self) -> None:
        if self.algo not in HIER_ALGOS:
            raise ValueError(
                f"unknown hier algo {self.algo!r}; available: {HIER_ALGOS}"
            )
        if len(self.hidden) != 3 or any(h < 1 for h in self.hidden):
            raise ValueError(
                f"hidden must be three positive widths, got {self.hidden!r}"
            )
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(
                f"buffer_capacity ({self.buffer_capacity}) must hold at "
                f"least one batch ({self.batch_size})"
            )
        if self.energy_weight < 0 or self.sla_weight < 0:
            raise ValueError("reward weights must be >= 0")
        if self.fed_avg_every < 0:
            raise ValueError(
                f"fed_avg_every must be >= 0, got {self.fed_avg_every}"
            )
        if self.fed_avg_every > 0 and not self.shared_replay:
            raise ValueError("fed_avg_every requires shared_replay")
        if not 0.0 < self.init_share < 1.0:
            raise ValueError(
                f"init_share must be in (0, 1), got {self.init_share}"
            )

    def cache_payload(self) -> dict:
        """Content for grid-cell cache keys (covers every learning-relevant
        field; ``agent_path`` enters as a content digest, not a path)."""
        from ..parallel.cache import file_digest

        return {
            "algo": self.algo,
            "train": self.train,
            "agent_digest": (
                file_digest(self.agent_path) if self.agent_path else None
            ),
            "energy_weight": self.energy_weight,
            "sla_weight": self.sla_weight,
            "hidden": list(self.hidden),
            "warmup": self.warmup,
            "batch_size": self.batch_size,
            "buffer_capacity": self.buffer_capacity,
            "noise_sigma": self.noise_sigma,
            "noise_decay": self.noise_decay,
            "noise_min_sigma": self.noise_min_sigma,
            "shared_replay": self.shared_replay,
            "fed_avg_every": self.fed_avg_every,
            "init_share": self.init_share,
        }
