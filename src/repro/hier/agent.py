"""The fleet-level agent: DDPG/TD3/SAC over the fleet observation.

Reuses the existing :mod:`repro.rl` stack unchanged — the only new code
is the actor sizing (state and action dims scale with fleet size) and a
uniform save/load/state_dict surface over the three algorithms so the
coordinator, the CLI and the checkpoint tree never branch on ``algo``.

Action layout: ``a[i]`` in [0, 1] (sigmoid/tanh-squashed) is node *i*'s
share of its controllable power envelope (see
:meth:`~repro.hier.coordinator.LearnedBudgetCoordinator.apportion`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.network import MLP
from ..nn.serialization import load_modules, save_modules
from ..rl.ddpg import DdpgAgent, DdpgConfig
from .config import (
    BATCH_SIZE,
    BUFFER_CAPACITY,
    HIDDEN,
    INIT_SHARE,
    NOISE_DECAY,
    NOISE_MIN_SIGMA,
    NOISE_SIGMA,
    WARMUP,
    HierConfig,
)
from .obs import FEATURES_PER_NODE

__all__ = ["FleetAgent", "build_fleet_agent", "fleet_state_dim"]


def fleet_state_dim(num_nodes: int) -> int:
    """Flattened fleet-observation width for an ``num_nodes`` fleet."""
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    return num_nodes * FEATURES_PER_NODE


def _build_actor(
    state_dim: int, action_dim: int, rng: np.random.Generator
) -> MLP:
    """Sigmoid MLP actor small-initialised at the ``INIT_SHARE`` point.

    Same small-weight discipline as the node actor
    (:func:`repro.core.agent.build_actor`, Lillicrap et al.'s
    U(-3e-3, 3e-3)), but the head's bias is the logit of ``INIT_SHARE``
    rather than zero: the untrained policy emits near-``INIT_SHARE``
    budget shares — safe-by-default generous apportioning — instead of
    whatever the weight init happens to saturate to.
    """
    actor = MLP(
        [state_dim, *HIDDEN, action_dim], rng, output_activation="sigmoid"
    )
    last_linear = actor.layers[-2]  # [..., Linear, Sigmoid]
    last_linear.weight.data *= 0.01
    last_linear.bias.data[...] = float(np.log(INIT_SHARE / (1.0 - INIT_SHARE)))
    return actor


class FleetAgent:
    """Algorithm-agnostic wrapper around one upper-level learner.

    ``act`` / ``observe`` / ``update`` / ``ready`` delegate straight to the
    wrapped agent; ``save``/``load`` persist network parameters as an
    ``.npz`` (the eval artifact ``--agent`` loads), and
    ``state_dict``/``load_state_dict`` capture the *complete* learner
    (networks, optimisers, replay, noise, RNG) for bit-exact
    checkpoint/resume through :mod:`repro.checkpoint`.
    """

    def __init__(
        self, agent, config: HierConfig, num_nodes: int, seed: int
    ) -> None:
        self._agent = agent
        self.config = config
        self.num_nodes = int(num_nodes)
        self.seed = int(seed)
        self.state_dim = fleet_state_dim(num_nodes)
        self.action_dim = self.num_nodes

    # ------------------------------------------------------------------ acting

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (self.state_dim,):
            raise ValueError(
                f"fleet state must have shape ({self.state_dim},), "
                f"got {state.shape}"
            )
        # The node agents' warmup phase acts uniformly at random; at fleet
        # level one random apportioning window can choke a node's queue and
        # ruin the whole run's p99, so the warmup acts deterministically at
        # the safe-start operating point instead (exploration comes from
        # the policy noise once the replay pool holds warmup transitions).
        if explore and self._agent.replay.total_pushed < self._agent.cfg.warmup:
            explore = False
        return np.asarray(self._agent.act(state, explore=explore), dtype=float)

    def observe(self, state, action, reward, next_state, done=False) -> None:
        self._agent.observe(state, action, reward, next_state, done)

    @property
    def ready(self) -> bool:
        return bool(self._agent.ready)

    def update(self) -> Optional[Dict[str, float]]:
        return self._agent.update()

    @property
    def updates(self) -> int:
        return int(self._agent.updates)

    # ------------------------------------------------------------- persistence

    def _modules(self) -> Dict[str, object]:
        a = self._agent
        if self.config.algo == "sac":
            return {
                "policy": a.policy,
                "critic": a.critic,
                "critic_target": a.critic_target,
            }
        return {
            "actor": a.actor,
            "actor_target": a.actor_target,
            "critic": a.critic,
            "critic_target": a.critic_target,
        }

    def save(self, path: str) -> None:
        """Persist network parameters (the ``--agent`` eval artifact)."""
        save_modules(self._modules(), path)

    def load(self, path: str) -> None:
        """Restore parameters saved by :meth:`save` (shape-checked, so a
        snapshot from a different fleet size or algo fails loudly)."""
        load_modules(self._modules(), path)

    def state_dict(self) -> Dict:
        return {
            "kind": "fleet-agent",
            "num_nodes": self.num_nodes,
            "agent": self._agent.state_dict(),
        }

    def load_state_dict(self, state: Dict) -> None:
        if state.get("kind") != "fleet-agent":
            raise ValueError("snapshot is not a fleet-agent state_dict")
        if int(state["num_nodes"]) != self.num_nodes:
            raise ValueError(
                f"snapshot is for a {state['num_nodes']}-node fleet, "
                f"this agent manages {self.num_nodes}"
            )
        self._agent.load_state_dict(state["agent"])


def build_fleet_agent(
    num_nodes: int, config: HierConfig, seed: int
) -> FleetAgent:
    """Construct the upper-level learner for an ``num_nodes`` fleet.

    ``seed`` should already be hier-namespaced
    (``derive_seed(fleet_seed, "hier", "fleet-agent")``) so the fleet
    agent's exploration stream never aliases a node's streams.
    """
    state_dim = fleet_state_dim(num_nodes)
    action_dim = num_nodes
    rng = np.random.default_rng(seed)
    sizes = dict(
        state_dim=state_dim,
        action_dim=action_dim,
        batch_size=BATCH_SIZE,
        buffer_capacity=BUFFER_CAPACITY,
        warmup=WARMUP,
    )
    noise = dict(
        noise_mu=0.0,
        noise_sigma=NOISE_SIGMA,
        noise_decay=NOISE_DECAY,
        noise_min_sigma=NOISE_MIN_SIGMA,
    )
    if config.algo == "sac":  # HierConfig validated algo membership
        from ..rl.sac import SacAgent, SacConfig

        agent = SacAgent(SacConfig(**sizes, hidden=HIDDEN), rng)
    else:
        def actor() -> MLP:
            return _build_actor(state_dim, action_dim, rng)

        if config.algo == "ddpg":
            cfg = DdpgConfig(
                **sizes, **noise, gamma=0.9, tau=0.01, critic_hidden=HIDDEN
            )
            agent = DdpgAgent(actor, cfg, rng)
        else:
            from ..rl.td3 import Td3Agent, Td3Config

            cfg = Td3Config(**sizes, **noise, critic_hidden=HIDDEN)
            agent = Td3Agent(actor, cfg, rng)
    fleet_agent = FleetAgent(agent, config, num_nodes, seed)
    if config.agent_path is not None:
        fleet_agent.load(config.agent_path)
    return fleet_agent
