"""DeepPower's DRL agent: paper-architecture actor/critic on DDPG.

§4.6: the actor is a fully-connected network with three hidden layers of
32, 24 and 16 units (ReLU), where the input state passes a first shared
layer and then two separate branches — one per thread-controller parameter
— each ending in a sigmoid.  The critic concatenates the action after the
first hidden layer.  Everything is small enough (~2-3k parameters) to train
on CPU between DRL steps.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.network import Module, TwoHeadMLP
from ..nn.serialization import load_modules, save_modules
from ..rl.ddpg import DdpgAgent, DdpgConfig
from .state_observer import STATE_DIM

__all__ = [
    "ACTION_DIM",
    "ACTOR_TRUNK",
    "ACTOR_HEAD",
    "build_actor",
    "default_ddpg_config",
    "DeepPowerAgent",
]

#: (BaseFreq, ScalingCoef)
ACTION_DIM = 2
#: Shared trunk width (first hidden layer of the paper's 32-24-16 stack).
ACTOR_TRUNK = (32,)
#: Branch widths (remaining hidden layers, one branch per action).
ACTOR_HEAD = (24, 16)


def build_actor(rng: np.random.Generator) -> TwoHeadMLP:
    """The paper's actor: shared 8->32 layer, two 24->16->sigmoid branches.

    The final linear layer of each branch is initialised small (standard
    DDPG practice, Lillicrap et al. use U(-3e-3, 3e-3)) so the sigmoid
    starts near 0.5 instead of saturated at an action-space corner, where
    its gradient would vanish.
    """
    actor = TwoHeadMLP(
        STATE_DIM, list(ACTOR_TRUNK), list(ACTOR_HEAD), rng, output_activation="sigmoid"
    )
    for head in (actor.head_a, actor.head_b):
        last_linear = head.layers[-2]  # [..., Linear, Sigmoid]
        last_linear.weight.data *= 0.01
        last_linear.bias.data[...] = 0.0
    return actor


def default_ddpg_config(**overrides) -> DdpgConfig:
    """Paper-default DDPG hyper-parameters for DeepPower."""
    cfg = DdpgConfig(
        state_dim=STATE_DIM,
        action_dim=ACTION_DIM,
        gamma=0.9,
        tau=0.01,
        actor_lr=1e-3,
        critic_lr=2e-3,
        batch_size=64,
        buffer_capacity=50_000,
        warmup=20,
        noise_mu=0.3,
        noise_sigma=1.0,
        noise_decay=0.995,
        noise_min_sigma=0.05,
    )
    for key, val in overrides.items():
        if not hasattr(cfg, key):
            raise TypeError(f"unknown DdpgConfig field {key!r}")
        setattr(cfg, key, val)
    return cfg


class DeepPowerAgent(DdpgAgent):
    """DDPG specialised to DeepPower's state/action spaces.

    Adds the save/load workflow the paper describes ("save the neural
    network parameters after training ... run the framework with a short
    workload" §5.2).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        config: Optional[DdpgConfig] = None,
    ) -> None:
        cfg = config or default_ddpg_config()
        if cfg.state_dim != STATE_DIM or cfg.action_dim != ACTION_DIM:
            raise ValueError(
                f"DeepPower requires state_dim={STATE_DIM}, action_dim={ACTION_DIM}"
            )
        super().__init__(lambda: build_actor(rng), cfg, rng)

    # ------------------------------------------------------------ persistence

    def _networks(self) -> Dict[str, Module]:
        return dict(
            actor=self.actor, actor_target=self.actor_target,
            critic=self.critic, critic_target=self.critic_target,
        )

    def save(self, path: str) -> None:
        """Persist actor + critic (+ targets) parameters to ``path``."""
        save_modules(self._networks(), path)

    def load(self, path: str) -> None:
        """Restore parameters saved by :meth:`save`."""
        load_modules(self._networks(), path)

    def network_arrays(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Copies of the four networks' parameters, by network name."""
        return {name: net.state_dict() for name, net in self._networks().items()}

    def load_network_arrays(self, arrays: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore parameters taken by :meth:`network_arrays`."""
        for name, net in self._networks().items():
            net.load_state_dict(arrays[name])

    def parameter_count(self) -> int:
        """Actor parameter count (paper §5.5 reports 2096)."""
        return self.actor.num_parameters()
