"""Deep reinforcement learning algorithms (numpy substrate).

DDPG is the algorithm DeepPower uses (continuous 2-d action); DQN, Double
DQN and SAC exist because the paper measures their inference cost when
motivating the hierarchical design (Table 2) and they power the discrete/
stochastic top-layer ablations.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .critics import StateActionCritic, TwinCritic
    from .ddpg import DdpgAgent, DdpgConfig
    from .dqn import DqnAgent, DqnConfig, action_grid
    from .noise import GaussianNoise
    from .replay import ReplayBuffer, Transition
    from .sac import GaussianPolicy, SacAgent, SacConfig
    from .td3 import Td3Agent, Td3Config

__all__ = [
    "ReplayBuffer",
    "Transition",
    "GaussianNoise",
    "StateActionCritic",
    "TwinCritic",
    "DdpgAgent",
    "DdpgConfig",
    "DqnAgent",
    "DqnConfig",
    "action_grid",
    "SacAgent",
    "Td3Agent",
    "Td3Config",
    "SacConfig",
    "GaussianPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__)
