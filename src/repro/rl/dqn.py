"""DQN and Double-DQN over a discretised action set.

The paper benchmarks these (Table 2, inference time) and motivates DDPG
over them for the continuous action space.  They are fully trainable here
and also power the discrete-action ablation of DeepPower's top layer
(``repro.baselines.deeppower_dqn``): the 2-d continuous action box is
covered by a uniform grid, each grid point being one discrete action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn.losses import huber_loss
from ..nn.network import MLP
from ..nn.optim import Adam, clip_grad_norm
from .replay import ReplayBuffer

__all__ = ["DqnConfig", "DqnAgent", "action_grid"]


def action_grid(action_dim: int, points_per_dim: int) -> np.ndarray:
    """Uniform grid over [0, 1]^action_dim, shape (points^dim, action_dim).

    Maps a discrete action index to a continuous parameter vector so a DQN
    top layer can drive the same thread controller as DDPG.
    """
    if points_per_dim < 2:
        raise ValueError("need at least 2 points per dimension")
    axes = [np.linspace(0.0, 1.0, points_per_dim)] * action_dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class DqnConfig:
    """Hyper-parameters for :class:`DqnAgent`."""

    state_dim: int = 8
    num_actions: int = 25
    gamma: float = 0.99
    lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup: int = 64
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.99
    target_sync_interval: int = 100
    double: bool = False
    hidden: Sequence[int] = field(default_factory=lambda: (32, 24, 16))
    grad_clip: float = 10.0


class DqnAgent:
    """(Double) DQN with epsilon-greedy exploration and hard target sync."""

    def __init__(self, config: DqnConfig, rng: np.random.Generator) -> None:
        self.cfg = config
        self.rng = rng
        dims = [config.state_dim, *config.hidden, config.num_actions]
        self.q = MLP(dims, rng)
        self.q_target = MLP(dims, rng)
        self.q_target.copy_from(self.q)
        self.opt = Adam(self.q.arena, lr=config.lr)
        # Action index stored as a 1-d float in the shared replay layout.
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, 1)
        self.epsilon = config.epsilon_start
        self.steps = 0
        self.updates = 0

    # ------------------------------------------------------------------ acting

    def act(self, state: np.ndarray, explore: bool = True) -> int:
        """Greedy (or epsilon-greedy) action index."""
        self.steps += 1
        if explore and (
            self.replay.total_pushed < self.cfg.warmup or self.rng.random() < self.epsilon
        ):
            return int(self.rng.integers(self.cfg.num_actions))
        qvals = self.q.forward(np.asarray(state, dtype=float).reshape(1, -1))[0]
        return int(np.argmax(qvals))

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        self.replay.push(state, np.array([float(action)]), reward, next_state, done)
        if self.epsilon > self.cfg.epsilon_end:
            self.epsilon = max(self.cfg.epsilon_end, self.epsilon * self.cfg.epsilon_decay)

    # ---------------------------------------------------------------- training

    @property
    def ready(self) -> bool:
        return len(self.replay) >= max(self.cfg.batch_size, self.cfg.warmup)

    def update(self) -> Optional[Dict[str, float]]:
        """One TD step; hard-syncs the target every ``target_sync_interval``."""
        if not self.ready:
            return None
        cfg = self.cfg
        s, a, r, s2, done = self.replay.sample(cfg.batch_size, self.rng)
        a_idx = a[:, 0].astype(int)

        q_next_target = self.q_target.forward(s2)
        if cfg.double:
            # DDQN: argmax from the online net, value from the target net.
            a_star = np.argmax(self.q.forward(s2), axis=1)
            next_v = q_next_target[np.arange(cfg.batch_size), a_star]
        else:
            next_v = q_next_target.max(axis=1)
        y = r + cfg.gamma * (1.0 - done.astype(float)) * next_v

        q_all = self.q.forward(s)
        q_sa = q_all[np.arange(cfg.batch_size), a_idx]
        loss, dloss = huber_loss(q_sa.reshape(-1, 1), y.reshape(-1, 1))
        grad_full = np.zeros_like(q_all)
        grad_full[np.arange(cfg.batch_size), a_idx] = dloss[:, 0]
        self.q.zero_grad()
        self.q.backward(grad_full, input_grad=False)
        clip_grad_norm(self.q.arena, cfg.grad_clip)
        self.opt.step()

        self.updates += 1
        if self.updates % cfg.target_sync_interval == 0:
            self.q_target.copy_from(self.q)
        return {"loss": loss, "mean_q": float(q_sa.mean()), "epsilon": self.epsilon}

