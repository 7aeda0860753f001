"""Twin Delayed DDPG (Fujimoto et al., 2018) — extension algorithm.

Not in the paper; included because DDPG's known overestimation pathology
is exactly what the reproduction hit while tuning (see DESIGN.md §6,
"corner collapse"), and TD3's three fixes — clipped double-Q, delayed
policy updates and target-policy smoothing — are the standard remedy.
The ``ablation-hierarchy`` machinery can swap this in for the top layer
to quantify how much the paper's plain DDPG leaves on the table.

API-compatible with :class:`repro.rl.ddpg.DdpgAgent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn.losses import mse_loss
from ..nn.network import Module
from ..nn.optim import Adam, clip_grad_norm
from ..sim.rng import generator_state, restore_generator
from .critics import TwinCritic
from .noise import GaussianNoise
from .replay import ReplayBuffer, batch_is_finite

__all__ = ["Td3Config", "Td3Agent"]


@dataclass
class Td3Config:
    """Hyper-parameters for :class:`Td3Agent`."""

    state_dim: int = 8
    action_dim: int = 2
    gamma: float = 0.95
    tau: float = 0.01
    actor_lr: float = 1e-3
    critic_lr: float = 2e-3
    batch_size: int = 64
    buffer_capacity: int = 50_000
    warmup: int = 32
    noise_mu: float = 0.1
    noise_sigma: float = 0.5
    noise_decay: float = 0.9995
    noise_min_sigma: float = 0.1
    #: Target-policy smoothing noise (stdev, clip).
    target_noise: float = 0.1
    target_noise_clip: float = 0.25
    #: Actor (and target) update every this many critic updates.
    policy_delay: int = 2
    grad_clip: float = 10.0
    critic_hidden: Sequence[int] = field(default_factory=lambda: (32, 24, 16))


class Td3Agent:
    """TD3 over box actions in [0, 1]^action_dim."""

    def __init__(
        self,
        actor_factory,
        config: Td3Config,
        rng: np.random.Generator,
    ) -> None:
        self.cfg = config
        self.rng = rng
        self.actor: Module = actor_factory()
        self.actor_target: Module = actor_factory()
        self.actor_target.copy_from(self.actor)
        self.critic = TwinCritic(
            config.state_dim, config.action_dim, rng, config.critic_hidden
        )
        self.critic_target = TwinCritic(
            config.state_dim, config.action_dim, rng, config.critic_hidden
        )
        self.critic_target.copy_from(self.critic)
        self.actor_opt = Adam(self.actor.arena, lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.arena, lr=config.critic_lr)
        self.replay = ReplayBuffer(
            config.buffer_capacity, config.state_dim, config.action_dim
        )
        self.noise = GaussianNoise(
            config.action_dim,
            rng,
            mu=config.noise_mu,
            sigma=config.noise_sigma,
            decay=config.noise_decay,
            min_sigma=config.noise_min_sigma,
        )
        self.steps = 0
        self.updates = 0
        #: Minibatches abandoned because the batch or its losses were
        #: non-finite (replay corruption, diverged networks).
        self.skipped_updates = 0

    # ------------------------------------------------------------------ acting

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        self.steps += 1
        if explore and self.replay.total_pushed < self.cfg.warmup:
            return self.rng.random(self.cfg.action_dim)
        a = self.actor.forward(np.asarray(state, dtype=float).reshape(1, -1))[0]
        if explore:
            a = a + self.noise.sample()
            self.noise.step_decay()
        return np.clip(a, 0.0, 1.0)

    def observe(self, state, action, reward, next_state, done=False) -> None:
        self.replay.push(state, action, reward, next_state, done)

    # ---------------------------------------------------------------- training

    @property
    def ready(self) -> bool:
        return len(self.replay) >= max(self.cfg.batch_size, self.cfg.warmup)

    def update(self) -> Optional[Dict[str, float]]:
        if not self.ready:
            return None
        cfg = self.cfg
        s, a, r, s2, done = self.replay.sample(cfg.batch_size, self.rng)
        if not batch_is_finite(s, a, r, s2):
            self.skipped_updates += 1
            return None

        # ---- critics: clipped double-Q with smoothed target actions ----------
        a2 = self.actor_target.forward(s2)
        smoothing = np.clip(
            cfg.target_noise * self.rng.standard_normal(a2.shape),
            -cfg.target_noise_clip,
            cfg.target_noise_clip,
        )
        a2 = np.clip(a2 + smoothing, 0.0, 1.0)
        q_next = self.critic_target.min_q(s2, a2)[:, 0]
        y = (r + cfg.gamma * (1.0 - done.astype(float)) * q_next).reshape(-1, 1)

        critic_loss = 0.0
        self.critic.zero_grad()
        grads = []
        for qnet in (self.critic.q1, self.critic.q2):
            q = qnet.forward_sa(s, a)
            loss, grad = mse_loss(q, y)
            critic_loss += loss
            grads.append((qnet, grad))
        if not np.isfinite(critic_loss):
            self.skipped_updates += 1
            return None
        for qnet, grad in grads:
            qnet.backward(grad, input_grad=False)
        clip_grad_norm(self.critic.arena, cfg.grad_clip)
        self.critic_opt.step()
        self.updates += 1

        out = {"critic_loss": critic_loss, "actor_loss": float("nan")}
        # ---- delayed actor + target updates -----------------------------------
        if self.updates % cfg.policy_delay == 0:
            pi = self.actor.forward(s)
            _, dq_da = self.critic.q1.action_gradient(s, pi)
            if not np.isfinite(dq_da).all():
                self.skipped_updates += 1
                return out
            self.actor.zero_grad()
            self.actor.backward(-dq_da / cfg.batch_size, input_grad=False)
            clip_grad_norm(self.actor.arena, cfg.grad_clip)
            self.actor_opt.step()
            self.actor_target.soft_update_from(self.actor, cfg.tau)
            self.critic_target.soft_update_from(self.critic, cfg.tau)
            q_pi = self.critic.q1.forward_sa(s, self.actor.forward(s))
            out["actor_loss"] = float(-q_pi.mean())
        return out

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Complete learner snapshot (see :meth:`DdpgAgent.state_dict`)."""
        return {
            "algo": "td3",
            "actor": self.actor.state_dict(),
            "actor_target": self.actor_target.state_dict(),
            "critic": self.critic.state_dict(),
            "critic_target": self.critic_target.state_dict(),
            "actor_opt": self.actor_opt.state_dict(),
            "critic_opt": self.critic_opt.state_dict(),
            "replay": self.replay.state_dict(),
            "noise": self.noise.state_dict(),
            "rng": generator_state(self.rng),
            "steps": self.steps,
            "updates": self.updates,
            "skipped_updates": self.skipped_updates,
        }

    def load_state_dict(self, state: Dict) -> None:
        if state.get("algo") != "td3":
            raise ValueError(f"snapshot is for algo {state.get('algo')!r}, not 'td3'")
        self.actor.load_state_dict(state["actor"])
        self.actor_target.load_state_dict(state["actor_target"])
        self.critic.load_state_dict(state["critic"])
        self.critic_target.load_state_dict(state["critic_target"])
        self.actor_opt.load_state_dict(state["actor_opt"])
        self.critic_opt.load_state_dict(state["critic_opt"])
        self.replay.load_state_dict(state["replay"])
        self.noise.load_state_dict(state["noise"])
        restore_generator(self.rng, state["rng"])
        self.steps = int(state["steps"])
        self.updates = int(state["updates"])
        self.skipped_updates = int(state["skipped_updates"])
