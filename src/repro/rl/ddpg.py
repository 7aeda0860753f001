"""Deep Deterministic Policy Gradient (Lillicrap et al. 2015).

The algorithm the paper selects for its continuous two-parameter action
space (§4.3).  Four networks: actor pi_theta, critic Q_w, and their Polyak-
averaged targets.  The update (paper Algorithm 2, lines 14-18):

    y_i  = r_i + gamma * Q_w'(s'_i, pi_theta'(s'_i))
    L_c  = sum_i (y_i - Q_w(s_i, a_i))^2          (critic, gradient descent)
    L_a  = sum_i -Q_w(s_i, pi_theta(s_i))         (actor, deterministic PG)
    soft update of both targets with rate tau.

Action components live in [0, 1] (sigmoid heads); exploration adds Gaussian
noise N(mu, sigma) and clips back into the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn.network import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.losses import mse_loss
from ..sim.rng import generator_state, restore_generator
from .critics import StateActionCritic
from .noise import GaussianNoise
from .replay import ReplayBuffer, batch_is_finite

__all__ = ["DdpgConfig", "DdpgAgent"]


@dataclass
class DdpgConfig:
    """Hyper-parameters for :class:`DdpgAgent` (paper defaults)."""

    state_dim: int = 8
    action_dim: int = 2
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup: int = 32
    noise_mu: float = 0.3
    noise_sigma: float = 1.0
    noise_decay: float = 0.995
    noise_min_sigma: float = 0.05
    grad_clip: float = 10.0
    critic_hidden: Sequence[int] = field(default_factory=lambda: (32, 24, 16))


class DdpgAgent:
    """DDPG over box actions in [0, 1]^action_dim.

    Parameters
    ----------
    actor_factory:
        Zero-argument callable building a fresh actor
        :class:`~repro.nn.network.Module` mapping state -> action in [0,1]
        (the DeepPower actor is a :class:`~repro.nn.network.TwoHeadMLP`).
        Called twice (online + target).
    config:
        Hyper-parameters.
    rng:
        Stream for exploration noise and minibatch sampling.
    """

    def __init__(
        self,
        actor_factory,
        config: DdpgConfig,
        rng: np.random.Generator,
        critic_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.cfg = config
        self.rng = rng
        crng = critic_rng if critic_rng is not None else rng
        self.actor: Module = actor_factory()
        self.actor_target: Module = actor_factory()
        self.actor_target.copy_from(self.actor)
        self.critic = StateActionCritic(
            config.state_dim, config.action_dim, crng, config.critic_hidden
        )
        self.critic_target = StateActionCritic(
            config.state_dim, config.action_dim, crng, config.critic_hidden
        )
        self.critic_target.copy_from(self.critic)
        self.actor_opt = Adam(self.actor.arena, lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.arena, lr=config.critic_lr)
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, config.action_dim)
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
        """Action for one state; exploration adds clipped Gaussian noise.

        During warmup (fewer than ``cfg.warmup`` observed transitions) the
        action is uniform random, per Algorithm 2 line 7.
        """
        self.steps += 1
        if explore and self.replay.total_pushed < self.cfg.warmup:
            return self.rng.random(self.cfg.action_dim)
        a = self.actor.forward(np.asarray(state, dtype=float).reshape(1, -1))[0]
        if explore:
            a = a + self.noise.sample()
            self.noise.step_decay()
        return np.clip(a, 0.0, 1.0)

    def observe(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        """Push a transition into the replay pool (Algorithm 2 line 12)."""
        self.replay.push(state, action, reward, next_state, done)

    # ---------------------------------------------------------------- training

    @property
    def ready(self) -> bool:
        """Whether enough transitions exist to start updating."""
        return len(self.replay) >= max(self.cfg.batch_size, self.cfg.warmup)

    def update(self) -> Optional[Dict[str, float]]:
        """One gradient step on critic and actor + target soft updates.

        Returns loss diagnostics, or None when still warming up or when the
        sampled batch / its losses are non-finite (the batch is skipped and
        ``skipped_updates`` incremented rather than poisoning the networks).
        """
        if not self.ready:
            return None
        cfg = self.cfg
        s, a, r, s2, done = self.replay.sample(cfg.batch_size, self.rng)
        if not batch_is_finite(s, a, r, s2):
            self.skipped_updates += 1
            return None

        # ---- critic: y = r + gamma * Q'(s', pi'(s')) --------------------------
        a2 = self.actor_target.forward(s2)
        q_next = self.critic_target.forward_sa(s2, a2)[:, 0]
        y = r + cfg.gamma * (1.0 - done.astype(float)) * q_next
        q = self.critic.forward_sa(s, a)
        critic_loss, grad = mse_loss(q, y.reshape(-1, 1))
        if not np.isfinite(critic_loss):
            self.skipped_updates += 1
            return None
        self.critic.zero_grad()
        self.critic.backward(grad, input_grad=False)
        clip_grad_norm(self.critic.arena, cfg.grad_clip)
        self.critic_opt.step()

        # ---- actor: maximize Q(s, pi(s)) --------------------------------------
        pi = self.actor.forward(s)
        q_pi, dq_da = self.critic.action_gradient(s, pi)
        actor_loss = float(-q_pi.mean())
        if not (np.isfinite(actor_loss) and np.isfinite(dq_da).all()):
            self.skipped_updates += 1
            return None
        self.actor.zero_grad()
        # d(-mean Q)/d pi = -dQ/da / batch
        self.actor.backward(-dq_da / cfg.batch_size, input_grad=False)
        clip_grad_norm(self.actor.arena, cfg.grad_clip)
        self.actor_opt.step()

        # ---- targets ----------------------------------------------------------
        self.actor_target.soft_update_from(self.actor, cfg.tau)
        self.critic_target.soft_update_from(self.critic, cfg.tau)
        self.updates += 1
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "mean_q": float(q.mean()),
        }

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Complete learner snapshot: a restored agent continues the exact
        action/update sequence the original would have produced (networks,
        optimizer slots, replay pool, exploration-noise schedule, RNG stream,
        and step counters are all captured bit-exactly)."""
        return {
            "algo": "ddpg",
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
        """Restore a snapshot taken by :meth:`state_dict`.

        The RNG state is restored into the *existing* generator object, so
        every component sharing it (exploration noise, replay sampling)
        continues the same stream.
        """
        if state.get("algo") != "ddpg":
            raise ValueError(f"snapshot is for algo {state.get('algo')!r}, not 'ddpg'")
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
