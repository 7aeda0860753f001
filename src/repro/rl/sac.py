"""Soft Actor-Critic (Haarnoja et al. 2018) with a tanh-Gaussian policy.

Included because the paper benchmarks SAC's inference cost (Table 2) when
motivating the hierarchical design, and because it provides a stochastic-
policy ablation of DeepPower's top layer.  Actions live in [0, 1]^d via
``a = (tanh(u) + 1) / 2`` with ``u ~ N(mean(s), std(s))``; all gradients
are derived by hand (reparameterisation trick), see inline comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Linear, Parameter
from ..nn.network import MLP, Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.losses import mse_loss
from ..sim.rng import generator_state, restore_generator
from .critics import TwinCritic
from .replay import ReplayBuffer, batch_is_finite

__all__ = ["SacConfig", "GaussianPolicy", "SacAgent"]

_LOG_STD_MIN = -5.0
_LOG_STD_MAX = 2.0


class GaussianPolicy(Module):
    """Trunk + (mean, log_std) heads; log_std squashed into a safe range.

    ``log_std = min + 0.5 * (max - min) * (tanh(raw) + 1)`` keeps the head
    differentiable everywhere (instead of hard clipping).
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden: Sequence[int] = (32, 24, 16),
    ) -> None:
        self.action_dim = action_dim
        self.trunk = MLP([state_dim, *hidden], rng, output_activation="relu")
        self.mean_head = Linear(hidden[-1], action_dim, rng, name="sac.mean")
        self.log_std_head = Linear(hidden[-1], action_dim, rng, name="sac.log_std")
        self._raw: Optional[np.ndarray] = None
        self._pack()

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Returns ``[mean | log_std]`` of shape (batch, 2 * action_dim)."""
        h = self.trunk.forward(states)
        mean = self.mean_head.forward(h)
        raw = self.log_std_head.forward(h)
        self._raw = raw
        log_std = _LOG_STD_MIN + 0.5 * (_LOG_STD_MAX - _LOG_STD_MIN) * (np.tanh(raw) + 1.0)
        return np.concatenate([mean, log_std], axis=1)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray:
        """``grad_out`` is ``[d/dmean | d/dlog_std]``."""
        if self._raw is None:
            raise RuntimeError("backward before forward")
        d = self.action_dim
        g_mean = grad_out[:, :d]
        g_log_std = grad_out[:, d:]
        t = np.tanh(self._raw)
        g_raw = g_log_std * 0.5 * (_LOG_STD_MAX - _LOG_STD_MIN) * (1.0 - t * t)
        gh = self.mean_head.backward(g_mean) + self.log_std_head.backward(g_raw)
        return self.trunk.backward(gh, input_grad)

    def parameters(self) -> List[Parameter]:
        return (
            self.trunk.parameters()
            + self.mean_head.parameters()
            + self.log_std_head.parameters()
        )

    # ------------------------------------------------------------- sampling

    def sample(
        self, states: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, dict]:
        """Reparameterised sample: returns (action in [0,1], log_prob, cache).

        ``cache`` carries the intermediates needed for the manual actor
        backward pass.
        """
        out = self.forward(states)
        d = self.action_dim
        mean, log_std = out[:, :d], out[:, d:]
        std = np.exp(log_std)
        eps = rng.standard_normal(mean.shape)
        u = mean + std * eps
        t = np.tanh(u)
        a = 0.5 * (t + 1.0)
        # log pi(a) = sum_j [ logN(u_j) - log( (1 - t_j^2)/2 ) ]
        log_n = -0.5 * eps * eps - log_std - 0.5 * np.log(2 * np.pi)
        log_det = np.log(np.maximum(1.0 - t * t, 1e-12) / 2.0)
        logp = (log_n - log_det).sum(axis=1)
        cache = {"mean": mean, "log_std": log_std, "std": std, "eps": eps, "t": t}
        return a, logp, cache

    def mean_action(self, states: np.ndarray) -> np.ndarray:
        """Deterministic evaluation action (tanh of the mean)."""
        out = self.forward(states)
        mean = out[:, : self.action_dim]
        return 0.5 * (np.tanh(mean) + 1.0)


@dataclass
class SacConfig:
    """Hyper-parameters for :class:`SacAgent`."""

    state_dim: int = 8
    action_dim: int = 2
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    alpha: float = 0.05
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup: int = 64
    hidden: Sequence[int] = field(default_factory=lambda: (32, 24, 16))
    grad_clip: float = 10.0


class SacAgent:
    """SAC with fixed entropy temperature over [0, 1]^d actions."""

    def __init__(self, config: SacConfig, rng: np.random.Generator) -> None:
        self.cfg = config
        self.rng = rng
        self.policy = GaussianPolicy(config.state_dim, config.action_dim, rng, config.hidden)
        ch = (config.hidden[0], config.hidden[1], config.hidden[2])
        self.critic = TwinCritic(config.state_dim, config.action_dim, rng, ch)
        self.critic_target = TwinCritic(config.state_dim, config.action_dim, rng, ch)
        self.critic_target.copy_from(self.critic)
        self.actor_opt = Adam(self.policy.arena, lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.arena, lr=config.critic_lr)
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, config.action_dim)
        self.updates = 0
        #: Minibatches abandoned because the batch or its losses were
        #: non-finite (replay corruption, diverged networks).
        self.skipped_updates = 0

    # ------------------------------------------------------------------ acting

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        s = np.asarray(state, dtype=float).reshape(1, -1)
        if explore:
            if self.replay.total_pushed < self.cfg.warmup:
                return self.rng.random(self.cfg.action_dim)
            a, _, _ = self.policy.sample(s, self.rng)
            return a[0]
        return self.policy.mean_action(s)[0]

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

        # ---- critic target: y = r + gamma (min Q'(s2, a2) - alpha log pi) ----
        a2, logp2, _ = self.policy.sample(s2, self.rng)
        q_next = self.critic_target.min_q(s2, a2)[:, 0] - cfg.alpha * logp2
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

        # ---- actor: minimise E[alpha log pi - min Q(s, a_pi)] ----------------
        a_pi, logp, cache = self.policy.sample(s, self.rng)
        q1, dq1_da = self.critic.q1.action_gradient(s, a_pi)
        q2, dq2_da = self.critic.q2.action_gradient(s, a_pi)
        # Backprop through the element-wise min of the twin critics.
        use_q1 = (q1 <= q2).astype(float)  # (batch, 1) broadcast over actions
        dq_da = use_q1 * dq1_da + (1.0 - use_q1) * dq2_da
        actor_loss = float((cfg.alpha * logp - np.minimum(q1, q2)[:, 0]).mean())
        if not (np.isfinite(actor_loss) and np.isfinite(dq_da).all()):
            self.skipped_updates += 1
            return None

        t, std, eps = cache["t"], cache["std"], cache["eps"]
        da_du = 0.5 * (1.0 - t * t)
        # Under the reparameterisation u = mean + std * eps (eps fixed):
        #   d log pi / du        = 2 t            (tanh log-det correction;
        #                                          the Gaussian density term is
        #                                          constant in mean)
        #   d log pi / dlog_std  = -1 + (2 t) * std * eps
        #   dQ / du              = (dQ/da) * da/du
        # so with L = alpha * log pi - Q:
        dl_du = cfg.alpha * (2.0 * t) - dq_da * da_du
        dl_dmean = dl_du
        dl_dlog_std = dl_du * (std * eps) - cfg.alpha
        n = cfg.batch_size
        grad_out = np.concatenate([dl_dmean, dl_dlog_std], axis=1) / n
        self.policy.zero_grad()
        # Re-run forward so layer caches match the sampled batch.
        self.policy.forward(s)
        self.policy.backward(grad_out, input_grad=False)
        clip_grad_norm(self.policy.arena, cfg.grad_clip)
        self.actor_opt.step()

        # ---- targets ----------------------------------------------------------
        self.critic_target.soft_update_from(self.critic, cfg.tau)
        self.updates += 1
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "entropy": float(-logp.mean()),
        }

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Complete learner snapshot (see :meth:`~repro.rl.ddpg.DdpgAgent.state_dict`)."""
        return {
            "algo": "sac",
            "policy": self.policy.state_dict(),
            "critic": self.critic.state_dict(),
            "critic_target": self.critic_target.state_dict(),
            "actor_opt": self.actor_opt.state_dict(),
            "critic_opt": self.critic_opt.state_dict(),
            "replay": self.replay.state_dict(),
            "rng": generator_state(self.rng),
            "updates": self.updates,
            "skipped_updates": self.skipped_updates,
        }

    def load_state_dict(self, state: Dict) -> None:
        if state.get("algo") != "sac":
            raise ValueError(f"snapshot is for algo {state.get('algo')!r}, not 'sac'")
        self.policy.load_state_dict(state["policy"])
        self.critic.load_state_dict(state["critic"])
        self.critic_target.load_state_dict(state["critic_target"])
        self.actor_opt.load_state_dict(state["actor_opt"])
        self.critic_opt.load_state_dict(state["critic_opt"])
        self.replay.load_state_dict(state["replay"])
        restore_generator(self.rng, state["rng"])
        self.updates = int(state["updates"])
        self.skipped_updates = int(state["skipped_updates"])
