"""First-order optimizers over a network's :class:`~repro.nn.layers.ParamArena`.

An optimizer takes an arena (``module.arena``) or a parameter list, which
is resolved to the arena it lives in (standalone parameters get a fresh
one).  Its slot state (momentum, Adam moments) is flat, aligned with the
arena, so a step is a handful of whole-vector passes however many
parameters the network has.  Snapshots still store one slot per
parameter, as before the arena existed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .layers import ParamArena, Parameter, as_arena

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]

Params = Union[ParamArena, Sequence[Parameter]]

_sum = np.add.reduce


def clip_grad_norm(params: Params, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for logging training stability).  The
    squared norm is summed per parameter, in parameter order, so it is the
    same float as a per-parameter ``np.sum(g * g)`` loop.
    """
    arena = as_arena(params)
    np.multiply(arena.grad, arena.grad, out=arena.sq)
    total = 0.0
    for seg in arena.sq_segments:
        total += float(_sum(seg))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        arena.grad *= max_norm / (norm + 1e-12)
    return norm


class Optimizer:
    """Base: step over a fixed parameter arena."""

    def __init__(self, params: Params, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.arena = as_arena(params)
        self.params: List[Parameter] = self.arena.params
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.arena.grad.fill(0.0)

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Snapshot of the optimizer's slot state (momentum, moments, ...).

        Slots are stored positionally, one per parameter (aligned with
        ``self.params``); a slot never allocated is ``None``.
        """
        raise NotImplementedError

    def load_state_dict(self, state: Dict) -> None:
        raise NotImplementedError

    def _slots(self, flat: Optional[np.ndarray]) -> List[Optional[np.ndarray]]:
        """Per-parameter copies of a flat slot vector (``None`` if unset)."""
        if flat is None:
            return [None] * len(self.params)
        return [
            flat[a:b].reshape(shape).copy()
            for (a, b), shape in zip(self.arena.bounds, self.arena.shapes)
        ]

    def _flat(self, slots: List) -> Optional[np.ndarray]:
        """Inverse of :meth:`_slots`; an unset slot among set ones is zeros,
        which is what a step would have allocated for it."""
        if len(slots) != len(self.params):
            raise ValueError(
                f"optimizer snapshot has {len(slots)} parameter slots, "
                f"this optimizer has {len(self.params)}"
            )
        if all(s is None for s in slots):
            return None
        flat = np.zeros(self.arena.data.size)
        for (a, b), s in zip(self.arena.bounds, slots):
            if s is not None:
                flat[a:b] = np.asarray(s, dtype=np.float64).ravel()
        return flat


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Params, lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._vel: Optional[np.ndarray] = None

    def step(self) -> None:
        data, grad = self.arena.data, self.arena.grad
        if self.momentum > 0.0:
            if self._vel is None:
                self._vel = np.zeros_like(data)
            v = self._vel
            v *= self.momentum
            v -= self.lr * grad
            data += v
        else:
            data -= self.lr * grad

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "velocity": self._slots(self._vel),
        }

    def load_state_dict(self, state: Dict) -> None:
        vel = self._flat(state["velocity"])
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self._vel = vel


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    The paper trains its DDPG networks with default Adam settings; the same
    defaults are used here.
    """

    def __init__(
        self,
        params: Params,
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._tmp = np.empty_like(self.arena.data)
        self._den = np.empty_like(self.arena.data)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        data, g = self.arena.data, self.arena.grad
        if self.weight_decay:
            g = g + self.weight_decay * data
        if self._m is None:
            self._m = np.zeros_like(data)
        if self._v is None:
            self._v = np.zeros_like(data)
        m, v, tmp, den = self._m, self._v, self._tmp, self._den
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= self.b1
        np.multiply(g, 1.0 - self.b1, out=tmp)
        m += tmp
        v *= self.b2
        np.multiply(g, 1.0 - self.b2, out=tmp)
        tmp *= g
        v += tmp
        # data -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(v, b2t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, b1t, out=tmp)
        tmp *= self.lr
        tmp /= den
        data -= tmp

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "betas": (self.b1, self.b2),
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "t": self.t,
            "m": self._slots(self._m),
            "v": self._slots(self._v),
        }

    def load_state_dict(self, state: Dict) -> None:
        m = self._flat(state["m"])
        v = self._flat(state["v"])
        self.lr = float(state["lr"])
        self.b1, self.b2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self.t = int(state["t"])
        self._m, self._v = m, v
