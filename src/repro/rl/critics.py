"""State-action value networks with mid-network action injection.

Paper §4.6: "As for critic, we concatenate the output of the first hidden
layer with action, and then pass through two fully-connected layers."
:class:`StateActionCritic` wires exactly that topology and exposes the two
gradient paths DDPG needs:

* ``backward(dL/dQ)`` — accumulate parameter gradients (critic update) and
  return ``(dL/ds, dL/da)``;
* ``action_gradient(s, a)`` — ``(Q, dQ/da)``, the deterministic-policy-
  gradient signal for the actor update, from an input-gradient-only pass
  that leaves the critic's parameter gradients untouched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Linear, Parameter, ReLU
from ..nn.network import MLP, Module

__all__ = ["StateActionCritic", "TwinCritic"]


class StateActionCritic(Module):
    """Q(s, a) with action concatenated after the first hidden layer.

    Parameters
    ----------
    state_dim, action_dim:
        Input sizes.
    hidden:
        Widths ``(h1, h2, h3)``: state -> h1, concat(h1, a) -> h2 -> h3 -> 1.
        Defaults to the paper's (32, 24, 16).
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden: Sequence[int] = (32, 24, 16),
    ) -> None:
        if len(hidden) != 3:
            raise ValueError("hidden must have exactly 3 widths (h1, h2, h3)")
        h1, h2, h3 = hidden
        self.action_dim = action_dim
        self.fc_state = Linear(state_dim, h1, rng, name="critic.fc_state")
        self.act1 = ReLU()
        self.tail = MLP([h1 + action_dim, h2, h3, 1], rng, output_activation="identity")
        self._h1: Optional[np.ndarray] = None
        self._pack()

    def forward_sa(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Q values, shape ``(batch, 1)``."""
        h = self.act1.forward(self.fc_state.forward(states))
        self._h1 = h
        z = np.concatenate([h, actions], axis=1)
        return self.tail.forward(z)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Module-API forward over a pre-concatenated ``[state | action]``."""
        s = x[:, : -self.action_dim]
        a = x[:, -self.action_dim :]
        return self.forward_sa(s, a)

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Backprop ``dL/dQ``; returns ``(dL/dstate, dL/daction)``.

        ``dL/dstate`` is ``None`` when ``input_grad`` is false.
        """
        gz = self.tail.backward(grad_out)
        gh = gz[:, : -self.action_dim]
        ga = gz[:, -self.action_dim :]
        gs = self.fc_state.backward(self.act1.backward(gh), input_grad)
        return gs, ga

    def action_gradient(
        self, states: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(Q, dQ/da)`` for the actor update.

        Only input gradients are propagated, and only through the layers
        after the action joins: parameter gradients are left as they were,
        so callers can interleave this with critic updates.
        """
        q = self.forward_sa(states, actions)
        gz = self.tail.backward_input(np.ones_like(q))
        return q, gz[:, -self.action_dim :]

    def parameters(self) -> List[Parameter]:
        return self.fc_state.parameters() + self.tail.parameters()


class TwinCritic(Module):
    """Two independent Q networks (SAC's clipped double-Q trick)."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden: Sequence[int] = (32, 24, 16),
    ) -> None:
        self.q1 = StateActionCritic(state_dim, action_dim, rng, hidden)
        self.q2 = StateActionCritic(state_dim, action_dim, rng, hidden)
        self._pack()

    def forward_sa(self, states: np.ndarray, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.q1.forward_sa(states, actions), self.q2.forward_sa(states, actions)

    def min_q(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        a, b = self.forward_sa(states, actions)
        return np.minimum(a, b)

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - API parity
        return np.minimum(self.q1.forward(x), self.q2.forward(x))

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):  # pragma: no cover
        raise NotImplementedError("backprop through min(); use q1/q2 directly")

    def parameters(self) -> List[Parameter]:
        return self.q1.parameters() + self.q2.parameters()
