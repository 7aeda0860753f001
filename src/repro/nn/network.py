"""Network containers: sequential MLPs and parameter-vector utilities.

Besides the generic :class:`MLP`, this module provides the two-branch
actor topology the paper describes in §4.6 ("the input state passes the
first shared fully-connected layer and then gets through two separate
fully-connected layers", sigmoid outputs) as :class:`TwoHeadMLP`.

Every network owns one :class:`~repro.nn.layers.ParamArena`; a network
nested inside another (a head, a twin critic's half) views its slice of
the outer network's arena.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

import numpy as np

from .layers import (
    Identity,
    Layer,
    Linear,
    ParamArena,
    Parameter,
    ReLU,
    Sigmoid,
    Tanh,
)

__all__ = ["MLP", "TwoHeadMLP", "Module", "ACTIVATIONS"]

ACTIVATIONS: Dict[str, Type[Layer]] = {
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "identity": Identity,
}


class Module:
    """Base container: parameter bookkeeping shared by all networks.

    A subclass builds its layers and sub-networks, then calls
    :meth:`_pack` last in ``__init__``: that moves every parameter into
    one :class:`~repro.nn.layers.ParamArena` (``self.arena``) and points
    each sub-network's ``arena`` at its slice.  ``parameters()`` must list
    a sub-network's parameters as one contiguous run.
    """

    arena: ParamArena

    def parameters(self) -> List[Parameter]:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def _pack(self) -> None:
        ParamArena.pack(self.parameters())
        self._adopt()

    def _adopt(self) -> None:
        self.arena = ParamArena.of(self.parameters())
        for child in vars(self).values():
            if isinstance(child, Module):
                child._adopt()

    # ------------------------------------------------------------- parameters

    def zero_grad(self) -> None:
        self.arena.grad.fill(0.0)

    def num_parameters(self) -> int:
        """Total trainable scalar count (the paper reports 2096 for its actor)."""
        return self.arena.data.size

    def get_flat(self) -> np.ndarray:
        """All parameters concatenated into one vector (a copy)."""
        return self.arena.data.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`get_flat`."""
        vec = np.asarray(vec, dtype=np.float64)
        data = self.arena.data
        if vec.size < data.size:
            raise ValueError("flat vector too short for this network")
        if vec.size > data.size:
            raise ValueError(f"flat vector has {vec.size - data.size} extra values")
        data[...] = vec

    def copy_from(self, other: "Module") -> None:
        """Hard copy of another network's parameters (target-net init)."""
        self.arena.check_layout(other.arena)
        self.arena.data[...] = other.arena.data

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak averaging: ``theta <- tau * theta_src + (1-tau) * theta``.

        The DDPG/SAC target-network update (paper Algorithm 2, line 18).
        Raises ``ValueError`` when the two networks' layouts differ.
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self.arena.check_layout(other.arena)
        data = self.arena.data
        data *= 1.0 - tau
        data += tau * other.arena.data

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Named parameter snapshot (savable with ``np.savez``)."""
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, p in enumerate(self.parameters()):
            key = f"p{i}"
            if key not in state:
                raise KeyError(f"missing parameter {key}")
            if state[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {state[key].shape} vs {p.data.shape}"
                )
            p.data[...] = state[key]


class MLP(Module):
    """Fully-connected stack: ``dims[0] -> dims[1] -> ... -> dims[-1]``.

    Parameters
    ----------
    dims:
        Layer widths including input and output.
    rng:
        Initialisation stream.
    hidden_activation, output_activation:
        Names from :data:`ACTIVATIONS`.

    Examples
    --------
    >>> rng = np.random.default_rng(0)
    >>> net = MLP([8, 32, 24, 16, 2], rng, output_activation="sigmoid")
    >>> y = net(np.zeros((5, 8)))
    >>> y.shape
    (5, 2)
    >>> bool(np.all((y >= 0) & (y <= 1)))
    True
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "identity",
    ) -> None:
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        self.layers: List[Layer] = []
        n = len(dims) - 1
        for i in range(n):
            self.layers.append(Linear(dims[i], dims[i + 1], rng, name=f"fc{i}"))
            act = hidden_activation if i < n - 1 else output_activation
            self.layers.append(ACTIVATIONS[act]())
        self._pack()

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray:
        """Accumulate parameter gradients; return ``dL/dx``, or ``None``
        when ``input_grad`` is false (the first layer then skips it)."""
        g = grad_out
        layers = self.layers
        for layer in reversed(layers[1:]):
            g = layer.backward(g)
        return layers[0].backward(g, input_grad)

    def backward_input(self, grad_out: np.ndarray) -> np.ndarray:
        """``dL/dx`` only; parameter gradients are left untouched."""
        g = grad_out
        for layer in reversed(self.layers):
            g = layer.backward_input(g)
        return g

    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


class TwoHeadMLP(Module):
    """Shared trunk + two output heads, each emitting one scalar.

    This is the paper's actor topology: the 8-dim state passes through a
    shared layer, then two separate branches produce ``BaseFreq`` and
    ``ScalingCoef``; a sigmoid keeps both in [0, 1] (§4.4.3, §4.6).

    ``forward`` returns shape ``(batch, 2)`` — column 0 is head A
    (BaseFreq), column 1 is head B (ScalingCoef).
    """

    def __init__(
        self,
        in_dim: int,
        trunk_dims: Sequence[int],
        head_dims: Sequence[int],
        rng: np.random.Generator,
        output_activation: str = "sigmoid",
        hidden_activation: str = "relu",
    ) -> None:
        self.trunk = MLP(
            [in_dim, *trunk_dims],
            rng,
            hidden_activation=hidden_activation,
            output_activation=hidden_activation,
        )
        trunk_out = trunk_dims[-1]
        self.head_a = MLP(
            [trunk_out, *head_dims, 1],
            rng,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
        )
        self.head_b = MLP(
            [trunk_out, *head_dims, 1],
            rng,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
        )
        self._pack()

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.trunk.forward(x)
        a = self.head_a.forward(h)
        b = self.head_b.forward(h)
        return np.concatenate([a, b], axis=1)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray:
        ga = self.head_a.backward(grad_out[:, :1])
        gb = self.head_b.backward(grad_out[:, 1:2])
        return self.trunk.backward(ga + gb, input_grad)

    def parameters(self) -> List[Parameter]:
        return self.trunk.parameters() + self.head_a.parameters() + self.head_b.parameters()


def numerical_gradient(
    module: Module, x: np.ndarray, loss_fn, eps: float = 1e-6
) -> np.ndarray:
    """Finite-difference gradient of ``loss_fn(module(x))`` w.r.t. parameters.

    Test utility backing the gradient-check property tests.
    """
    flat = module.get_flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        module.set_flat(flat)
        hi = loss_fn(module.forward(x))
        flat[i] = orig - eps
        module.set_flat(flat)
        lo = loss_fn(module.forward(x))
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    module.set_flat(flat)
    return grad
