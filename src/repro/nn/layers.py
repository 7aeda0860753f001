"""Neural-network layers with explicit forward/backward (numpy only).

PyTorch is not available in this environment, and the paper's networks are
tiny (≈2k parameters), so the substrate is a straightforward reverse-mode
implementation: each layer caches what it needs during ``forward`` and
returns input gradients from ``backward`` while accumulating parameter
gradients.  Batches are row-major ``(batch, features)`` float64 arrays —
at these sizes the avoided dtype conversions beat float32 in numpy.

Parameter storage is a :class:`ParamArena`: each network packs all its
parameters into one contiguous ``data`` vector and one ``grad`` vector, and
every :class:`Parameter`'s ``data``/``grad`` is a reshaped view into them.
Layers read and write the per-parameter views; whole-network passes
(optimizer steps, gradient clipping, Polyak averaging, zeroing) run once
over the flat vectors instead of once per parameter.  Anything that loads
parameters must therefore write in place (``p.data[...] = x``): rebinding
``p.data`` to a new array would detach it from its arena.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "ParamArena",
    "as_arena",
    "Layer",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
]


class Parameter:
    """A trainable array and its gradient accumulator.

    Once packed, ``arena`` is the :class:`ParamArena` whose storage
    ``data`` and ``grad`` view, and ``offset`` is where they start in it.
    """

    __slots__ = ("data", "grad", "name", "arena", "offset")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.arena: Optional["ParamArena"] = None
        self.offset = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


class ParamArena:
    """Contiguous storage for a parameter list: one ``data``, one ``grad``.

    ``bounds[i]`` is parameter *i*'s ``(start, stop)`` in the flat vectors
    and ``shapes[i]`` its shape; ``sq`` is scratch for squared gradients
    and ``sq_segments`` its per-parameter views.  Build one with
    :meth:`pack` (fresh storage; the parameters are rebound to views of
    it) or :meth:`of` (a view of the arena a contiguous run of parameters
    already lives in, e.g. a sub-network's slice of its parent's arena).
    """

    __slots__ = ("params", "data", "grad", "bounds", "shapes", "sq", "sq_segments")

    def __init__(self, params: List[Parameter], data: np.ndarray, grad: np.ndarray) -> None:
        self.params = params
        self.data = data
        self.grad = grad
        self.shapes = tuple(p.data.shape for p in params)
        bounds, off = [], 0
        for p in params:
            bounds.append((off, off + p.data.size))
            off += p.data.size
        self.bounds = tuple(bounds)
        self.sq = np.empty(off)
        self.sq_segments = tuple(self.sq[a:b] for a, b in bounds)

    @classmethod
    def pack(cls, params: Sequence[Parameter]) -> "ParamArena":
        """Copy ``params`` into fresh storage and rebind them to views of it."""
        params = list(params)
        total = sum(p.data.size for p in params)
        arena = cls(params, np.empty(total), np.empty(total))
        for p, (a, b) in zip(params, arena.bounds):
            arena.data[a:b] = p.data.ravel()
            arena.grad[a:b] = p.grad.ravel()
            p.data = arena.data[a:b].reshape(p.data.shape)
            p.grad = arena.grad[a:b].reshape(p.grad.shape)
            p.arena, p.offset = arena, a
        return arena

    @classmethod
    def of(cls, params: Sequence[Parameter]) -> "ParamArena":
        """The arena ``params`` live in, packing them if they have none.

        Raises ``ValueError`` when they are not one contiguous, in-order run
        of a single arena: repacking them would detach them from the
        network that owns them.
        """
        params = list(params)
        if all(p.arena is None for p in params):
            return cls.pack(params)
        root = params[0].arena
        lo = off = params[0].offset
        for p in params:
            if p.arena is not root or p.offset != off:
                raise ValueError(
                    "parameters are not one contiguous run of a single arena"
                )
            off += p.data.size
        return cls(params, root.data[lo:off], root.grad[lo:off])

    def check_layout(self, other: "ParamArena") -> None:
        """Raise ``ValueError`` unless ``other`` has the same parameter shapes."""
        if self.shapes != other.shapes:
            raise ValueError(
                f"parameter layout mismatch: {len(self.shapes)} parameters "
                f"of shapes {self.shapes} vs {len(other.shapes)} of {other.shapes}"
            )


def as_arena(params) -> ParamArena:
    """``params`` if it is a :class:`ParamArena`, else the arena it lives in."""
    return params if isinstance(params, ParamArena) else ParamArena.of(params)


class Layer:
    """Base layer: ``y = forward(x)``, ``dL/dx = backward(dL/dy)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_input(self, grad_out: np.ndarray) -> np.ndarray:
        """``dL/dx`` only, leaving parameter gradients untouched."""
        return self.backward(grad_out)

    def parameters(self) -> List[Parameter]:
        return []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Layer):
    """Affine map ``y = x @ W.T + b``.

    Weight initialisation follows He-uniform scaled for the fan-in, which
    works well for the shallow ReLU stacks used here.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    rng:
        Generator for reproducible initialisation (required — global numpy
        state is never used by this library).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "linear",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        bound = np.sqrt(6.0 / in_features)
        w = rng.uniform(-bound, bound, size=(out_features, in_features))
        b = np.zeros(out_features)
        self.weight = Parameter(w, f"{name}.weight")
        self.bias = Parameter(b, f"{name}.bias")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        z = np.dot(x, self.weight.data.T)
        z += self.bias.data
        return z

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return ``dL/dx`` (``None`` when
        ``input_grad`` is false, for a first layer nobody reads it from)."""
        if self._x is None:
            raise RuntimeError("backward before forward")
        # Accumulate (+=) so multi-head networks can sum head gradients.
        weight = self.weight
        weight.grad += np.dot(grad_out.T, self._x)
        self.bias.grad += grad_out.sum(axis=0)
        return np.dot(grad_out, weight.data) if input_grad else None

    def backward_input(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        return np.dot(grad_out, self.weight.data)

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear activation (the paper's hidden activation)."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class Sigmoid(Layer):
    """Logistic activation (the paper's action squashing to [0, 1])."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable: with e = exp(-|x|), which never overflows, this
        # is where(x >= 0, 1 / (1 + e), e / (1 + e)), i.e. 1/(1+exp(-x)) for
        # x >= 0 and exp(x)/(1+exp(x)) below, computed in place.  -|x| is
        # taken as min(x, -x), which keeps a NaN input's sign bit.
        out = np.negative(x)
        np.minimum(x, out, out=out)
        np.exp(out, out=out)
        den = out + 1.0
        np.copyto(out, 1.0, where=x >= 0)
        out /= den
        self._y = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._y * (1.0 - self._y)


class Tanh(Layer):
    """Hyperbolic tangent (used by the SAC policy head)."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward")
        return grad_out * (1.0 - self._y * self._y)


class Identity(Layer):
    """Pass-through (linear output heads)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
