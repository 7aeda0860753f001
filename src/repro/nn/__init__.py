"""Minimal neural-network substrate (numpy, manual backprop).

Stands in for PyTorch: the paper's networks are all small MLPs (the actor
has ~2k parameters), for which explicit reverse-mode numpy code is fast,
dependency-free, and easy to verify against finite differences.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .layers import Identity, Layer, Linear, Parameter, ReLU, Sigmoid, Tanh
    from .losses import huber_loss, mse_loss
    from .network import ACTIVATIONS, MLP, Module, TwoHeadMLP, numerical_gradient
    from .optim import SGD, Adam, Optimizer, clip_grad_norm
    from .serialization import load_modules, save_modules

__all__ = [
    "Parameter",
    "Layer",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "MLP",
    "TwoHeadMLP",
    "Module",
    "ACTIVATIONS",
    "numerical_gradient",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "mse_loss",
    "huber_loss",
    "save_modules",
    "load_modules",
]

__getattr__, __dir__ = lazy_exports(__name__)
