"""Loss functions returning ``(value, grad_wrt_prediction)`` pairs."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["mse_loss", "huber_loss"]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error over all elements.

    Returns the scalar loss and its gradient with respect to ``pred``
    (already divided by the element count, so it feeds ``backward``
    directly).
    """
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    return loss, (2.0 / n) * diff


def huber_loss(
    pred: np.ndarray, target: np.ndarray, delta: float = 1.0
) -> Tuple[float, np.ndarray]:
    """Huber (smooth-L1) loss — quadratic near zero, linear in the tails.

    Commonly used for DQN targets; included for the DQN/DDQN substrates.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    diff = pred - target
    n = diff.size
    absd = np.abs(diff)
    quad = absd <= delta
    loss_elems = np.where(quad, 0.5 * diff * diff, delta * (absd - 0.5 * delta))
    grad = np.where(quad, diff, delta * np.sign(diff)) / n
    return float(loss_elems.sum() / n), grad

