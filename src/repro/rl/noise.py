"""Gaussian exploration noise for continuous-action agents.

The paper adds Gaussian noise ``N(mu=0.3, sigma=1)`` to the actor output
during training (§4.6): the positive mean biases early exploration toward
high frequencies (avoiding queue blow-up while the policy is random), and
the large variance covers the whole [0, 1] action range.  A decay schedule
is provided so evaluation-time noise can anneal away.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["GaussianNoise"]


class GaussianNoise:
    """IID Gaussian action noise with optional multiplicative decay.

    Parameters
    ----------
    dim:
        Action dimensionality.
    mu, sigma:
        Noise mean / stdev (paper defaults 0.3 and 1.0).
    decay:
        Per-``step_decay()`` multiplier applied to sigma *and* mu, so the
        optimistic bias anneals along with the exploration magnitude.
    min_sigma:
        Floor on sigma after decay.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        mu: float = 0.3,
        sigma: float = 1.0,
        decay: float = 1.0,
        min_sigma: float = 0.05,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if sigma < 0 or min_sigma < 0:
            raise ValueError("sigma values must be >= 0")
        if not 0 < decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        self.dim = dim
        self.rng = rng
        self.mu0, self.sigma0 = float(mu), float(sigma)
        self.mu, self.sigma = float(mu), float(sigma)
        self.decay = float(decay)
        self.min_sigma = float(min_sigma)

    def sample(self) -> np.ndarray:
        """One noise vector."""
        return self.mu + self.sigma * self.rng.standard_normal(self.dim)

    def step_decay(self) -> None:
        """Anneal the noise (call once per agent step or episode)."""
        if self.decay < 1.0:
            self.sigma = max(self.min_sigma, self.sigma * self.decay)
            self.mu = self.mu * self.decay

    def reset(self) -> None:
        """Restore the initial noise parameters."""
        self.mu, self.sigma = self.mu0, self.sigma0

    def state_dict(self) -> Dict:
        """Snapshot of the annealing state (the RNG is owned by the agent)."""
        return {"mu": self.mu, "sigma": self.sigma, "mu0": self.mu0, "sigma0": self.sigma0}

    def load_state_dict(self, state: Dict) -> None:
        self.mu = float(state["mu"])
        self.sigma = float(state["sigma"])
        self.mu0 = float(state["mu0"])
        self.sigma0 = float(state["sigma0"])

