"""Service-time processes with controllable tails and feature predictability.

The paper's evidence chain needs three properties from the workload:

1. **Long tails** (Fig 1): p99 service time is a small multiple (Img-dnn,
   Sphinx) to ~8x (Moses) of the mean.
2. **Feature predictability**: ReTail fits a linear regression from request
   features to service time, Gemini fits a small NN — both must *work* under
   a static load, so part of the service-time variance has to be explained
   by observable features.
3. **Load-dependent drift** (Fig 2): models trained at one load mispredict
   at another.  That part lives in the server's contention inflation, not
   here.

:class:`LognormalCorrelatedService` delivers (1) and (2) with two knobs: the
log-scale ``sigma`` sets the tail, and ``rho`` splits log-variance between a
feature-visible component and pure noise:

    log work = mu + sigma * (rho * z_vis + sqrt(1 - rho^2) * z_hid)

The feature vector exposes ``z_vis`` plus derived nonlinear views — a linear
model recovers the linear part; an NN can also exploit the square term, so
Gemini out-predicts ReTail slightly, as in the original papers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ServiceModel",
    "LognormalCorrelatedService",
    "DeterministicService",
    "FEATURE_DIM",
]

#: Width of the feature vector exposed to prediction-based baselines.
FEATURE_DIM = 3


class ServiceModel:
    """Interface: sample (work, features) pairs.  Work is in GHz-seconds."""

    def sample(self, rng: np.random.Generator) -> Tuple[float, Sequence[float]]:
        """Draw one request: returns ``(work, features)``, with
        ``FEATURE_DIM`` features as any float sequence."""
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` requests: returns ``(work[n], features[n, d])``."""
        works = np.empty(n)
        feats = np.empty((n, FEATURE_DIM))
        for i in range(n):
            works[i], feats[i] = self.sample(rng)
        return works, feats

    def expected_work(self) -> float:
        """Expected work per request (GHz-seconds)."""
        raise NotImplementedError


@dataclass(frozen=True)
class LognormalCorrelatedService(ServiceModel):
    """Lognormal work with a feature-visible log-variance share.

    Parameters
    ----------
    mean_work:
        Target E[work] in GHz-seconds.
    sigma:
        Log-scale standard deviation — the tail knob.  p99/mean for a
        lognormal is ``exp(2.326 sigma - sigma^2 / 2)``.
    rho:
        Fraction (in standard deviations) of log-variance visible through
        features; ``rho=1`` makes service time perfectly predictable,
        ``rho=0`` makes features useless.
    """

    mean_work: float
    sigma: float
    rho: float = 0.7

    def __post_init__(self) -> None:
        if self.mean_work <= 0:
            raise ValueError("mean_work must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        # Per-request constants, computed once (not dataclass fields).
        object.__setattr__(
            self, "_mu", math.log(self.mean_work) - 0.5 * self.sigma * self.sigma
        )
        object.__setattr__(self, "_hid_scale", math.sqrt(1.0 - self.rho * self.rho))

    @property
    def mu(self) -> float:
        """Log-mean such that E[exp(mu + sigma Z)] == mean_work."""
        return self._mu

    def tail_ratio(self, q: float = 0.99) -> float:
        """Analytic p_q / mean ratio (Fig 1's headline statistic)."""
        from scipy.stats import norm

        zq = float(norm.ppf(q))
        return math.exp(zq * self.sigma - 0.5 * self.sigma * self.sigma)

    def sample(self, rng: np.random.Generator) -> Tuple[float, Sequence[float]]:
        z_vis = rng.standard_normal()
        z_hid = rng.standard_normal()
        u = rng.random()
        logw = self._mu + self.sigma * (self.rho * z_vis + self._hid_scale * z_hid)
        # A plain tuple: only the prediction baselines read features, and
        # they convert where they do.
        return math.exp(logw), (z_vis, z_vis * z_vis, u)

    def sample_batch(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        z_vis = rng.standard_normal(n)
        z_hid = rng.standard_normal(n)
        u = rng.random(n)
        logw = self._mu + self.sigma * (self.rho * z_vis + self._hid_scale * z_hid)
        works = np.exp(logw)
        feats = np.stack([z_vis, z_vis * z_vis, u], axis=1)
        return works, feats

    def expected_work(self) -> float:
        return self.mean_work


@dataclass(frozen=True)
class DeterministicService(ServiceModel):
    """Nearly constant work with small jitter (Img-dnn-like: fixed-size
    DNN inference, p99 barely above the mean at any load)."""

    mean_work: float  # GHz-seconds
    jitter: float = 0.03  # relative stdev

    def __post_init__(self) -> None:
        if self.mean_work <= 0:
            raise ValueError("mean_work must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def sample(self, rng: np.random.Generator) -> Tuple[float, np.ndarray]:
        w, f = self.sample_batch(rng, 1)
        return float(w[0]), f[0]

    def sample_batch(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
        z = rng.standard_normal(n)
        works = self.mean_work * np.maximum(0.2, 1.0 + self.jitter * z)
        feats = np.stack([z, z * z, rng.random(n)], axis=1)
        return works, feats

    def expected_work(self) -> float:
        return self.mean_work
