"""Service-time predictors used by the prediction-based baselines.

ReTail (Chen et al., HPCA'22) argues a linear regression over request
features is accurate enough; Gemini (Zhou et al., MICRO'20) fits a small
neural network.  Both are *profiled offline at a fixed load* — which is
exactly the weakness §3.1 of the DeepPower paper demonstrates (Fig 2):
contention couples service time to load, so a model trained at load i
mispredicts at load j.

Predictors here model **work** (GHz-seconds): callers convert to time via
the candidate frequency (``time = work / freq``), which is how both papers
use their predictions for frequency selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn.network import MLP
from ..server.server import contention_inflation
from ..nn.optim import Adam
from ..nn.losses import mse_loss
from ..workload.apps import AppSpec

__all__ = [
    "ServicePredictor",
    "LinearServicePredictor",
    "MlpServicePredictor",
    "profile_app",
    "relative_rmse_matrix",
]


def profile_app(
    app: AppSpec,
    rng: np.random.Generator,
    n: int = 2000,
    load: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Offline profiling pass: sample (features, observed work) at ``load``.

    The observed work includes the contention inflation a request would
    experience at the given utilisation — profiling measures wall-clock
    service times on a machine running at that load, so the inflation is
    baked into the training data, exactly as in the original systems.
    """
    if not 0.0 <= load <= 1.0:
        raise ValueError("load must be in [0, 1]")
    works, feats = app.service.sample_batch(rng, n)
    mean_work = app.service.expected_work()
    # Same size-dependent interference a live run applies at dispatch.
    inflation = contention_inflation(app.contention, load, works, mean_work)
    return feats, works * inflation


class ServicePredictor:
    """Interface: fit on (features, work), predict work."""

    def fit(self, features: np.ndarray, works: np.ndarray) -> None:
        raise NotImplementedError

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted work, shape (n,). Accepts (n, d) or a single (d,)."""
        raise NotImplementedError

    def predict_one(self, features) -> float:
        return float(self.predict(np.asarray(features, dtype=float).reshape(1, -1))[0])

    def rmse(self, features: np.ndarray, works: np.ndarray) -> float:
        """Root mean squared prediction error on a labelled set."""
        err = self.predict(features) - works
        return float(np.sqrt(np.mean(err * err)))

    #: Standard deviation of training residuals, set by ``fit``.  Consumers
    #: (ReTail's padding, Gemini's stage-1 margin) use it to budget for
    #: prediction error, as the original systems do with error quantiles.
    residual_std_: float = 0.0

    def _record_residuals(self, features: np.ndarray, works: np.ndarray) -> None:
        err = self.predict(features) - works
        self.residual_std_ = float(np.std(err))


@dataclass
class LinearServicePredictor(ServicePredictor):
    """Ordinary least squares with intercept (ReTail's model).

    Fits in closed form; prediction is a dot product — the "learning
    simplicity" ReTail opts for.  Negative predictions are clamped to a
    small positive floor (a service time cannot be negative).
    """

    ridge: float = 1e-8
    coef_: Optional[np.ndarray] = None
    intercept_: float = 0.0
    floor: float = 1e-9

    def fit(self, features: np.ndarray, works: np.ndarray) -> None:
        x = np.asarray(features, dtype=float)
        y = np.asarray(works, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("need features (n, d) and works (n,)")
        xa = np.hstack([x, np.ones((len(x), 1))])
        gram = xa.T @ xa + self.ridge * np.eye(xa.shape[1])
        beta = np.linalg.solve(gram, xa.T @ y)
        self.coef_ = beta[:-1]
        self.intercept_ = float(beta[-1])
        self._record_residuals(x, y)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("predictor is not fitted")
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return np.maximum(x @ self.coef_ + self.intercept_, self.floor)


class MlpServicePredictor(ServicePredictor):
    """Small fully-connected regressor (Gemini's model).

    Trained with minibatch Adam on standardised features/targets; can
    exploit the nonlinear feature components a linear model misses.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        hidden: Tuple[int, ...] = (16, 16),
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 3e-3,
    ) -> None:
        self.rng = rng
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.net: Optional[MLP] = None
        self._x_mean = self._x_std = None
        self._y_mean = self._y_std = None
        self.floor = 1e-9

    def fit(self, features: np.ndarray, works: np.ndarray) -> None:
        x = np.asarray(features, dtype=float)
        y = np.asarray(works, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("need features (n, d) and works (n,)")
        self._x_mean = x.mean(axis=0)
        self._x_std = x.std(axis=0) + 1e-9
        self._y_mean = float(y.mean())
        self._y_std = float(y.std() + 1e-12)
        xs = (x - self._x_mean) / self._x_std
        ys = ((y - self._y_mean) / self._y_std).reshape(-1, 1)

        self.net = MLP([x.shape[1], *self.hidden, 1], self.rng)
        opt = Adam(self.net.arena, lr=self.lr)
        n = len(xs)
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for i in range(0, n, self.batch_size):
                idx = order[i : i + self.batch_size]
                pred = self.net.forward(xs[idx])
                _, grad = mse_loss(pred, ys[idx])
                self.net.zero_grad()
                self.net.backward(grad, input_grad=False)
                opt.step()
        self._record_residuals(x, y)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("predictor is not fitted")
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        xs = (x - self._x_mean) / self._x_std
        y = self.net.forward(xs)[:, 0] * self._y_std + self._y_mean
        return np.maximum(y, self.floor)


def relative_rmse_matrix(
    app: AppSpec,
    loads,
    rng: np.random.Generator,
    n_train: int = 2000,
    n_test: int = 2000,
    predictor_factory=None,
) -> np.ndarray:
    """The paper's Fig 2 statistic.

    Entry (i, j) is ``RMSE(model_i on data_j) / RMSE(model_j on data_j)``:
    how much worse a model trained at load i predicts load j than the
    matched model.  The diagonal is 1 by construction; off-diagonal growth
    demonstrates load-transfer degradation.
    """
    loads = list(loads)
    factory = predictor_factory or (lambda: LinearServicePredictor())
    models = []
    for ld in loads:
        f, w = profile_app(app, rng, n_train, ld)
        m = factory()
        m.fit(f, w)
        models.append(m)
    test_sets = [profile_app(app, rng, n_test, ld) for ld in loads]
    k = len(loads)
    out = np.zeros((k, k))
    base = np.array([models[j].rmse(*test_sets[j]) for j in range(k)])
    for i in range(k):
        for j in range(k):
            out[i, j] = models[i].rmse(*test_sets[j]) / max(base[j], 1e-15)
    return out
