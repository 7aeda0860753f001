"""Statistical helpers shared by experiments and figures."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ecdf",
    "normalized_cdf",
    "tail_ratio",
    "relative_error_matrix_stats",
]


def ecdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns sorted values and cumulative probabilities.

    Examples
    --------
    >>> x, p = ecdf([3.0, 1.0, 2.0])
    >>> list(x), list(p)
    ([1.0, 2.0, 3.0], [0.3333333333333333, 0.6666666666666666, 1.0])
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return v, v
    p = np.arange(1, v.size + 1) / v.size
    return v, p


def normalized_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of values divided by their mean (paper Fig 1's x-axis)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return v, v
    m = v.mean()
    if m <= 0:
        raise ValueError("values must have positive mean")
    return ecdf(v / m)


def tail_ratio(values: Sequence[float], q: float = 0.99) -> float:
    """p_q divided by the mean (Fig 1's headline long-tail statistic)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    m = v.mean()
    return float(np.quantile(v, q) / m) if m > 0 else 0.0


def relative_error_matrix_stats(matrix: np.ndarray) -> dict:
    """Summary of a Fig 2-style relative-RMSE matrix.

    Returns the mean diagonal (should be ~1), mean off-diagonal, and the
    worst transfer pair — the quantities the paper's narrative cites.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    eye = np.eye(m.shape[0], dtype=bool)
    off = m[~eye]
    worst = np.unravel_index(np.argmax(m), m.shape)
    return {
        "diag_mean": float(m[eye].mean()),
        "offdiag_mean": float(off.mean()) if off.size else 0.0,
        "offdiag_max": float(off.max()) if off.size else 0.0,
        "worst_pair": (int(worst[0]), int(worst[1])),
    }

