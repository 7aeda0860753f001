"""Fig 5: the reward's queue-gating ``scaleFunc`` at eta = 100.

Analytic figure: ``scaleFunc(x) = (x/eta) / (x/eta + eta/(x+eps))`` is ~0
below eta, crosses 0.5 near x = eta (the red pentagram in the paper), and
converges to 1 as x grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.reporting import sparkline
from ..core.reward import scale_func

__all__ = ["Fig5Result", "run_fig5", "render_fig5", "check_fig5"]


@dataclass(frozen=True)
class Fig5Result:
    eta: float
    x: np.ndarray
    y: np.ndarray
    #: x where the function crosses 0.5 (the paper's "change point").
    change_point: float


def run_fig5(eta: float = 100.0, x_max: float = 500.0, n: int = 1000) -> Fig5Result:
    x = np.linspace(0.0, x_max, n)
    y = scale_func(x, eta=eta)
    above = np.nonzero(y >= 0.5)[0]
    change = float(x[above[0]]) if above.size else float("inf")
    return Fig5Result(eta=eta, x=x, y=y, change_point=change)


def render_fig5(result: Fig5Result) -> str:
    probes = [10, 50, 100, 200, 400]
    vals = "  ".join(f"f({p})={scale_func(p, result.eta):.3f}" for p in probes)
    return (
        f"scaleFunc, eta={result.eta:.0f}: change point (y=0.5) at x≈{result.change_point:.0f}\n"
        + "shape: " + sparkline(result.y, 80) + "\n"
        + vals
    )


def check_fig5(result: Fig5Result) -> List[str]:
    """Fig 5's claims that ``result`` fails: at eta = 100 scaleFunc is ~0
    below eta, 0.5 at a change point near eta, converges to 1 above, and
    never falls."""
    claims = [
        (f"change point {result.change_point:.1f} within 5 of eta 100",
         abs(result.change_point - 100.0) < 5.0),
        (f"scaleFunc(10) {scale_func(10, 100.0):.4f} < 0.02", scale_func(10, 100.0) < 0.02),
        (f"scaleFunc(1e5) {scale_func(1e5, 100.0):.4f} > 0.99", scale_func(1e5, 100.0) > 0.99),
        ("scaleFunc is monotone", np.all(np.diff(result.y) >= -1e-12)),
    ]
    return [claim for claim, holds in claims if not holds]
