"""Fig 2: relative RMSE heatmap of cross-load service-time prediction.

Motivation experiment (§3.1): train ReTail-style linear regressions on
profiling data collected at load level i, evaluate on data from load level
j, and report ``RMSE(i on j) / RMSE(j on j)``.  Contention couples service
time to utilisation, so off-diagonal entries exceed 1 — prediction-based
power management degrades when the workload departs from its profiled
load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.reporting import format_heatmap
from ..analysis.stats import relative_error_matrix_stats
from ..baselines.predictors import relative_rmse_matrix
from ..sim.rng import RngRegistry
from ..workload.apps import get_app
from .scenarios import active_profile

__all__ = ["Fig2Result", "run_fig2", "render_fig2", "check_fig2", "FIG2_APPS", "FIG2_LOADS"]

#: The two apps the paper uses for the motivation heatmap.
FIG2_APPS = ("masstree", "sphinx")
#: Load levels (fractions of saturation) the models are trained/tested at.
FIG2_LOADS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Fig2Result:
    app: str
    loads: Tuple[float, ...]
    matrix: np.ndarray
    stats: dict


def run_fig2(
    apps: Sequence[str] = FIG2_APPS,
    loads: Sequence[float] = FIG2_LOADS,
    seed: int = 2023,
    n: Optional[int] = None,
    full: Optional[bool] = None,
) -> Dict[str, Fig2Result]:
    """Compute the relative-RMSE matrix per app."""
    profile = active_profile(full)
    n = n if n is not None else profile.sample_count // 2
    rngs = RngRegistry(seed)
    out: Dict[str, Fig2Result] = {}
    for name in apps:
        app = get_app(name)
        m = relative_rmse_matrix(
            app, loads, rngs.get(f"fig2-{name}"), n_train=n, n_test=n
        )
        out[name] = Fig2Result(
            app=name,
            loads=tuple(loads),
            matrix=m,
            stats=relative_error_matrix_stats(m),
        )
    return out


def render_fig2(results: Dict[str, Fig2Result]) -> str:
    blocks = []
    for name, r in results.items():
        labels = [f"{int(l * 100)}%" for l in r.loads]
        blocks.append(
            f"{name}: relative RMSE (rows = train load, cols = test load)\n"
            + format_heatmap(r.matrix, labels, labels)
            + f"\n  diag mean {r.stats['diag_mean']:.2f}  off-diag mean "
            f"{r.stats['offdiag_mean']:.2f}  worst {r.stats['offdiag_max']:.2f}"
        )
    return "\n\n".join(blocks)


def check_fig2(results: Dict[str, Fig2Result]) -> List[str]:
    """Fig 2's claims that ``results`` fails: the diagonal is ~1 by
    construction, and prediction degrades substantially across load gaps."""
    claims = []
    for name, r in results.items():
        m = r.matrix
        claims += [
            (f"{name}: relative RMSE diagonal within 0.02 of 1.0",
             np.allclose(np.diag(m), 1.0, atol=0.02)),
            (f"{name}: highest->lowest-load relative RMSE {m[-1, 0]:.2f} > 1.2", m[-1, 0] > 1.2),
            (f"{name}: off-diagonal mean {r.stats['offdiag_mean']:.2f} > 1.0",
             r.stats["offdiag_mean"] > 1.0),
        ]
    return [claim for claim, holds in claims if not holds]
