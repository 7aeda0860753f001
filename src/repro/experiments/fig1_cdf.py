"""Fig 1: CDF of service time divided by the mean, per application.

The paper's headline observation: Tailbench service times are long-tailed;
for Moses the p99 is roughly 8x the mean, while Img-dnn is nearly
deterministic.  This experiment samples each app's service-time process
and reports the normalised CDF plus tail ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.reporting import format_table, sparkline
from ..analysis.stats import normalized_cdf, tail_ratio
from ..sim.rng import RngRegistry
from ..workload.apps import get_app
from .scenarios import active_profile

__all__ = ["Fig1Result", "run_fig1", "render_fig1", "check_fig1"]

#: The four apps the paper plots in Fig 1.
FIG1_APPS = ("xapian", "masstree", "moses", "sphinx")


@dataclass(frozen=True)
class Fig1Result:
    """Normalised service-time distribution for one app."""

    app: str
    #: Sorted service time / mean values.
    x: np.ndarray
    #: Cumulative probabilities.
    p: np.ndarray
    tail_ratio_p99: float
    tail_ratio_p999: float


def run_fig1(
    apps: Sequence[str] = FIG1_APPS,
    n: Optional[int] = None,
    seed: int = 2023,
    full: Optional[bool] = None,
) -> Dict[str, Fig1Result]:
    """Sample service-time distributions and build normalised CDFs."""
    profile = active_profile(full)
    n = n if n is not None else profile.sample_count
    rngs = RngRegistry(seed)
    out: Dict[str, Fig1Result] = {}
    for name in apps:
        app = get_app(name)
        works, _ = app.service.sample_batch(rngs.get(f"fig1-{name}"), n)
        # Service time at a fixed frequency is proportional to work, so the
        # normalised (divided-by-mean) CDF of work equals that of time.
        x, p = normalized_cdf(works)
        out[name] = Fig1Result(
            app=name,
            x=x,
            p=p,
            tail_ratio_p99=tail_ratio(works, 0.99),
            tail_ratio_p999=tail_ratio(works, 0.999),
        )
    return out


def render_fig1(results: Dict[str, Fig1Result]) -> str:
    """Text rendering: tail ratios and a CDF sparkline per app."""
    rows = []
    for name, r in results.items():
        # Sparkline of P(X <= x) over x in [0, 8] * mean (the paper's axis).
        grid = np.linspace(0.0, 8.0, 60)
        cdf_vals = np.searchsorted(r.x, grid, side="right") / max(len(r.x), 1)
        rows.append(
            [name, r.tail_ratio_p99, r.tail_ratio_p999, sparkline(cdf_vals, 60)]
        )
    return format_table(
        ["app", "p99/mean", "p99.9/mean", "CDF over [0, 8x mean]"], rows, "{:.2f}"
    )


def check_fig1(results: Dict[str, Fig1Result]) -> List[str]:
    """Fig 1's claims that ``results`` fails: Moses has the heaviest tail
    (p99 ~8x the mean), the tails are long except on the near-deterministic
    apps, and every CDF is a proper distribution."""
    ratios = {k: v.tail_ratio_p99 for k, v in results.items()}
    heaviest = max(ratios, key=ratios.get)
    claims = [
        (f"moses has the heaviest p99/mean tail (got {heaviest})", heaviest == "moses"),
        (f"moses p99/mean {ratios['moses']:.2f} > 6.0", ratios["moses"] > 6.0),
        (f"xapian p99/mean {ratios['xapian']:.2f} > 3.0", ratios["xapian"] > 3.0),
        (f"sphinx p99/mean {ratios['sphinx']:.2f} < 3.5", ratios["sphinx"] < 3.5),
    ]
    claims += [(f"{name} CDF ends at {r.p[-1]} == 1.0", r.p[-1] == 1.0) for name, r in results.items()]
    return [claim for claim, holds in claims if not holds]
