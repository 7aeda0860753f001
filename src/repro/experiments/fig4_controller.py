"""Fig 4: millisecond-level frequency under the thread controller (2 s).

Reproduces the paper's close-up of the bottom control layer: one core's
frequency recorded every tick over a 2-second window, with request start/
end marks and a parameter update (red dashed line in the paper) midway.
Shape to verify: frequency sits at the BaseFreq-interpolated level while
idle, ramps linearly during request processing (slope set by ScalingCoef),
and resets between requests; after the parameter update the floor/slope
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.reporting import sparkline
from ..cpu.dvfs import DEFAULT_TABLE
from ..parallel.grid import RunSpec, run_grid
from ..workload.apps import get_app
from ..workload.trace import constant_trace
from .scenarios import active_profile

__all__ = ["Fig4Result", "run_fig4", "render_fig4", "check_fig4"]


@dataclass(frozen=True)
class Fig4Result:
    times: np.ndarray
    #: Frequency of the observed core at each tick.
    frequency: np.ndarray
    #: (start, end) pairs of requests served by the observed core.
    request_spans: List[Tuple[float, float]]
    #: Times at which the controller parameters were updated.
    param_updates: List[float]
    params_before: Tuple[float, float]
    params_after: Tuple[float, float]


def run_fig4(
    window: float = 2.0,
    params_before: Tuple[float, float] = (0.35, 0.6),
    params_after: Tuple[float, float] = (0.55, 0.9),
    load: float = 0.55,
    seed: int = 2023,
    core_id: int = 0,
    app_name: str = "xapian",
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=True,
) -> Fig4Result:
    """Drive the controller for ``window`` seconds, updating params midway.

    The window scales with the app's time dilation so the recorded trace
    covers the same number of requests as the paper's physical 2 seconds.
    The run is one stored ``controller`` cell, sampled every tick.
    """
    profile = active_profile(full)
    app = get_app(app_name)
    window = window * app.dilation
    update_time = window / 2.0
    spec = RunSpec(
        app_name, "controller",
        constant_trace(app.rps_for_load(load, profile.num_cores), window),
        profile.num_cores, seed,
        policy_kwargs=(
            ("base_freq", params_before[0]),
            ("retune", ((update_time, *params_after),)),
            ("scaling_coef", params_before[1]),
        ),
        extras=("freq_samples", "request_spans"),
    )
    [run] = run_grid([spec], jobs=jobs, cache=result_cache)
    run.unwrap()
    # The run drains past the trace; the figure is the window itself.
    times, freqs = run.extras["freq_samples"]
    in_window = times <= window
    spans = run.extras["request_spans"]
    served = (spans["core"] == core_id) & (spans["finish"] <= window)
    return Fig4Result(
        times=times[in_window],
        frequency=freqs[in_window, core_id],
        request_spans=list(
            zip(spans["start"][served].tolist(), spans["finish"][served].tolist())
        ),
        param_updates=[update_time],
        params_before=params_before,
        params_after=params_after,
    )


def render_fig4(result: Fig4Result) -> str:
    half = len(result.times) // 2
    lines = [
        f"core frequency over {result.times[-1] - result.times[0]:.2f}s "
        f"({len(result.times)} ticks), params {result.params_before} -> "
        f"{result.params_after} at t={result.param_updates[0]:.2f}s",
        "freq: " + sparkline(result.frequency, 100),
        f"requests served on core: {len(result.request_spans)}",
        f"mean freq before update: {result.frequency[:half].mean():.2f} GHz, "
        f"after: {result.frequency[half:].mean():.2f} GHz",
    ]
    return "\n".join(lines)


def check_fig4(result: Fig4Result) -> List[str]:
    """Fig 4's claims that ``result`` fails: every frequency is a DVFS
    level; the idle floor follows BaseFreq and rises with the update; and
    requests are served on the observed core, whose frequency ramps
    during processing (at least 3 levels visited)."""
    table = DEFAULT_TABLE
    freq = result.frequency
    levels = np.unique(freq)
    floor_before = table.quantize(table.from_score(result.params_before[0]))
    floor_after = table.quantize(table.from_score(result.params_after[0]))
    half = len(result.times) // 2
    before, after = freq[:half], freq[half + 1 :]
    claims = [
        ("every frequency is a DVFS table level", all(f in table for f in levels)),
        (f"min frequency before the update {before.min():.2f} GHz >= "
         f"BaseFreq floor {floor_before:.2f} GHz", before.min() >= floor_before - 1e-9),
        (f"min frequency after the update {after.min():.2f} GHz >= "
         f"BaseFreq floor {floor_after:.2f} GHz", after.min() >= floor_after - 1e-9),
        (f"mean frequency after the update {freq[half:].mean():.2f} GHz > "
         f"before {before.mean():.2f} GHz", freq[half:].mean() > before.mean()),
        (f"{len(result.request_spans)} requests served on the core > 3",
         len(result.request_spans) > 3),
        (f"{len(levels)} frequency levels visited >= 3", len(levels) >= 3),
    ]
    return [claim for claim, holds in claims if not holds]
