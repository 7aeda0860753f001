"""Experiment registry: id -> (runner, renderer).

Maps every table/figure of the paper (plus the extension ablations) to the
code that regenerates it, as indexed in DESIGN.md §4.  Used by the CLI
(``python -m repro.cli experiment fig7``) and by the benchmarks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from .ablations import (
    render_ablation_rows,
    run_hierarchy_ablation,
    run_reward_weight_sweep,
    run_short_time_sweep,
)
from .fig1_cdf import render_fig1, run_fig1
from .fig2_rmse import render_fig2, run_fig2
from .fig4_controller import render_fig4, run_fig4
from .fig5_scalefunc import render_fig5, run_fig5
from .fig6_workload import render_fig6, run_fig6
from .fig7_main import render_fig7, run_fig7
from .fig8_timeseries import render_fig8, run_fig8
from .fig9_10_freq_traces import render_freq_traces, run_freq_traces
from .fig11_fixed_params import render_fig11, run_fig11
from .chaos import render_chaos, run_chaos
from .fault_tolerance import render_fault_tolerance, run_fault_tolerance
from .fleet import render_fleet, run_fleet
from .hier import render_hier, run_hier
from .overhead import render_overhead, run_overhead
from .robustness import render_robustness, run_mmpp_robustness
from .soak import render_soak, run_soak
from .table2_inference import render_table2, run_table2
from .table3_load_latency import render_table3, run_table3
from ..analysis.reporting import format_table

__all__ = ["Experiment", "REGISTRY", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Experiment:
    """A runnable paper experiment."""

    id: str
    description: str
    run: Callable
    render: Callable

    def execute(
        self,
        jobs: int = 1,
        result_cache=True,
        trace_dir: Optional[str] = None,
        **kwargs,
    ) -> str:
        """Run and render to text.

        ``jobs``, ``result_cache`` and ``trace_dir`` are forwarded only to
        run functions that declare the corresponding parameter: ``jobs``
        fans independent runs over worker processes, ``result_cache``
        (default on; ``False`` disables, or pass a
        :class:`~repro.parallel.RunResultCache`) reuses content-addressed
        run results and trained agents under ``REPRO_CACHE``, and
        ``trace_dir`` writes per-run JSONL observability traces there.
        """
        run_params = inspect.signature(self.run).parameters
        if "jobs" in run_params:
            kwargs.setdefault("jobs", jobs)
        if "result_cache" in run_params:
            from ..parallel import resolve_cache

            kwargs.setdefault("result_cache", resolve_cache(result_cache))
        if trace_dir is not None and "trace_dir" in run_params:
            kwargs.setdefault("trace_dir", trace_dir)
        return self.render(self.run(**kwargs))


def _render_dicts(rows) -> str:
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    return format_table(headers, [[r[h] for h in headers] for r in rows], "{:.3f}")


REGISTRY: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig1", "CDF of service time / mean per app", run_fig1, render_fig1),
        Experiment("fig2", "relative RMSE heatmap across loads", run_fig2, render_fig2),
        Experiment("table2", "DRL algorithm inference times", run_table2, render_table2),
        Experiment("table3", "p99 latency at 20/50/70% load", run_table3, render_table3),
        Experiment("fig4", "thread-controller ms-level frequency trace", run_fig4, render_fig4),
        Experiment("fig5", "scaleFunc shape at eta=100", run_fig5, render_fig5),
        Experiment("fig6", "diurnal workload trace", run_fig6, render_fig6),
        Experiment("fig7", "main power/QoS comparison across apps", run_fig7, render_fig7),
        Experiment("fig8", "DeepPower per-second behaviour on Xapian", run_fig8, render_fig8),
        Experiment("fig9", "per-core frequency traces, Xapian", partial(run_freq_traces, app_name="xapian"), render_freq_traces),
        Experiment("fig10", "per-core frequency traces, Sphinx", partial(run_freq_traces, app_name="sphinx"), render_freq_traces),
        Experiment("fig11", "fixed-parameter controller behaviour", run_fig11, render_fig11),
        Experiment("overhead", "framework overhead micro-benchmarks (§5.5)", run_overhead, render_overhead),
        Experiment("ablation-hierarchy", "hierarchical vs flat vs DQN top layer", run_hierarchy_ablation, render_ablation_rows),
        Experiment("ablation-reward", "reward weight (alpha, beta) sweep", run_reward_weight_sweep, _render_dicts),
        Experiment("ablation-shorttime", "controller tick granularity sweep", run_short_time_sweep, _render_dicts),
        Experiment("robustness-mmpp", "policies under flash-crowd (MMPP) arrivals", run_mmpp_robustness, render_robustness),
        Experiment("fault-tolerance", "policies under injected sensor/actuator faults", run_fault_tolerance, render_fault_tolerance),
        Experiment("control-soak", "DeepPower over a lossy control bus: degraded mode vs no-defence ablation", run_soak, render_soak),
        Experiment("fleet", "cluster fleet: routing x power policy grid under a global power cap", run_fleet, render_fleet),
        Experiment("chaos", "fleet under seeded node failures: fault intensity x routing, failover vs none", run_chaos, render_chaos),
        Experiment("hier", "hierarchical fleet RL: learned vs heuristic budget coordinator vs uncapped", run_hier, render_hier),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {', '.join(sorted(REGISTRY))}"
        ) from None


def list_experiments():
    return sorted(REGISTRY.values(), key=lambda e: e.id)
