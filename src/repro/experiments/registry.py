"""Experiment registry: id -> (runner, renderer).

Maps every table/figure of the paper (plus the extension ablations) to the
code that regenerates it, as indexed in DESIGN.md §4.  Used by the CLI
(``python -m repro.cli experiment fig7``) and by the benchmarks.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, Optional, Union

__all__ = ["Experiment", "REGISTRY", "get_experiment", "list_experiments"]


class Experiment:
    """A runnable paper experiment.

    ``run`` and ``render`` are callables, or ``"module:name"`` paths into
    this package that import their module on first access, so listing
    the registry imports no experiment.
    """

    def __init__(
        self,
        id: str,
        description: str,
        run: Union[Callable, str],
        render: Union[Callable, str],
    ) -> None:
        self.id = id
        self.description = description
        self._run = run
        self._render = render

    @property
    def run(self) -> Callable:
        if isinstance(self._run, str):
            self._run = _resolve(self._run)
        return self._run

    @property
    def render(self) -> Callable:
        if isinstance(self._render, str):
            self._render = _resolve(self._render)
        return self._render

    def __repr__(self) -> str:
        return f"Experiment({self.id!r}, {self.description!r})"

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


def _resolve(path: str) -> Callable:
    module, name = path.split(":")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _render_dicts(rows) -> str:
    from ..analysis.reporting import format_table

    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    return format_table(headers, [[r[h] for h in headers] for r in rows], "{:.3f}")


REGISTRY: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig1", "CDF of service time / mean per app", "fig1_cdf:run_fig1", "fig1_cdf:render_fig1"),
        Experiment("fig2", "relative RMSE heatmap across loads", "fig2_rmse:run_fig2", "fig2_rmse:render_fig2"),
        Experiment("table2", "DRL algorithm inference times", "table2_inference:run_table2", "table2_inference:render_table2"),
        Experiment("table3", "p99 latency at 20/50/70% load", "table3_load_latency:run_table3", "table3_load_latency:render_table3"),
        Experiment("fig4", "thread-controller ms-level frequency trace", "fig4_controller:run_fig4", "fig4_controller:render_fig4"),
        Experiment("fig5", "scaleFunc shape at eta=100", "fig5_scalefunc:run_fig5", "fig5_scalefunc:render_fig5"),
        Experiment("fig6", "diurnal workload trace", "fig6_workload:run_fig6", "fig6_workload:render_fig6"),
        Experiment("fig7", "main power/QoS comparison across apps", "fig7_main:run_fig7", "fig7_main:render_fig7"),
        Experiment("fig8", "DeepPower per-second behaviour on Xapian", "fig8_timeseries:run_fig8", "fig8_timeseries:render_fig8"),
        Experiment("fig9", "per-core frequency traces, Xapian", "fig9_10_freq_traces:run_fig9", "fig9_10_freq_traces:render_freq_traces"),
        Experiment("fig10", "per-core frequency traces, Sphinx", "fig9_10_freq_traces:run_fig10", "fig9_10_freq_traces:render_freq_traces"),
        Experiment("fig11", "fixed-parameter controller behaviour", "fig11_fixed_params:run_fig11", "fig11_fixed_params:render_fig11"),
        Experiment("overhead", "framework overhead micro-benchmarks (§5.5)", "overhead:run_overhead", "overhead:render_overhead"),
        Experiment("ablation-hierarchy", "hierarchical vs flat vs DQN top layer", "ablations:run_hierarchy_ablation", "ablations:render_ablation_rows"),
        Experiment("ablation-reward", "reward weight (alpha, beta) sweep", "ablations:run_reward_weight_sweep", _render_dicts),
        Experiment("ablation-shorttime", "controller tick granularity sweep", "ablations:run_short_time_sweep", _render_dicts),
        Experiment("robustness-mmpp", "policies under flash-crowd (MMPP) arrivals", "robustness:run_mmpp_robustness", "robustness:render_robustness"),
        Experiment("fault-tolerance", "policies under injected sensor/actuator faults", "fault_tolerance:run_fault_tolerance", "fault_tolerance:render_fault_tolerance"),
        Experiment("control-soak", "DeepPower over a lossy control bus: degraded mode vs no-defence ablation", "soak:run_soak", "soak:render_soak"),
        Experiment("fleet", "cluster fleet: routing x power policy grid under a global power cap", "fleet:run_fleet", "fleet:render_fleet"),
        Experiment("chaos", "fleet under seeded node failures: fault intensity x routing, failover vs none", "chaos:run_chaos", "chaos:render_chaos"),
        Experiment("hier", "hierarchical fleet RL: learned vs heuristic budget coordinator vs uncapped", "hier:run_hier", "hier:render_hier"),
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
