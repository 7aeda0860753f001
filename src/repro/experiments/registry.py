"""Experiment registry: id -> (runner, renderer, claim check).

Maps every table/figure of the paper (plus the extension ablations) to the
code that regenerates it, as indexed in DESIGN.md §4, and to the check of
the paper's claims on its result.  Used by the CLI
(``python -m repro.cli experiment fig7``).
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, List, Optional, Union

__all__ = ["Experiment", "REGISTRY", "get_experiment", "list_experiments"]


class _Resolved:
    """A callable attribute held as itself or as a ``"module:name"`` path,
    imported on first access."""

    def __set_name__(self, owner, name: str) -> None:
        self.attr = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = getattr(obj, self.attr)
        if isinstance(value, str):
            value = _resolve(value)
            setattr(obj, self.attr, value)
        return value


class Experiment:
    """A runnable paper experiment.

    ``run``, ``render`` and ``check`` are callables, or ``"module:name"``
    paths into this package that import their module on first access, so
    listing the registry imports no experiment.  ``check`` (optional)
    takes the run's result and returns the paper claims it fails, one line
    of text each.
    """

    run = _Resolved()
    render = _Resolved()
    check = _Resolved()

    def __init__(
        self,
        id: str,
        description: str,
        run: Union[Callable, str],
        render: Union[Callable, str],
        check: Union[Callable, str, None] = None,
    ) -> None:
        self.id = id
        self.description = description
        self._run = run
        self._render = render
        self._check = check

    def __repr__(self) -> str:
        return f"Experiment({self.id!r}, {self.description!r})"

    def compute(
        self,
        jobs: int = 1,
        result_cache=True,
        trace_dir: Optional[str] = None,
        **kwargs,
    ):
        """Run the experiment and return its result.

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
        return self.run(**kwargs)

    def execute(self, **kwargs) -> str:
        """Run and render to text; takes :meth:`compute`'s arguments."""
        return self.render(self.compute(**kwargs))

    def failed_claims(self, result, full: Optional[bool] = None) -> List[str]:
        """The claims ``check`` finds failed on ``result`` (none without a
        check).

        ``full`` selects the profile whose bounds apply, as it does for
        the run (``None`` reads ``REPRO_FULL``); only checks that declare
        it receive it.
        """
        if self.check is None:
            return []
        if "full" in inspect.signature(self.check).parameters:
            return self.check(result, full=full)
        return self.check(result)


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
        Experiment("fig1", "CDF of service time / mean per app", "fig1_cdf:run_fig1", "fig1_cdf:render_fig1", "fig1_cdf:check_fig1"),
        Experiment("fig2", "relative RMSE heatmap across loads", "fig2_rmse:run_fig2", "fig2_rmse:render_fig2", "fig2_rmse:check_fig2"),
        Experiment("table2", "DRL algorithm inference times", "table2_inference:run_table2", "table2_inference:render_table2", "table2_inference:check_table2"),
        Experiment("table3", "p99 latency at 20/50/70% load", "table3_load_latency:run_table3", "table3_load_latency:render_table3", "table3_load_latency:check_table3"),
        Experiment("fig4", "thread-controller ms-level frequency trace", "fig4_controller:run_fig4", "fig4_controller:render_fig4", "fig4_controller:check_fig4"),
        Experiment("fig5", "scaleFunc shape at eta=100", "fig5_scalefunc:run_fig5", "fig5_scalefunc:render_fig5", "fig5_scalefunc:check_fig5"),
        Experiment("fig6", "diurnal workload trace", "fig6_workload:run_fig6", "fig6_workload:render_fig6", "fig6_workload:check_fig6"),
        Experiment("fig7", "main power/QoS comparison across apps", "fig7_main:run_fig7", "fig7_main:render_fig7", "fig7_main:check_fig7"),
        Experiment("fig8", "DeepPower per-second behaviour on Xapian", "fig8_timeseries:run_fig8", "fig8_timeseries:render_fig8", "fig8_timeseries:check_fig8"),
        Experiment("fig9", "per-core frequency traces, Xapian", "fig9_10_freq_traces:run_fig9", "fig9_10_freq_traces:render_freq_traces", "fig9_10_freq_traces:check_fig9"),
        Experiment("fig10", "per-core frequency traces, Sphinx", "fig9_10_freq_traces:run_fig10", "fig9_10_freq_traces:render_freq_traces", "fig9_10_freq_traces:check_fig10"),
        Experiment("fig11", "fixed-parameter controller behaviour", "fig11_fixed_params:run_fig11", "fig11_fixed_params:render_fig11", "fig11_fixed_params:check_fig11"),
        Experiment("overhead", "framework overhead micro-benchmarks (§5.5)", "overhead:run_overhead", "overhead:render_overhead", "overhead:check_overhead"),
        Experiment("ablation-hierarchy", "hierarchical vs flat vs DQN top layer", "ablations:run_hierarchy_ablation", "ablations:render_ablation_rows", "ablations:check_hierarchy_ablation"),
        Experiment("ablation-reward", "reward weight (alpha, beta) sweep", "ablations:run_reward_weight_sweep", _render_dicts),
        Experiment("ablation-shorttime", "controller tick granularity sweep", "ablations:run_short_time_sweep", _render_dicts, "ablations:check_short_time_sweep"),
        Experiment("robustness-mmpp", "policies under flash-crowd (MMPP) arrivals", "robustness:run_mmpp_robustness", "robustness:render_robustness", "robustness:check_mmpp_robustness"),
        Experiment("fault-tolerance", "policies under injected sensor/actuator faults", "fault_tolerance:run_fault_tolerance", "fault_tolerance:render_fault_tolerance", "fault_tolerance:check_fault_tolerance"),
        Experiment("control-soak", "DeepPower over a lossy control bus: degraded mode vs no-defence ablation", "soak:run_soak", "soak:render_soak", "soak:check_control_soak"),
        Experiment("fleet", "cluster fleet: routing x power policy grid under a global power cap", "fleet:run_fleet", "fleet:render_fleet"),
        Experiment("chaos", "fleet under seeded node failures: fault intensity x routing, failover vs none", "chaos:run_chaos", "chaos:render_chaos", "chaos:check_chaos"),
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
