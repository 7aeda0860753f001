"""Control-plane soak: DeepPower over a lossy bus, degraded mode vs ablation.

The tentpole question for the message-bus refactor: does the hardening
actually buy anything?  This experiment sweeps
:func:`~repro.faults.bus.standard_bus_plan` intensity against the same
calibrated-to-SLA workload and compares, at every intensity, the full
degraded-mode controller (stale-telemetry hold, ack retries, safe-mode
escalation, node deadline fallback) with an ablation that runs the same
lossy bus but never defends itself — it trusts whatever reading it last
saw and lets the thread controller free-run on frozen parameters through
partitions.  Intensity 0 is the fault-free reference cell.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.reporting import format_table
from ..control import ControlPlaneConfig
from ..core.runtime import DeepPowerRuntime
from ..faults.bus import standard_bus_plan
from ..obs import Observability, TraceWriter
from ..workload.apps import get_app
from ..workload.trace import WorkloadTrace
from .calibration import calibrate_to_sla
from .fig7_main import (
    EVAL_SEED,
    calibration_target_for,
    fig7_calibration,
    trained_agent,
    tuned_agent_setup,
)
from .runner import run_policy
from .scenarios import active_profile, workers_for

__all__ = [
    "SOAK_INTENSITIES",
    "SOAK_LOAD_SHAPE",
    "SOAK_POLICIES",
    "ReactivePolicy",
    "soak_trace",
    "run_soak",
    "render_soak",
]

#: Default fault-intensity grid (0 = the fault-free reference cell).
SOAK_INTENSITIES = (0.0, 0.5, 1.0)

#: Top-layer policies the soak can drive over the bus.
SOAK_POLICIES = ("reactive", "trained")


class ReactivePolicy:
    """Deterministic load-following policy standing in for a converged agent.

    ``BaseFreq`` tracks the normalised request rate (plus a queue kick for
    transients) — the shape the paper's converged agent exhibits in Fig 8,
    where the frequency floor rides the diurnal load.  ``ScalingCoef``
    rides at a fixed tail-insurance level so in-flight stragglers still
    ramp toward turbo.

    Deliberately *not* learned: the soak measures the control plane, and a
    smoke-profile DDPG agent often collapses to always-turbo, which would
    hide any difference between degraded-mode control and the ablation (a
    frozen turbo action is as good as a fresh one).  A policy whose
    trough/peak contrast is guaranteed keeps the comparison about message
    loss, not learner quality.  It is stateless and exposes the interface
    the runtime expects of an agent (``act``/``observe``/``update``/
    ``state_dict``), so it drops into runtimes and checkpoints alike.
    """

    def __init__(
        self,
        gain: float = 1.1,
        queue_gain: float = 1.0,
        floor: float = 0.15,
        coef: float = 1.0,
    ) -> None:
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        self.gain = float(gain)
        self.queue_gain = float(queue_gain)
        self.floor = float(floor)
        self.coef = float(coef)

    def act(self, state, explore: bool = False) -> np.ndarray:
        load, queue = float(state[0]), float(state[1])
        if load <= 0.0 and queue <= 0.0:
            # Cold start: the first observation predates any traffic.  No
            # information yet, so open at full speed rather than at the
            # floor (the first window may be a rush).
            return np.array([1.0, self.coef])
        base = self.gain * load + self.queue_gain * queue
        return np.array([min(1.0, max(self.floor, base)), self.coef])

    # The runtime feeds transitions / requests updates even in eval mode;
    # a reactive policy has nothing to learn from them.
    def observe(self, *args, **kwargs) -> None:
        return None

    def update(self):
        return None

    def state_dict(self) -> Dict:
        return {"kind": "reactive"}

    def load_state_dict(self, state: Dict) -> None:
        return None


#: Relative load shape of the soak workload: ``(end_fraction,
#: rate_fraction)`` segments.  An early rush pins the observer's load
#: normaliser near the peak, a long deep trough spans the spot where
#: :func:`~repro.faults.bus.standard_bus_plan` opens its main partition
#: (0.60 of the run), and the diurnal peak lands inside that partition —
#: the adversarial-but-realistic case for a controller frozen by message
#: loss: it stops hearing the node right when the load is about to double.
SOAK_LOAD_SHAPE = (
    (0.07, 0.95),
    (0.20, 0.60),
    (0.33, 0.45),
    (0.60, 0.30),
    (0.65, 0.50),
    (0.70, 0.75),
    (0.80, 1.00),
    (0.88, 0.60),
    (1.00, 0.45),
)


def soak_trace(duration: float) -> WorkloadTrace:
    """The (unscaled) trough-then-peak soak workload for ``duration`` s."""
    edges = [0.0]
    rates = []
    for end_frac, rate_frac in SOAK_LOAD_SHAPE:
        edges.append(end_frac * duration)
        rates.append(rate_frac)
    return WorkloadTrace(np.array(edges), np.array(rates))


def _extras(ctx, driver):
    out = {}
    if isinstance(driver, DeepPowerRuntime):
        out["runtime"] = driver
        out["control"] = driver.control_stats()
        out["degraded_steps"] = sum(1 for r in driver.records if r.degraded)
    return out


def _control_summary(stats: dict, degraded_steps: int) -> dict:
    """Flatten ``DeepPowerRuntime.control_stats()`` into row counters."""
    bus = stats["bus"]
    drops = sum(
        ch["dropped_fault"] + ch["dropped_partition"] for ch in bus.values()
    )
    return {
        "drops": drops,
        "sheds": sum(ch["shed"] for ch in bus.values()),
        "retries": stats["loop"]["retries"],
        "stale_windows": stats["loop"]["stale_windows"],
        "degraded_steps": degraded_steps,
        "escalations": stats["loop"]["safe_escalations"],
        "node_engagements": stats["node"]["safe_engagements"],
        "commands_lost": stats["loop"]["commands_lost"],
    }


def run_soak(
    app_name: str = "xapian",
    intensities: Sequence[float] = SOAK_INTENSITIES,
    seed: int = 7,
    full: Optional[bool] = None,
    result_cache=True,
    trace_dir: Optional[str] = None,
    policy: str = "reactive",
) -> dict:
    """Sweep bus-fault intensity: degraded-mode vs ablation.

    Cells per intensity: ``degraded`` (full hardening) and ``ablation``
    (same lossy bus, ``degraded_mode=False``); intensity 0 runs a single
    fault-free ``degraded`` cell.
    ``policy`` picks the top layer: ``reactive`` (default, deterministic
    load-following — see :class:`ReactivePolicy`) or ``trained`` (the
    cached DDPG agent).  Returns a plain-data dict (cache/checkpoint
    friendly).
    """
    if policy not in SOAK_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {SOAK_POLICIES}")
    profile = active_profile(full)
    app = get_app(app_name)
    nw = workers_for(app_name, profile.num_cores)
    cal = calibrate_to_sla(
        app, soak_trace(profile.trace_duration), profile.num_cores,
        num_workers=nw, target_fraction=calibration_target_for(app_name),
        result_cache=result_cache,
    )
    if policy == "trained":
        # The standard fig7 agent, trained on fig7's calibrated diurnal
        # trace; evaluating it on the soak workload doubles as a
        # generalisation check and keeps the agent store shared.
        agent, dp_cfg, _ = trained_agent(
            app_name,
            fig7_calibration(app_name, profile, result_cache=result_cache).trace,
            profile, nw,
            seed=seed, result_cache=result_cache,
        )
        make_agent = lambda: agent  # frozen weights; act is stateless
    else:
        _, dp_cfg = tuned_agent_setup(seed, app=app)
        make_agent = ReactivePolicy
    trace = cal.trace
    dp_cfg = replace(dp_cfg, train=False)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    def run_cell(mode: str, intensity: float):
        plan = standard_bus_plan(
            intensity, trace.duration, seed=seed, long_time=dp_cfg.long_time
        )
        control = ControlPlaneConfig(
            fault_plan=None if plan.is_empty else plan,
            degraded_mode=(mode != "ablation"),
        )
        cfg = replace(dp_cfg, control=control)
        obs = None
        trace_path = None
        if trace_dir is not None:
            trace_path = os.path.join(
                trace_dir, f"soak-{mode}-i{intensity:g}.trace.jsonl"
            )
            obs = Observability(trace=TraceWriter(trace_path))
        cell_agent = make_agent()
        try:
            result = run_policy(
                lambda ctx: DeepPowerRuntime(
                    ctx.engine, ctx.server, ctx.monitor, cell_agent, cfg, obs=ctx.obs
                ),
                app, trace, profile.num_cores,
                seed=EVAL_SEED, num_workers=nw, extras_fn=_extras, obs=obs,
            )
        finally:
            if obs is not None:
                obs.close()
        return result, trace_path

    rows: List[dict] = []

    def add_row(mode: str, intensity: float):
        result, trace_path = run_cell(mode, intensity)
        rows.append({
            "mode": mode,
            "intensity": intensity,
            "metrics": result.metrics.as_dict(),
            "control": _control_summary(
                result.extras["control"], result.extras["degraded_steps"]
            ),
            "trace_path": trace_path,
        })

    for intensity in sorted(set(float(i) for i in intensities)):
        add_row("degraded", intensity)
        if intensity != 0.0:
            add_row("ablation", intensity)

    return {
        "profile": profile.name,
        "app": app_name,
        "seed": seed,
        "sla": app.sla,
        "policy": policy,
        "rows": rows,
    }


def render_soak(result: dict) -> str:
    sla = result["sla"]
    table = []
    for row in result["rows"]:
        m = row["metrics"]
        c = row["control"]
        p99_ratio = m["tail_latency"] / sla
        table.append([
            row["mode"],
            f"{row['intensity']:g}",
            m["avg_power_watts"],
            f"{p99_ratio:.2f}x",
            f"{m['timeout_rate']:.2%}",
            c["drops"],
            c["retries"],
            c["stale_windows"],
            c["escalations"] + c["node_engagements"],
            "yes" if p99_ratio <= 1.0 else "NO",
        ])
    return format_table(
        ["mode", "intensity", "power (W)", "p99/SLA", "timeout",
         "drops", "retries", "stale", "safe", "SLA met"],
        table,
        "{:.2f}",
    )
