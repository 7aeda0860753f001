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

Every cell is a stored ``reactive`` grid cell (:func:`reactive_runtime`),
so a warm rerun simulates nothing; ``--trace-dir`` traces each cell
under its :func:`~repro.parallel.grid.grid_trace_path` name.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.reporting import format_table
from ..control import ControlPlaneConfig
from ..core.runtime import DeepPowerRuntime
from ..faults.bus import standard_bus_plan
from ..parallel.grid import RunSpec, run_grid
from ..workload.apps import get_app
from ..workload.trace import WorkloadTrace
from .calibration import CalibrationSpec
from .fig7_main import EVAL_SEED, calibration_target_for, tuned_config
from .scenarios import active_profile, workers_for

__all__ = [
    "SOAK_INTENSITIES",
    "SOAK_LOAD_SHAPE",
    "ReactivePolicy",
    "reactive_runtime",
    "soak_trace",
    "run_soak",
    "render_soak",
    "check_control_soak",
]

#: Default fault-intensity grid (0 = the fault-free reference cell).
SOAK_INTENSITIES = (0.0, 0.5, 1.0)

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


def reactive_runtime(
    ctx, control: ControlPlaneConfig = ControlPlaneConfig()
) -> DeepPowerRuntime:
    """The ``reactive`` grid policy: DeepPower's runtime with a
    :class:`ReactivePolicy` top layer, at the app's tuned config, frozen,
    over the bus ``control`` describes."""
    cfg = replace(tuned_config(ctx.app), train=False, control=control)
    return DeepPowerRuntime(
        ctx.engine, ctx.server, ctx.monitor, ReactivePolicy(), cfg, obs=ctx.obs
    )


def _control_summary(extras: dict) -> dict:
    """Flatten a ``control_stats`` collector's reading into row counters."""
    stats = extras["control"]
    bus = stats["bus"]
    drops = sum(
        ch["dropped_fault"] + ch["dropped_partition"] for ch in bus.values()
    )
    return {
        "drops": drops,
        "sheds": sum(ch["shed"] for ch in bus.values()),
        "retries": stats["loop"]["retries"],
        "stale_windows": stats["loop"]["stale_windows"],
        "degraded_steps": extras["degraded_steps"],
        "escalations": stats["loop"]["safe_escalations"],
        "node_engagements": stats["node"]["safe_engagements"],
        "commands_lost": stats["loop"]["commands_lost"],
    }


def run_soak(
    app_name: str = "xapian",
    intensities: Sequence[float] = SOAK_INTENSITIES,
    seed: int = 7,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=True,
    trace_dir: Optional[str] = None,
) -> dict:
    """Sweep bus-fault intensity: degraded-mode vs ablation.

    Cells per intensity: ``degraded`` (full hardening) and ``ablation``
    (same lossy bus, ``degraded_mode=False``); intensity 0 runs a single
    fault-free ``degraded`` cell.  Each cell is a stored ``reactive``
    :class:`~repro.parallel.grid.RunSpec` whose ``policy_kwargs`` carry
    its :class:`~repro.control.ControlPlaneConfig`; ``seed`` seeds the
    bus fault plan.  Returns a plain-data dict.
    """
    profile = active_profile(full)
    app = get_app(app_name)
    nw = workers_for(app_name, profile.num_cores)
    [cal] = run_grid([CalibrationSpec(
        app_name, soak_trace(profile.trace_duration), profile.num_cores,
        num_workers=nw, target_fraction=calibration_target_for(app_name),
    )], cache=result_cache)
    trace = cal.unwrap().trace
    long_time = tuned_config(app).long_time
    cells = []
    for intensity in sorted(set(float(i) for i in intensities)):
        plan = standard_bus_plan(
            intensity, trace.duration, seed=seed, long_time=long_time
        )
        for mode in ("degraded",) if intensity == 0.0 else ("degraded", "ablation"):
            control = ControlPlaneConfig(
                fault_plan=None if plan.is_empty else plan,
                degraded_mode=(mode != "ablation"),
            )
            cells.append((mode, intensity, RunSpec(
                app_name, "reactive", trace, profile.num_cores, seed=EVAL_SEED,
                num_workers=nw, policy_kwargs=(("control", control),),
                extras=("control_stats",), label=f"soak-{mode}-i{intensity:g}",
            )))
    runs = run_grid(
        [spec for _, _, spec in cells], jobs=jobs, cache=result_cache,
        trace_dir=trace_dir,
    )
    rows = [
        {
            "mode": mode,
            "intensity": intensity,
            "metrics": run.unwrap().as_dict(),
            "control": _control_summary(run.extras["control_stats"]),
            "trace_path": run.spec.trace_out,
        }
        for (mode, intensity, _), run in zip(cells, runs)
    ]
    return {
        "profile": profile.name,
        "app": app_name,
        "seed": seed,
        "sla": app.sla,
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


def check_control_soak(result: dict) -> List[str]:
    """Control-soak's claims that ``result`` fails: degraded mode meets the
    SLA at every intensity; at intensity 1 its bus drops messages and it
    retries, while the no-defence ablation of the same bus misses the SLA;
    on the fault-free bus (intensity 0) no control counter moves."""
    rows = {(r["mode"], r["intensity"]): r for r in result["rows"]}
    needed = (("degraded", 0.0), ("degraded", 1.0), ("ablation", 1.0))
    missing = [f"a row ({mode}, intensity {i:g})" for mode, i in needed if (mode, i) not in rows]
    if missing:
        return missing
    ratio = {cell: row["metrics"]["tail_latency"] / result["sla"] for cell, row in rows.items()}
    lossy = rows["degraded", 1.0]["control"]
    moved = {k: v for k, v in rows["degraded", 0.0]["control"].items() if v}
    claims = [
        (f"degraded p99/SLA {r:.2f}x <= 1 at intensity {i:g}", r <= 1.0)
        for (mode, i), r in ratio.items() if mode == "degraded"
    ] + [
        (f"degraded drops {lossy['drops']} > 0 at intensity 1", lossy["drops"] > 0),
        (f"degraded retries {lossy['retries']} > 0 at intensity 1", lossy["retries"] > 0),
        (f"ablation p99/SLA {ratio['ablation', 1.0]:.2f}x > 1 at intensity 1",
         ratio["ablation", 1.0] > 1.0),
        (f"no control counter moves at intensity 0 (got {moved})", not moved),
    ]
    return [claim for claim, holds in claims if not holds]
