"""Fig 7: the paper's headline comparison across five Tailbench apps.

For each app: calibrate the diurnal workload so the unmanaged baseline's
p99 sits near the SLA, train a DeepPower agent on the calibrated workload,
then evaluate Baseline / ReTail / Gemini / DeepPower on a held-out seed.

Reported per (app, policy): power + saving vs baseline (Fig 7a), mean and
p99 latency vs SLA (Fig 7b), mean/tail ratio and timeout rate (Fig 7c).

Expected shape versus the paper:
* DeepPower's p99 <= SLA on every app; ReTail/Gemini slightly violate on
  Xapian and Gemini violates badly on Masstree.
* DeepPower's power <= ReTail/Gemini on most apps, all three well below
  baseline; Masstree's relative savings are smallest (half the socket
  hosts no workers, so machine self-power dominates).
* DeepPower's mean/tail ratio is the highest (short requests run slow,
  long requests ramp up).

Calibrations, trained agents and evaluation cells are grid cells stored
under ``REPRO_CACHE`` (default ``.artifacts/``), keyed by content, so
re-running the experiment reuses them.  The helpers here build the standard
calibration and agent recipe that the other single-node experiments
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.agent import DeepPowerAgent, default_ddpg_config
from ..core.reward import RewardConfig
from ..core.runtime import DeepPowerConfig
from ..server.metrics import RunMetrics
from ..sim.rng import RngRegistry
from ..workload.apps import get_app
from .scenarios import ExperimentProfile, active_profile, evaluation_trace, workers_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.training import TrainSpec
    from ..parallel import RunResultCache
    from .calibration import CalibrationResult, CalibrationSpec

__all__ = [
    "PolicyOutcome",
    "Fig7AppResult",
    "run_fig7",
    "render_fig7",
    "check_fig7",
    "TUNED_DDPG",
    "tuned_config",
    "tuned_agent_setup",
    "agent_recipe",
    "fig7_agents",
    "FIG7_POLICIES",
]

FIG7_POLICIES = ("baseline", "retail", "gemini", "deeppower")
EVAL_SEED = 424242
#: Apps whose Fig 7 claims the smoke profile checks: Xapian (ms-scale
#: search with a real tail) and Masstree (the fastest SLA, where Gemini's
#: machinery breaks down).  The full profile checks every app.
SMOKE_CHECKED_APPS = ("xapian", "masstree")


@dataclass(frozen=True)
class PolicyOutcome:
    policy: str
    metrics: RunMetrics
    saving_vs_baseline: float


@dataclass
class Fig7AppResult:
    app: str
    sla: float
    mean_load: float
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)


#: Per-app calibration target (baseline p99 / SLA).  Moses's service-time
#: distribution alone puts its p99 near 0.8x SLA at zero load (Fig 1's 8x
#: tail with SLA = 10x mean), so "close to SLA" for it means ~0.85.
CALIBRATION_TARGET = {"moses": 0.85, "img-dnn": 0.5}
DEFAULT_CALIBRATION_TARGET = 0.7

#: Per-app reward-weight overrides (the paper's §4.4.2 tuning knob: "we can
#: increase the value of beta ... if we find that the tail latency is higher
#: than the SLA metric").  Sphinx's long DRL windows see few arrivals, so the
#: timeout signal needs more weight to cut through the sampling noise.
REWARD_OVERRIDES = {"sphinx": {"beta": 30.0}, "xapian": {"beta": 26.0}}

#: DDPG settings tuned for the simulated stack (over
#: :func:`~repro.core.agent.default_ddpg_config`): exploration stays alive
#: long enough (min sigma) for the critic to see mid-range actions in
#: healthy states — see DESIGN.md's notes on the corner-collapse failure
#: mode.
TUNED_DDPG = dict(
    noise_sigma=0.8, noise_decay=0.9997, noise_mu=0.1, noise_min_sigma=0.12, gamma=0.95,
)


def calibration_target_for(app_name: str) -> float:
    return CALIBRATION_TARGET.get(app_name, DEFAULT_CALIBRATION_TARGET)


def calibration_spec(app_name: str, profile: ExperimentProfile) -> CalibrationSpec:
    """The calibration cell of the diurnal evaluation trace for ``app_name``,
    at its fig7 target."""
    from .calibration import CalibrationSpec

    return CalibrationSpec(
        app_name, evaluation_trace(profile), profile.num_cores,
        num_workers=workers_for(app_name, profile.num_cores),
        target_fraction=calibration_target_for(app_name),
    )


def fig7_calibration(
    app_name: str,
    profile: ExperimentProfile,
    result_cache: "bool | RunResultCache | None" = None,
) -> CalibrationResult:
    """The diurnal evaluation trace scaled to ``app_name``'s SLA target.

    Its trace is the one the standard fig7 agent trains on.
    ``result_cache`` stores the calibration cell (see
    :func:`repro.parallel.run_grid`).
    """
    from ..parallel.grid import run_grid

    return run_grid([calibration_spec(app_name, profile)], cache=result_cache)[0].unwrap()


def tuned_config(app=None) -> DeepPowerConfig:
    """The reward and framework configuration tuned for the simulated stack.

    ``LongTime`` follows the app profile (paper §4.6: it "can be changed
    according to the service time of different applications").
    """
    reward_kwargs = dict(alpha=2.0, beta=20.0, gamma_q=0.8)
    if app is not None:
        reward_kwargs.update(REWARD_OVERRIDES.get(app.name, {}))
    return DeepPowerConfig(
        long_time=app.long_time if app is not None else 1.0,
        updates_per_step=4,
        reward=RewardConfig(**reward_kwargs),
    )


def tuned_agent_setup(seed: int = 7, app=None):
    """A fresh agent with :data:`TUNED_DDPG`, and :func:`tuned_config`."""
    rngs = RngRegistry(seed)
    agent = DeepPowerAgent(rngs.get("agent"), default_ddpg_config(**TUNED_DDPG))
    return agent, tuned_config(app)


def agent_recipe(
    app_name: str,
    trace,
    profile: ExperimentProfile,
    num_workers: int,
    seed: int = 7,
) -> TrainSpec:
    """The training cell of the agent :func:`tuned_agent_setup` builds,
    under :func:`tuned_config`, on ``trace`` for the profile's episodes."""
    from ..core.training import TrainSpec

    return TrainSpec(
        app_name, trace, profile.train_episodes, profile.num_cores, seed,
        ddpg=default_ddpg_config(**TUNED_DDPG),
        config=tuned_config(get_app(app_name)),
        num_workers=num_workers,
    )


def fig7_agents(
    apps: Sequence[str],
    profile: ExperimentProfile,
    seed: int = 7,
    jobs: int = 1,
    result_cache: "bool | RunResultCache | None" = None,
) -> List[Tuple[CalibrationResult, TrainSpec]]:
    """Calibrate each app's workload, then train its standard agent on it.

    Two grid stages over ``jobs`` workers: every calibration cell, then
    every training cell; both are stored in ``result_cache``.  Returns
    ``(calibration, trained spec)`` per app, in order.
    """
    from ..core.training import train_agents
    from ..parallel.grid import run_grid

    specs = [calibration_spec(name, profile) for name in apps]
    cals = [out.unwrap() for out in run_grid(specs, jobs=jobs, cache=result_cache)]
    recipes = [
        agent_recipe(spec.app, cal.trace, profile, spec.num_workers, seed=seed)
        for spec, cal in zip(specs, cals)
    ]
    return list(zip(cals, train_agents(recipes, jobs=jobs, result_cache=result_cache)))


def run_fig7(
    apps: Optional[Sequence[str]] = None,
    full: Optional[bool] = None,
    seed: int = 7,
    jobs: int = 1,
    result_cache: "bool | RunResultCache | None" = True,
    trace_dir: Optional[str] = None,
) -> Dict[str, Fig7AppResult]:
    """The full Fig 7 pipeline in three grid stages: calibrate every app,
    train every app's agent, then evaluate the whole (app x policy) grid.

    ``jobs`` fans each stage over forked worker processes (results are
    bitwise identical to ``jobs=1``: every cell owns its engine and RNG
    stack).  ``result_cache`` stores each cell as soon as it finishes,
    keyed by content; a re-run loads them instead of recomputing.
    ``False`` reads and writes nothing.  ``trace_dir`` writes a per-cell
    JSONL observability trace of the evaluation grid (traced cells always
    execute; see :func:`repro.parallel.run_grid`).
    """
    from ..parallel import RunSpec, run_grid

    profile = active_profile(full)
    apps = apps if apps is not None else ("xapian", "masstree", "moses", "sphinx", "img-dnn")
    staged = fig7_agents(apps, profile, seed=seed, jobs=jobs, result_cache=result_cache)
    specs: List[RunSpec] = [
        RunSpec(
            app=training.app,
            policy=pol,
            trace=cal.trace,
            num_cores=profile.num_cores,
            seed=EVAL_SEED,
            num_workers=training.num_workers,
            training=training if pol == "deeppower" else None,
            label=f"fig7-{profile.name}",
        )
        for cal, training in staged
        for pol in FIG7_POLICIES
    ]
    outcomes = iter(run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir))

    results: Dict[str, Fig7AppResult] = {}
    for name, (cal, _) in zip(apps, staged):
        runs: Dict[str, RunMetrics] = {
            pol: next(outcomes).unwrap() for pol in FIG7_POLICIES
        }
        app_res = Fig7AppResult(app=name, sla=get_app(name).sla, mean_load=cal.mean_load)
        base_power = runs["baseline"].avg_power_watts
        for pol, m in runs.items():
            app_res.outcomes[pol] = PolicyOutcome(
                policy=pol,
                metrics=m,
                saving_vs_baseline=1.0 - m.avg_power_watts / base_power,
            )
        results[name] = app_res
    return results


def _fmt_or_na(value: float, fmt: str) -> str:
    """Format, rendering the NaN of a degenerate (zero-completion) run as n/a."""
    return "n/a" if value != value else fmt.format(value)


def render_fig7(results: Dict[str, Fig7AppResult]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for name, ar in results.items():
        for pol in FIG7_POLICIES:
            if pol not in ar.outcomes:
                continue
            o = ar.outcomes[pol]
            m = o.metrics
            rows.append(
                [
                    name,
                    pol,
                    m.avg_power_watts,
                    f"{o.saving_vs_baseline:.1%}",
                    _fmt_or_na(m.mean_latency * 1e3, "{:.2f}"),
                    _fmt_or_na(m.tail_latency * 1e3, "{:.2f}"),
                    _fmt_or_na(m.tail_latency / ar.sla, "{:.2f}x"),
                    _fmt_or_na(m.mean_tail_ratio, "{:.2f}"),
                    _fmt_or_na(m.timeout_rate, "{:.2%}"),
                ]
            )
    return format_table(
        [
            "app", "policy", "power(W)", "saving", "mean(ms)", "p99(ms)",
            "p99/SLA", "mean/tail", "timeout",
        ],
        rows,
        "{:.2f}",
    )


def check_fig7(results: Dict[str, Fig7AppResult], full: Optional[bool] = None) -> List[str]:
    """Fig 7's claims that ``results`` fails, on ``SMOKE_CHECKED_APPS`` at
    the smoke profile and on every app at full.

    Fig 7a: every manager saves power against the baseline.  Fig 7b:
    DeepPower's p99 stays within 1.25x the SLA at smoke, whose agents
    train for only a few episodes, and 1.15x at full, where agents still
    ride the boundary within seed noise; and within 1.10x the best
    prediction baseline's p99.  Fig 7c: DeepPower times out least among
    the managers, within 1 point of small-sample noise.
    """
    profile = active_profile(full)
    slack = 1.15 if profile.is_full else 1.25
    claims = []
    for name in results if profile.is_full else SMOKE_CHECKED_APPS:
        ar = results[name]
        m = {pol: o.metrics for pol, o in ar.outcomes.items()}
        base, dp = m["baseline"], m["deeppower"]
        claims += [
            (f"{name}: {pol} power {m[pol].avg_power_watts:.2f} W < baseline "
             f"{base.avg_power_watts:.2f} W", m[pol].avg_power_watts < base.avg_power_watts)
            for pol in ("retail", "gemini", "deeppower")
        ]
        best_tail = min(m["retail"].tail_latency, m["gemini"].tail_latency)
        best_timeouts = min(m["retail"].timeout_rate, m["gemini"].timeout_rate)
        claims += [
            (f"{name}: DeepPower p99/SLA {dp.tail_latency / ar.sla:.2f}x <= {slack}x",
             dp.tail_latency <= ar.sla * slack),
            (f"{name}: DeepPower p99 {dp.tail_latency * 1e3:.2f} ms <= 1.10 x the best "
             f"manager's {best_tail * 1e3:.2f} ms", dp.tail_latency <= best_tail * 1.10),
            (f"{name}: DeepPower timeouts {dp.timeout_rate:.2%} <= the best manager's "
             f"{best_timeouts:.2%} + 1 point", dp.timeout_rate <= best_timeouts + 0.01),
        ]
    return [claim for claim, holds in claims if not holds]
