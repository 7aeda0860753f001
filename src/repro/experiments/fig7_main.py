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

Trained agents and evaluation cells are stored under ``REPRO_CACHE``
(default ``.artifacts/``), keyed by content, so re-running the bench
reuses them.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.agent import DeepPowerAgent, default_ddpg_config
from ..core.reward import RewardConfig
from ..core.runtime import DeepPowerConfig
from ..server.metrics import RunMetrics
from ..sim.rng import RngRegistry
from ..workload.apps import get_app
from .scenarios import ExperimentProfile, active_profile, evaluation_trace, workers_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import RunResultCache
    from .calibration import CalibrationResult

__all__ = [
    "PolicyOutcome",
    "Fig7AppResult",
    "run_fig7",
    "render_fig7",
    "tuned_agent_setup",
    "FIG7_POLICIES",
]

FIG7_POLICIES = ("baseline", "retail", "gemini", "deeppower")
EVAL_SEED = 424242


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


def calibration_target_for(app_name: str) -> float:
    return CALIBRATION_TARGET.get(app_name, DEFAULT_CALIBRATION_TARGET)


def fig7_calibration(
    app_name: str,
    profile: ExperimentProfile,
    result_cache: "bool | RunResultCache | None" = None,
) -> CalibrationResult:
    """The diurnal evaluation trace scaled to ``app_name``'s SLA target.

    Its trace is the one the standard fig7 agent trains on, so every
    experiment that reuses that agent calibrates through here.
    ``result_cache`` stores the result (see :func:`calibrate_to_sla`).
    """
    from .calibration import calibrate_to_sla

    return calibrate_to_sla(
        get_app(app_name), evaluation_trace(profile), profile.num_cores,
        num_workers=workers_for(app_name, profile.num_cores),
        target_fraction=calibration_target_for(app_name),
        result_cache=result_cache,
    )


def tuned_agent_setup(seed: int = 7, app=None):
    """The DDPG/reward configuration tuned for the simulated stack.

    Exploration stays alive long enough (min sigma) for the critic to see
    mid-range actions in healthy states — see DESIGN.md's notes on the
    corner-collapse failure mode.  ``LongTime`` follows the app profile
    (paper §4.6: it "can be changed according to the service time of
    different applications" — Sphinx's second-scale requests need a longer
    decision window to see a meaningful arrival sample).
    """
    rngs = RngRegistry(seed)
    agent = DeepPowerAgent(
        rngs.get("agent"),
        default_ddpg_config(
            noise_sigma=0.8,
            noise_decay=0.9997,
            noise_mu=0.1,
            noise_min_sigma=0.12,
            gamma=0.95,
        ),
    )
    reward_kwargs = dict(alpha=2.0, beta=20.0, gamma_q=0.8)
    if app is not None:
        reward_kwargs.update(REWARD_OVERRIDES.get(app.name, {}))
    cfg = DeepPowerConfig(
        long_time=app.long_time if app is not None else 1.0,
        updates_per_step=4,
        reward=RewardConfig(**reward_kwargs),
    )
    return agent, cfg


def trained_agent(
    app_name: str,
    trace,
    profile: ExperimentProfile,
    num_workers: int,
    seed: int = 7,
    result_cache: "bool | RunResultCache | None" = True,
    verbose: bool = False,
):
    """Train a DeepPower agent for one app, or load it from the store.

    Returns ``(agent, config, path)``.  With ``result_cache`` on, the agent
    lives in the run-result store at ``path``, addressed by its full
    training recipe: app, trace content, episodes, cores, workers, seed,
    both configs and the store's schema version.  A recipe change can
    therefore never load a stale agent, and an unreadable entry is evicted
    and retrained.  With ``result_cache`` off, nothing is read or written
    and ``path`` is None.
    """
    from ..core.training import train_deeppower
    from ..parallel.cache import resolve_cache

    app = get_app(app_name)
    agent, cfg = tuned_agent_setup(seed, app=app)
    cache = resolve_cache(result_cache)
    path = None
    if cache is not None:
        recipe = {
            "kind": "deeppower-agent",
            "app": app_name,
            "trace_edges": trace.edges,
            "trace_rates": trace.rates,
            "episodes": profile.train_episodes,
            "num_cores": profile.num_cores,
            "num_workers": num_workers,
            "seed": seed,
            "agent": agent.cfg,
            "config": cfg,
        }
        path = cache.path_for(cache.key(recipe), ".npz")
        if os.path.exists(path):
            try:
                agent.load(path)
                return agent, cfg, path
            except Exception as exc:  # corrupt/truncated entry -> retrain
                warnings.warn(
                    f"discarding unreadable agent {path!r} ({exc}); retraining",
                    stacklevel=2,
                )
                os.remove(path)
                # The failed load may have partially written network
                # weights; rebuild the agent before training.
                agent, cfg = tuned_agent_setup(seed, app=app)
    train_deeppower(
        app,
        trace,
        episodes=profile.train_episodes,
        num_cores=profile.num_cores,
        num_workers=num_workers,
        seed=seed,
        agent=agent,
        config=cfg,
        verbose=verbose,
    )
    if path is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        agent.save(path)
    return agent, cfg, path


def run_fig7(
    apps: Optional[Sequence[str]] = None,
    full: Optional[bool] = None,
    seed: int = 7,
    verbose: bool = False,
    jobs: int = 1,
    result_cache: "bool | RunResultCache | None" = True,
    trace_dir: Optional[str] = None,
) -> Dict[str, Fig7AppResult]:
    """The full Fig 7 pipeline, staged: calibrate/train per app, then fan
    the whole (app x policy) evaluation grid out at once.

    ``jobs`` fans the evaluation grid over forked worker processes (results
    are bitwise identical to ``jobs=1``: every cell owns its engine and RNG
    stack).  ``result_cache`` stores each calibration and each trained
    agent as soon as it exists and each evaluation cell as soon as it
    finishes, keyed by content; a re-run loads them instead of
    recomputing.  ``False`` reads and writes nothing.  ``trace_dir``
    writes a per-cell JSONL observability trace (traced cells always
    execute; see :func:`repro.parallel.run_grid`).
    """
    from ..parallel import RunSpec, resolve_cache, run_grid

    profile = active_profile(full)
    apps = apps if apps is not None else ("xapian", "masstree", "moses", "sphinx", "img-dnn")
    cache = resolve_cache(result_cache)

    with tempfile.TemporaryDirectory(prefix="fig7-agents-") as tmpdir:
        # Stage 1 (serial): calibrate the workload and train the agent for
        # each app, or load both from the store.  Training dominates
        # wall-clock, so it stays in-process; the agent reaches the
        # evaluation grid as an .npz file (a temporary copy only when the
        # store is off).
        staged = []
        for name in apps:
            nw = workers_for(name, profile.num_cores)
            cal = fig7_calibration(name, profile, result_cache=cache)
            agent, _, agent_path = trained_agent(
                name, cal.trace, profile, nw, seed=seed, result_cache=cache,
                verbose=verbose,
            )
            if agent_path is None:
                agent_path = os.path.join(tmpdir, f"{name}.npz")
                agent.save(agent_path)
            staged.append((name, nw, cal, agent_path))

        # Stage 2: one flat grid of (app x policy) evaluation cells.
        specs: List[RunSpec] = [
            RunSpec(
                app=name,
                policy=pol,
                trace=cal.trace,
                num_cores=profile.num_cores,
                seed=EVAL_SEED,
                num_workers=nw,
                agent_path=agent_path if pol == "deeppower" else None,
                agent_seed=seed,
                label=f"fig7-{profile.name}",
            )
            for name, nw, cal, agent_path in staged
            for pol in FIG7_POLICIES
        ]
        outcomes = iter(run_grid(specs, jobs=jobs, cache=cache, trace_dir=trace_dir))

    results: Dict[str, Fig7AppResult] = {}
    for name, _, cal, _ in staged:
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
