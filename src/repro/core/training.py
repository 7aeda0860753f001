"""Training and evaluation entry points for DeepPower (paper §5.2 workflow).

The paper trains the agent online against a long-running workload, saves
the network parameters, then evaluates the frozen policy on a short
workload.  :func:`train_deeppower` runs E episodes of a trace (fresh
simulated stack per episode, shared agent and replay pool — the standard
episodic-training arrangement for a system that must be restartable), and
:func:`evaluate_deeppower` replays the policy deterministically.

Crash safety: with ``checkpoint_dir`` set, training autosaves the complete
learner state (plus episode statistics and, optionally, per-step histories)
every ``checkpoint_every`` episodes through a
:class:`~repro.checkpoint.CheckpointManager`.  A run killed at any point
and re-invoked with ``resume=True`` restores the newest valid snapshot and
continues at the next unfinished episode; because per-episode seeds depend
only on the episode index and the agent snapshot is bit-exact (networks,
optimizer slots, replay pool, noise schedule, RNG stream), the resumed
run's reward/action/frequency histories are bitwise identical to an
uninterrupted run with the same seed.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunResult

from ..checkpoint import CheckpointManager
from ..sim.rng import RngRegistry
from ..workload.apps import AppSpec
from ..workload.trace import WorkloadTrace
from .agent import DeepPowerAgent, default_ddpg_config
from .runtime import DeepPowerConfig, DeepPowerRuntime

__all__ = ["EpisodeStats", "TrainingResult", "train_deeppower", "evaluate_deeppower"]


@dataclass(frozen=True)
class EpisodeStats:
    """Summary of one training episode."""

    episode: int
    total_reward: float
    mean_reward: float
    timeout_rate: float
    avg_power_watts: float
    tail_latency: float
    completed: int


@dataclass
class TrainingResult:
    """Everything :func:`train_deeppower` produces."""

    agent: DeepPowerAgent
    episodes: List[EpisodeStats] = field(default_factory=list)
    #: Per-episode step histories (reward/action/frequency arrays), kept
    #: only when ``keep_histories=True`` — the payload the deterministic-
    #: resume guarantee is stated over.
    histories: List[Dict[str, np.ndarray]] = field(default_factory=list)
    #: Episode index training started at (0 unless resumed).
    resumed_from: int = 0

    def reward_curve(self) -> np.ndarray:
        return np.array([e.mean_reward for e in self.episodes])

    def improved(self) -> bool:
        """Crude learning check: late-half mean reward beats early-half."""
        curve = self.reward_curve()
        if curve.size < 2:
            return False
        half = curve.size // 2
        return float(curve[half:].mean()) >= float(curve[:half].mean())


def _make_runtime_factory(agent: DeepPowerAgent, config: DeepPowerConfig, obs=None):
    def factory(ctx):
        return DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, agent, config, obs=obs
        )

    return factory


def _runtime_extras(ctx, driver):
    return {
        "records": driver.records,
        "freq_trace": driver.controller.trace,
        "controller": driver.controller,
        "runtime": driver,
        "watchdog": driver.watchdog,
    }


def _episode_history(run: "RunResult") -> Dict[str, np.ndarray]:
    """Per-step arrays for one episode (the deterministic-resume payload)."""
    records = run.extras["records"]
    trace = run.extras.get("freq_trace") or []
    return {
        "rewards": np.array(
            [r.reward.total for r in records if r.reward is not None]
        ),
        "actions": (
            np.stack([r.action for r in records]) if records else np.zeros((0, 2))
        ),
        "avg_frequency": np.array([r.avg_frequency for r in records]),
        "core_frequencies": (
            np.stack([p.frequencies for p in trace]) if trace else np.zeros((0, 0))
        ),
        # Degraded-window flags; all-False on a fault-free bus.
        # Part of the resume payload so a run resumed mid-outage must
        # reproduce the outage bookkeeping, not just the learner state.
        "degraded": np.array([r.degraded for r in records], dtype=bool),
    }


_TRAINING_CKPT_KIND = "training"


def train_deeppower(
    app: AppSpec,
    trace: WorkloadTrace,
    episodes: int = 10,
    num_cores: int = 4,
    seed: int = 0,
    agent: Optional[DeepPowerAgent] = None,
    config: Optional[DeepPowerConfig] = None,
    num_workers: Optional[int] = None,
    verbose: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    keep_histories: bool = False,
    obs=None,
    trace_out: Optional[str] = None,
    profile: bool = False,
) -> TrainingResult:
    """Train a DeepPower agent over repeated plays of ``trace``.

    Each episode uses a distinct arrival random stream (``seed`` offset by
    the episode index) so the agent sees stochastic variation of the same
    diurnal pattern, as a live system would across days.

    Parameters
    ----------
    num_workers:
        Worker threads per run (None = one per core), as in
        :func:`~repro.experiments.runner.run_policy`.
    checkpoint_dir:
        Autosave the full training state here every ``checkpoint_every``
        episodes (None = no checkpointing).
    resume:
        Restore the newest valid snapshot from ``checkpoint_dir`` before
        training and continue at the next unfinished episode.  Episodes
        trained after a resume are bitwise identical to the uninterrupted
        same-seed run.
    keep_histories:
        Collect per-step reward/action/frequency arrays for every episode
        on the result (and inside snapshots, so a resumed result still
        carries the full history).
    obs, trace_out, profile:
        Observability: pass a ready :class:`~repro.obs.Observability`
        handle via ``obs`` (caller owns its lifecycle), or give a trace
        path and training builds (and closes) its own.  The trace gets
        ``episode-start`` / ``episode-end`` / ``checkpoint`` events plus
        every per-run event the runtime and runner emit; ``profile`` adds
        its ``span-summary`` and needs ``trace_out``.
    """
    from ..experiments.runner import run_policy  # deferred: avoids core->experiments cycle
    from ..obs import Observability

    if episodes <= 0:
        raise ValueError("episodes must be positive")
    if checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be positive")
    if obs is None and profile and not trace_out:
        raise ValueError("profile needs trace_out: span stats are written into the trace")
    rngs = RngRegistry(seed)
    if agent is None:
        agent = DeepPowerAgent(rngs.get("agent"), default_ddpg_config())
    cfg = copy.copy(config) if config is not None else DeepPowerConfig()
    cfg.train = True

    own_obs = False
    if obs is None and trace_out:
        obs = Observability.from_paths(
            trace_out=trace_out,
            profile=profile,
            meta={"app": app.name, "episodes": episodes, "seed": seed,
                  "num_cores": num_cores, "mode": "train"},
        )
        own_obs = True
    tracer = obs.trace if obs is not None else None

    manager = (
        CheckpointManager(checkpoint_dir, prefix="train") if checkpoint_dir else None
    )
    result = TrainingResult(agent=agent)
    start_ep = 0
    if manager is not None and resume:
        record = manager.load_latest()
        if record is not None and record.meta.get("kind") == _TRAINING_CKPT_KIND:
            agent.load_state_dict(record.state["agent"])
            result.episodes = [
                EpisodeStats(**stats) for stats in record.state["episodes"]
            ]
            result.histories = list(record.state.get("histories") or [])
            start_ep = int(record.state["next_episode"])
            result.resumed_from = start_ep
            if verbose:  # pragma: no cover - console convenience
                print(f"resumed from {record.path} at episode {start_ep}")

    factory = _make_runtime_factory(agent, cfg, obs=obs)
    try:
        for ep in range(start_ep, episodes):
            if tracer is not None:
                tracer.emit("episode-start", episode=ep)
            run = run_policy(
                factory,
                app,
                trace,
                num_cores,
                seed=seed * 10_000 + ep + 1,
                num_workers=num_workers,
                extras_fn=_runtime_extras,
                obs=obs,
            )
            rewards = np.array(
                [r.reward.total for r in run.extras["records"] if r.reward is not None]
            )
            stats = EpisodeStats(
                episode=ep,
                total_reward=float(rewards.sum()) if rewards.size else 0.0,
                mean_reward=float(rewards.mean()) if rewards.size else 0.0,
                timeout_rate=run.metrics.timeout_rate,
                avg_power_watts=run.metrics.avg_power_watts,
                tail_latency=run.metrics.tail_latency,
                completed=run.metrics.completed,
            )
            result.episodes.append(stats)
            if tracer is not None:
                tracer.emit("episode-end", **asdict(stats))
            if keep_histories:
                result.histories.append(_episode_history(run))
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"episode {ep:3d}: reward {stats.mean_reward:8.4f}  "
                    f"power {stats.avg_power_watts:6.1f} W  "
                    f"p99 {stats.tail_latency * 1e3:7.1f} ms  "
                    f"timeout {stats.timeout_rate:6.2%}"
                )
            done = ep + 1
            if manager is not None and (
                done % checkpoint_every == 0 or done == episodes
            ):
                manager.save(
                    {
                        "next_episode": done,
                        "agent": agent.state_dict(),
                        "episodes": [asdict(s) for s in result.episodes],
                        "histories": result.histories if keep_histories else None,
                        "seed": seed,
                    },
                    step=done,
                    meta={"kind": _TRAINING_CKPT_KIND, "app": app.name},
                )
                if tracer is not None:
                    tracer.emit("checkpoint", episode=done, ckpt_kind=_TRAINING_CKPT_KIND)
    finally:
        if own_obs:
            obs.close()
    return result


def evaluate_deeppower(
    agent: DeepPowerAgent,
    app: AppSpec,
    trace: WorkloadTrace,
    num_cores: int = 4,
    seed: int = 12345,
    config: Optional[DeepPowerConfig] = None,
    num_workers: Optional[int] = None,
    keep_requests: bool = False,
    record_freq_trace: bool = False,
    obs=None,
) -> "RunResult":
    """Run a frozen DeepPower policy (no exploration, no updates)."""
    from ..experiments.runner import run_policy  # deferred: avoids core->experiments cycle

    cfg = copy.copy(config) if config is not None else DeepPowerConfig()
    cfg.train = False
    cfg.record_freq_trace = record_freq_trace
    factory = _make_runtime_factory(agent, cfg, obs=obs)
    return run_policy(
        factory,
        app,
        trace,
        num_cores,
        seed=seed,
        num_workers=num_workers,
        keep_requests=keep_requests,
        extras_fn=_runtime_extras,
        obs=obs,
    )
