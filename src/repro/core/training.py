"""Training and evaluation entry points for DeepPower (paper §5.2 workflow).

The paper trains the agent online against a long-running workload, saves
the network parameters, then evaluates the frozen policy on a short
workload.  :func:`train_deeppower` runs E episodes of a trace (fresh
simulated stack per episode, shared agent and replay pool — the standard
episodic-training arrangement for a system that must be restartable); a
DeepPower :class:`~repro.parallel.RunSpec` replays the trained policy
deterministically.

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

Experiments train their agents as :class:`TrainSpec` grid cells.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunResult

from ..checkpoint import CheckpointManager
from ..rl.ddpg import DdpgConfig
from ..sim.rng import RngRegistry
from ..workload.apps import AppSpec, get_app
from ..workload.trace import WorkloadTrace
from .agent import DeepPowerAgent, default_ddpg_config
from .runtime import DeepPowerConfig, DeepPowerRuntime

__all__ = [
    "EpisodeStats", "TrainingResult", "TrainSpec", "train_agents", "train_deeppower",
]


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


def _make_runtime_factory(agent: DeepPowerAgent, config: DeepPowerConfig, obs=None, freqs=False):
    """``(factory, extras_fn)``: the runtime, then its step records and,
    with ``freqs``, the ``freq_samples`` grid collector's reading."""
    from ..parallel.grid import EXTRAS_COLLECTORS

    readers = {}

    def factory(ctx):
        driver = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, config, obs=obs)
        if freqs:
            readers["freq_samples"] = EXTRAS_COLLECTORS["freq_samples"](ctx)
        return driver

    def extras(ctx, driver):
        return {"records": driver.records, **{k: read(driver) for k, read in readers.items()}}

    return factory, extras


def _episode_history(run: "RunResult") -> Dict[str, np.ndarray]:
    """Per-step arrays for one episode (the deterministic-resume payload)."""
    records = run.extras["records"]
    return {
        "rewards": np.array(
            [r.reward.total for r in records if r.reward is not None]
        ),
        "actions": (
            np.stack([r.action for r in records]) if records else np.zeros((0, 2))
        ),
        "avg_frequency": np.array([r.avg_frequency for r in records]),
        # Worker-core frequencies every ShortTime, (ticks, workers).
        "core_frequencies": run.extras["freq_samples"][1],
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
        Collect per-step reward/action/frequency arrays and the per-tick
        worker-core frequencies for every episode on the result (and
        inside snapshots, so a resumed result still carries the full
        history).
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

    factory, extras_fn = _make_runtime_factory(agent, cfg, obs=obs, freqs=keep_histories)
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
                extras_fn=extras_fn,
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


@dataclass(frozen=True)
class TrainSpec:
    """One DeepPower agent's training recipe, as a grid cell.

    :func:`~repro.parallel.run_grid` trains it (in a forked worker when
    ``jobs > 1``, bitwise equal to training in-process) and stores the
    agent's network arrays, keyed on every field but ``arrays``, which
    holds them once trained (see :func:`train_agents`).  A DeepPower
    ``RunSpec`` evaluates :meth:`agent` under ``config``.
    """

    app: str
    trace: WorkloadTrace
    episodes: int
    num_cores: int
    seed: int
    ddpg: DdpgConfig
    config: DeepPowerConfig
    num_workers: Optional[int] = None
    #: The agent's generator: this stream of ``RngRegistry(seed)``, or
    #: ``np.random.default_rng(seed)`` when None.
    rng_stream: Optional[str] = "agent"
    arrays: Optional[Dict[str, Dict[str, np.ndarray]]] = field(
        default=None, compare=False, repr=False
    )

    #: Training runs DeepPower, untraced.
    policy = "deeppower"
    label = ""
    trace_out = None

    def fresh_agent(self) -> DeepPowerAgent:
        """The untrained agent this recipe starts from."""
        rng = (
            RngRegistry(self.seed).get(self.rng_stream)
            if self.rng_stream is not None
            else np.random.default_rng(self.seed)
        )
        return DeepPowerAgent(rng, copy.copy(self.ddpg))

    def agent(self) -> DeepPowerAgent:
        """The trained agent: a fresh one loaded with ``arrays``."""
        if self.arrays is None:
            raise ValueError("TrainSpec has no arrays; train it with train_agents")
        agent = self.fresh_agent()
        agent.load_network_arrays(self.arrays)
        return agent

    def execute(self) -> Tuple[Dict[str, Dict[str, np.ndarray]], Dict[str, Any]]:
        agent = self.fresh_agent()
        train_deeppower(
            get_app(self.app), self.trace, episodes=self.episodes,
            num_cores=self.num_cores, num_workers=self.num_workers, seed=self.seed,
            agent=agent, config=self.config,
        )
        return agent.network_arrays(), {}

    def imports(self) -> Tuple[str, ...]:
        return ("repro.experiments.runner", "repro.core.training")

    def cache_payload(self) -> dict:
        return {"kind": "deeppower-agent", "recipe": replace(self, arrays=None)}


def train_agents(
    specs: Sequence[TrainSpec], jobs: int = 1, result_cache=None
) -> List[TrainSpec]:
    """The specs, in order, with their ``arrays`` trained over ``jobs``
    workers or loaded from the store."""
    from ..parallel.grid import run_grid

    return [
        replace(out.spec, arrays=out.unwrap())
        for out in run_grid(specs, jobs=jobs, cache=result_cache)
    ]
