"""Ablation experiments (DESIGN.md §5 extensions, not in the paper's figures).

* **Hierarchy ablation** — remove the thread controller: the DRL agent's
  action is mapped directly to a single frequency applied to all cores for
  the whole ``LongTime`` interval.  Tests the paper's claim (i) that
  fine-grained control is where the extra savings come from.
* **Discrete top layer** — replace DDPG with a DQN over an action grid
  (continuous-vs-discrete top layer).
* **Reward-weight sweep** — vary alpha (energy) and beta (timeout) and
  observe the power/QoS trade-off the paper describes in §4.4.2.
* **ShortTime sweep** — controller tick granularity vs power/QoS.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.reporting import format_table
from ..core.agent import DeepPowerAgent, default_ddpg_config
from ..core.reward import RewardCalculator, RewardConfig, auto_eta_for
from ..core.runtime import DeepPowerConfig
from ..core.state_observer import StateObserver
from ..core.training import TrainSpec, train_agents
from ..parallel.grid import RunSpec, run_grid
from ..rl.dqn import DqnAgent, DqnConfig, action_grid
from ..sim.events import PRIORITY_CONTROL
from ..workload.apps import get_app
from .fig7_main import TUNED_DDPG, fig7_agents, fig7_calibration, tuned_agent_setup
from .runner import run_policy
from .scenarios import active_profile

__all__ = [
    "FlatDrlRuntime",
    "DqnHierarchicalRuntime",
    "run_hierarchy_ablation",
    "run_reward_weight_sweep",
    "run_short_time_sweep",
    "check_hierarchy_ablation",
    "check_short_time_sweep",
]


class FlatDrlRuntime:
    """DRL-direct frequency control: no bottom layer.

    The agent's first action component picks one frequency (score-style
    interpolation, >= 1 means turbo) applied to every worker core for the
    entire DRL interval.  The second component is unused — the action
    space is kept 2-d so the same agent architecture is comparable.
    """

    def __init__(self, engine, server, monitor, agent, config: DeepPowerConfig):
        self.engine = engine
        self.server = server
        self.monitor = monitor
        self.agent = agent
        self.cfg = config
        self.observer = StateObserver(server.num_workers, window=config.long_time)
        pm, table, n = server.cpu.power_model, server.cpu.table, server.cpu.num_cores
        self.reward_calc = RewardCalculator(
            config.reward,
            max_power_watts=pm.socket_power(np.full(n, table.turbo), np.ones(n, dtype=bool)),
            min_power_watts=pm.socket_power(np.full(n, table.fmin), np.zeros(n, dtype=bool)),
            auto_eta=auto_eta_for(server),
        )
        self.records: List = []
        self._prev: Optional[tuple] = None
        self._task = None

    def _apply(self, action: np.ndarray) -> None:
        table = self.server.cpu.table
        score = float(action[0])
        freq = table.turbo if score >= 1.0 else table.from_score(score)
        for w in self.server.workers:
            w.core.set_frequency(freq)

    def start(self) -> None:
        for core in self.server.cpu.cores[self.server.num_workers :]:
            core.set_frequency(self.server.cpu.table.fmin)
        snap = self.server.telemetry.snapshot()
        self.monitor.window_energy()
        s1 = self.observer.observe(snap)
        a1 = self.agent.act(s1, explore=self.cfg.train)
        self._apply(a1)
        self._prev = (s1, a1)
        self._task = self.engine.every(
            self.cfg.long_time, self._step, priority=PRIORITY_CONTROL + 1
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _step(self) -> None:
        snap = self.server.telemetry.snapshot()
        energy = self.monitor.window_energy()
        rb = self.reward_calc.compute(snap, energy)
        s2 = self.observer.observe(snap)
        if self._prev is not None:
            s1, a1 = self._prev
            self.agent.observe(s1, a1, rb.total, s2)
            if self.cfg.train:
                for _ in range(self.cfg.updates_per_step):
                    self.agent.update()
        a2 = self.agent.act(s2, explore=self.cfg.train)
        self._apply(a2)
        self._prev = (s2, a2)


class DqnHierarchicalRuntime:
    """DeepPower's hierarchy with a discrete (DQN) top layer.

    The DQN picks a point on a uniform grid over the (BaseFreq,
    ScalingCoef) box; the thread controller is unchanged.
    """

    def __init__(self, engine, server, monitor, agent: DqnAgent, grid: np.ndarray, config: DeepPowerConfig):
        from ..core.thread_controller import ThreadController

        self.engine = engine
        self.server = server
        self.monitor = monitor
        self.agent = agent
        self.grid = grid
        self.cfg = config
        self.controller = ThreadController(engine, server, short_time=config.short_time)
        self.observer = StateObserver(server.num_workers, window=config.long_time)
        pm, table, n = server.cpu.power_model, server.cpu.table, server.cpu.num_cores
        self.reward_calc = RewardCalculator(
            config.reward,
            max_power_watts=pm.socket_power(np.full(n, table.turbo), np.ones(n, dtype=bool)),
            min_power_watts=pm.socket_power(np.full(n, table.fmin), np.zeros(n, dtype=bool)),
            auto_eta=auto_eta_for(server),
        )
        self._prev: Optional[tuple] = None
        self._task = None

    def start(self) -> None:
        self.controller.start()
        snap = self.server.telemetry.snapshot()
        self.monitor.window_energy()
        s1 = self.observer.observe(snap)
        a1 = self.agent.act(s1, explore=self.cfg.train)
        self.controller.set_params(*self.grid[a1])
        self._prev = (s1, a1)
        self._task = self.engine.every(
            self.cfg.long_time, self._step, priority=PRIORITY_CONTROL + 1
        )

    def stop(self) -> None:
        self.controller.stop()
        if self._task is not None:
            self._task.stop()

    def _step(self) -> None:
        snap = self.server.telemetry.snapshot()
        energy = self.monitor.window_energy()
        rb = self.reward_calc.compute(snap, energy)
        s2 = self.observer.observe(snap)
        if self._prev is not None:
            s1, a1 = self._prev
            self.agent.observe(s1, a1, rb.total, s2)
            if self.cfg.train:
                for _ in range(self.cfg.updates_per_step):
                    self.agent.update()
        a2 = self.agent.act(s2, explore=self.cfg.train)
        self.controller.set_params(*self.grid[a2])
        self._prev = (s2, a2)


@dataclass(frozen=True)
class AblationRow:
    variant: str
    power_watts: float
    p99_over_sla: float
    timeout_rate: float


def _train_and_eval_runtime(runtime_cls, agent_builder, app, trace, profile, episodes, cfg, extra=None):
    """Train a runtime variant episodically, then evaluate frozen."""
    agent = agent_builder()

    def factory(ctx, train):
        c = copy.copy(cfg)
        c.train = train
        args = [ctx.engine, ctx.server, ctx.monitor, agent]
        if extra is not None:
            args.append(extra)
        return runtime_cls(*args, c)

    for ep in range(episodes):
        run_policy(
            lambda ctx: factory(ctx, True),
            app, trace, profile.num_cores, seed=50_000 + ep,
        )
    res = run_policy(
        lambda ctx: factory(ctx, False),
        app, trace, profile.num_cores, seed=60_001,
    )
    return res.metrics


def _row(variant: str, m, sla: float) -> AblationRow:
    return AblationRow(variant, m.avg_power_watts, m.tail_latency / sla, m.timeout_rate)


def _summary(m, sla: float) -> dict:
    return {
        "power": m.avg_power_watts,
        "p99_over_sla": m.tail_latency / sla,
        "timeout_rate": m.timeout_rate,
    }


def _frozen_runs(trace, trainings, jobs, result_cache, overrides=None):
    """Metrics of each trained agent evaluated frozen on ``trace``, one run
    cell each; ``overrides`` holds each cell's ``DeepPowerConfig`` changes."""
    specs = [
        RunSpec(
            t.app, "deeppower", trace, t.num_cores, seed=60_001,
            num_workers=t.num_workers, policy_kwargs=kw, training=t,
        )
        for t, kw in zip(trainings, overrides or [()] * len(trainings))
    ]
    return [out.unwrap() for out in run_grid(specs, jobs=jobs, cache=result_cache)]


def run_hierarchy_ablation(
    app_name: str = "xapian",
    full: Optional[bool] = None,
    seed: int = 7,
    result_cache=True,
) -> List[AblationRow]:
    """DeepPower vs flat DRL vs DQN-hierarchical on one app."""
    profile = active_profile(full)
    app = get_app(app_name)
    [(cal, training)] = fig7_agents([app_name], profile, seed=seed, result_cache=result_cache)
    trace = cal.trace

    # Full DeepPower (the stored agent of the Fig 7 pipeline).
    [m] = _frozen_runs(trace, [training], 1, result_cache)
    rows = [_row("deeppower (hierarchical DDPG)", m, app.sla)]

    # Flat DRL (no thread controller).
    _, cfg = tuned_agent_setup(seed)
    flat_agent_builder = lambda: DeepPowerAgent(
        np.random.default_rng(seed), default_ddpg_config(**TUNED_DDPG)
    )
    m = _train_and_eval_runtime(
        FlatDrlRuntime, flat_agent_builder, app, trace, profile,
        profile.train_episodes, cfg,
    )
    rows.append(_row("flat DRL (no controller)", m, app.sla))

    # DQN top layer over a 5x5 action grid.
    grid = action_grid(2, 5)
    dqn_builder = lambda: DqnAgent(
        DqnConfig(state_dim=8, num_actions=len(grid), epsilon_decay=0.999),
        np.random.default_rng(seed),
    )
    m = _train_and_eval_runtime(
        DqnHierarchicalRuntime, dqn_builder, app, trace, profile,
        profile.train_episodes, cfg, extra=grid,
    )
    rows.append(_row("hierarchical DQN (5x5 grid)", m, app.sla))
    return rows


def run_reward_weight_sweep(
    app_name: str = "xapian",
    alphas: Sequence[float] = (1.0, 2.0, 4.0),
    betas: Sequence[float] = (6.0, 12.0, 24.0),
    full: Optional[bool] = None,
    seed: int = 7,
    jobs: int = 1,
    result_cache=True,
) -> List[dict]:
    """Train small agents under different (alpha, beta) reward weights.

    Each agent is a training cell on its own recipe (``gamma_q`` 0.5, one
    worker per core, the default ``LongTime``), evaluated frozen in a run
    cell; both stages fan out over ``jobs`` processes and are stored.
    """
    profile = active_profile(full)
    app = get_app(app_name)
    trace = fig7_calibration(app_name, profile, result_cache).trace
    weights = [(alpha, beta) for alpha in alphas for beta in betas]
    recipes = [
        TrainSpec(
            app_name, trace, profile.train_episodes, profile.num_cores, seed,
            ddpg=default_ddpg_config(**TUNED_DDPG),
            config=DeepPowerConfig(
                updates_per_step=4,
                reward=RewardConfig(alpha=alpha, beta=beta, gamma_q=0.5),
            ),
            rng_stream=None,
        )
        for alpha, beta in weights
    ]
    trained = train_agents(recipes, jobs=jobs, result_cache=result_cache)
    runs = _frozen_runs(trace, trained, jobs, result_cache)
    return [
        {"alpha": alpha, "beta": beta, **_summary(m, app.sla)}
        for (alpha, beta), m in zip(weights, runs)
    ]


def run_short_time_sweep(
    app_name: str = "xapian",
    multipliers: Sequence[float] = (0.5, 1.0, 4.0, 16.0),
    full: Optional[bool] = None,
    seed: int = 7,
    jobs: int = 1,
    result_cache=True,
) -> List[dict]:
    """Controller-tick granularity sweep with a frozen trained agent."""
    profile = active_profile(full)
    app = get_app(app_name)
    [(cal, training)] = fig7_agents([app_name], profile, seed=seed, result_cache=result_cache)
    short_times = [app.short_time * mult for mult in multipliers]
    runs = _frozen_runs(
        cal.trace, [training] * len(short_times), jobs, result_cache,
        [(("short_time", short_time),) for short_time in short_times],
    )
    return [
        {"short_time_ms": short_time * 1e3, **_summary(m, app.sla)}
        for short_time, m in zip(short_times, runs)
    ]


def render_ablation_rows(rows: List[AblationRow]) -> str:
    return format_table(
        ["variant", "power (W)", "p99/SLA", "timeout"],
        [[r.variant, r.power_watts, r.p99_over_sla, f"{r.timeout_rate:.2%}"] for r in rows],
        "{:.2f}",
    )


def check_hierarchy_ablation(rows: List[AblationRow]) -> List[str]:
    """The hierarchy's claim that ``rows`` fails: the thread controller
    keeps the tail under control where coarse whole-interval frequency
    setting cannot react within the DRL window, so DeepPower's p99/SLA is
    within 0.10 and its timeout rate within 1 point of flat DRL's."""
    by_name = {r.variant.split(" ")[0]: r for r in rows}
    dp, flat = by_name["deeppower"], by_name["flat"]
    claims = [
        (f"DeepPower p99/SLA {dp.p99_over_sla:.2f} <= flat DRL's {flat.p99_over_sla:.2f} + 0.10",
         dp.p99_over_sla <= flat.p99_over_sla + 0.10),
        (f"DeepPower timeouts {dp.timeout_rate:.2%} <= flat DRL's {flat.timeout_rate:.2%} + 1 point",
         dp.timeout_rate <= flat.timeout_rate + 0.01),
    ]
    return [claim for claim, holds in claims if not holds]


def check_short_time_sweep(rows: List[dict]) -> List[str]:
    """The tick-granularity claim that ``rows`` fails: coarser ticks
    degrade the tail, so the coarsest tick's p99/SLA is no better than the
    finest's (within 0.05)."""
    finest, coarsest = rows[0], rows[-1]
    if coarsest["p99_over_sla"] >= finest["p99_over_sla"] - 0.05:
        return []
    return [
        f"coarsest tick ({coarsest['short_time_ms']:g} ms) p99/SLA "
        f"{coarsest['p99_over_sla']:.3f} >= finest ({finest['short_time_ms']:g} ms) "
        f"{finest['p99_over_sla']:.3f} - 0.05"
    ]
