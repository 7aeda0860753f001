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
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.reporting import format_table
from ..core.agent import DeepPowerAgent, default_ddpg_config
from ..core.reward import RewardCalculator, RewardConfig, auto_eta_for
from ..core.runtime import DeepPowerConfig
from ..core.state_observer import StateObserver
from ..core.training import evaluate_deeppower, train_deeppower
from ..rl.dqn import DqnAgent, DqnConfig, action_grid
from ..sim.events import PRIORITY_CONTROL
from ..workload.apps import get_app
from .calibration import calibrate_to_sla
from .runner import run_policy
from .scenarios import active_profile, evaluation_trace, workers_for

__all__ = [
    "FlatDrlRuntime",
    "DqnHierarchicalRuntime",
    "run_hierarchy_ablation",
    "run_reward_weight_sweep",
    "run_short_time_sweep",
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


def run_hierarchy_ablation(
    app_name: str = "xapian",
    full: Optional[bool] = None,
    seed: int = 7,
    result_cache=True,
) -> List[AblationRow]:
    """DeepPower vs flat DRL vs DQN-hierarchical on one app."""
    from .fig7_main import trained_agent, tuned_agent_setup

    profile = active_profile(full)
    app = get_app(app_name)
    nw = workers_for(app_name, profile.num_cores)
    cal = calibrate_to_sla(
        app, evaluation_trace(profile), profile.num_cores, num_workers=nw
    )
    trace = cal.trace
    rows: List[AblationRow] = []

    # Full DeepPower (stored agent from the Fig 7 pipeline).
    agent, dp_cfg, _ = trained_agent(
        app_name, trace, profile, nw, seed=seed, result_cache=result_cache
    )
    m = evaluate_deeppower(
        agent, app, trace, num_cores=profile.num_cores, seed=60_001, config=dp_cfg,
        num_workers=nw,
    ).metrics
    rows.append(AblationRow("deeppower (hierarchical DDPG)", m.avg_power_watts, m.tail_latency / app.sla, m.timeout_rate))

    # Flat DRL (no thread controller).
    _, cfg = tuned_agent_setup(seed)
    rngs_seed = np.random.default_rng(seed)
    flat_agent_builder = lambda: DeepPowerAgent(
        np.random.default_rng(seed), default_ddpg_config(
            noise_sigma=0.8, noise_decay=0.9997, noise_mu=0.1,
            noise_min_sigma=0.12, gamma=0.95,
        )
    )
    m = _train_and_eval_runtime(
        FlatDrlRuntime, flat_agent_builder, app, trace, profile,
        profile.train_episodes, cfg,
    )
    rows.append(AblationRow("flat DRL (no controller)", m.avg_power_watts, m.tail_latency / app.sla, m.timeout_rate))

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
    rows.append(AblationRow("hierarchical DQN (5x5 grid)", m.avg_power_watts, m.tail_latency / app.sla, m.timeout_rate))
    del rngs_seed
    return rows


def _reward_weight_cell(item: tuple) -> dict:
    """One (alpha, beta) sweep cell: train a fresh agent, evaluate frozen.

    Module-level so the process pool can pickle it; everything the cell
    needs travels in the item tuple.
    """
    app_name, alpha, beta, trace, episodes, num_cores, seed = item
    app = get_app(app_name)
    agent = DeepPowerAgent(
        np.random.default_rng(seed),
        default_ddpg_config(
            noise_sigma=0.8, noise_decay=0.9997, noise_mu=0.1,
            noise_min_sigma=0.12, gamma=0.95,
        ),
    )
    cfg = DeepPowerConfig(
        updates_per_step=4,
        reward=RewardConfig(alpha=alpha, beta=beta, gamma_q=0.5),
    )
    train_deeppower(
        app, trace, episodes=episodes,
        num_cores=num_cores, seed=seed, agent=agent, config=cfg,
    )
    m = evaluate_deeppower(
        agent, app, trace, num_cores=num_cores, seed=60_001, config=cfg,
    ).metrics
    return {
        "alpha": alpha,
        "beta": beta,
        "power": m.avg_power_watts,
        "p99_over_sla": m.tail_latency / app.sla,
        "timeout_rate": m.timeout_rate,
    }


def run_reward_weight_sweep(
    app_name: str = "xapian",
    alphas: Sequence[float] = (1.0, 2.0, 4.0),
    betas: Sequence[float] = (6.0, 12.0, 24.0),
    full: Optional[bool] = None,
    seed: int = 7,
    jobs: int = 1,
) -> List[dict]:
    """Train small agents under different (alpha, beta) reward weights.

    Every cell trains from scratch with its own RNGs, so fanning the sweep
    out over ``jobs`` processes reproduces the serial results exactly.
    """
    from ..parallel import ParallelMap

    profile = active_profile(full)
    app = get_app(app_name)
    nw = workers_for(app_name, profile.num_cores)
    cal = calibrate_to_sla(
        app, evaluation_trace(profile), profile.num_cores, num_workers=nw
    )
    items = [
        (app_name, alpha, beta, cal.trace, profile.train_episodes,
         profile.num_cores, seed)
        for alpha in alphas
        for beta in betas
    ]
    return ParallelMap(jobs=jobs).map_values(_reward_weight_cell, items)


def _short_time_cell(item: tuple) -> dict:
    """One multiplier of the ShortTime sweep, from a saved frozen agent."""
    app_name, agent_path, agent_seed, mult, trace, num_cores, num_workers = item
    from .fig7_main import tuned_agent_setup

    app = get_app(app_name)
    agent, dp_cfg = tuned_agent_setup(agent_seed, app=app)
    agent.load(agent_path)
    cfg = copy.copy(dp_cfg)
    cfg.short_time = app.short_time * mult
    m = evaluate_deeppower(
        agent, app, trace, num_cores=num_cores, seed=60_001, config=cfg,
        num_workers=num_workers,
    ).metrics
    return {
        "short_time_ms": cfg.short_time * 1e3,
        "power": m.avg_power_watts,
        "p99_over_sla": m.tail_latency / app.sla,
        "timeout_rate": m.timeout_rate,
    }


def run_short_time_sweep(
    app_name: str = "xapian",
    multipliers: Sequence[float] = (0.5, 1.0, 4.0, 16.0),
    full: Optional[bool] = None,
    seed: int = 7,
    jobs: int = 1,
    result_cache=True,
) -> List[dict]:
    """Controller-tick granularity sweep with a frozen trained agent."""
    import tempfile

    from ..parallel import ParallelMap
    from .fig7_main import trained_agent

    profile = active_profile(full)
    app = get_app(app_name)
    nw = workers_for(app_name, profile.num_cores)
    cal = calibrate_to_sla(
        app, evaluation_trace(profile), profile.num_cores, num_workers=nw
    )
    agent, _, agent_path = trained_agent(
        app_name, cal.trace, profile, nw, seed=seed, result_cache=result_cache
    )
    # The frozen agent travels to the workers as an .npz file (a temporary
    # copy only when the store is off).
    with tempfile.TemporaryDirectory(prefix="shorttime-") as tmpdir:
        if agent_path is None:
            agent_path = os.path.join(tmpdir, f"{app_name}.npz")
            agent.save(agent_path)
        items = [
            (app_name, agent_path, seed, mult, cal.trace, profile.num_cores, nw)
            for mult in multipliers
        ]
        return ParallelMap(jobs=jobs).map_values(_short_time_cell, items)


def render_ablation_rows(rows: List[AblationRow]) -> str:
    return format_table(
        ["variant", "power (W)", "p99/SLA", "timeout"],
        [[r.variant, r.power_watts, r.p99_over_sla, f"{r.timeout_rate:.2%}"] for r in rows],
        "{:.2f}",
    )
