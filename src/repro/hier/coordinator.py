"""The learned budget coordinator: fleet agent on top, DVFS caps below.

:class:`LearnedBudgetCoordinator` subclasses
:class:`~repro.cluster.powercap.PowerCapCoordinator` and overrides exactly
one decision — :meth:`apportion`, the pure budget-splitting function —
with the fleet agent's action.  Everything downstream is inherited
unchanged: targets still become per-node frequency ceilings through
``_ceiling_for``, parked (down/recovering) nodes are still pinned to the
floor level, and over-budget actions are scaled down above the floors
before any ceiling is chosen, so the facility cap stays guaranteed by
construction no matter what the network emits.

Per coordination window the coordinator

1. builds the fleet observation (:class:`~repro.hier.obs.FleetObserver`),
2. closes the previous transition with the window reward
   ``-(energy_weight * fleet_power/budget + sla_weight * timeout_frac)``
   and (in train mode) runs one learner update,
3. queries the agent for the next action — one budget share per node,
4. lets the inherited ``_decide`` enforce it and emits a
   ``coordinator-decision`` trace event.

Membership changes (chaos: node crash/restart) re-apportion *the held
action* immediately — no agent query, no RNG draw — so failover behaviour
matches the heuristic coordinator's event-for-event, and before the first
window the inherited heuristic apportioning serves as the fallback.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..cluster.node import ClusterNode
from ..cluster.powercap import PowerCapCoordinator
from ..sim.engine import Engine
from .agent import FleetAgent
from .config import HierConfig
from .obs import FleetObserver
from .replay import SharedReplay, federated_average

__all__ = ["LearnedBudgetCoordinator"]


class LearnedBudgetCoordinator(PowerCapCoordinator):
    """A :class:`PowerCapCoordinator` whose apportioning is a policy network.

    Parameters
    ----------
    engine, nodes, budget_watts, trace:
        As for the base coordinator.
    agent:
        The :class:`~repro.hier.agent.FleetAgent` (its ``num_nodes`` must
        match this fleet).
    config:
        The :class:`~repro.hier.config.HierConfig` describing the layer.
    sla:
        Application SLA (seconds) — scales the observation's p99 feature
        and classifies window timeouts for the reward.
    """

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[ClusterNode],
        budget_watts: float,
        agent: FleetAgent,
        config: HierConfig,
        sla: float,
        trace: Any = None,
    ) -> None:
        super().__init__(engine, nodes, budget_watts, trace=trace)
        n = len(self.nodes)
        if agent.num_nodes != n:
            raise ValueError(
                f"fleet agent manages {agent.num_nodes} nodes, fleet has {n}"
            )
        self.agent = agent
        self.config = config
        self.observer = FleetObserver(self.nodes, sla, self._cap)
        #: Optional :class:`SharedReplay` pooling the node agents'
        #: transitions; set by the wiring layer after binding.
        self.shared_replay: Optional[SharedReplay] = None
        self.decisions = 0
        self.fed_rounds = 0
        self._last_action: Optional[np.ndarray] = None
        self._pending: Optional[tuple] = None
        self._last_reward: Optional[float] = None
        self._completed_seen = np.zeros(n, dtype=np.int64)
        self._timeouts_seen = np.zeros(n, dtype=np.int64)

    # ---------------------------------------------------------------- learning

    def _window_reward(self, powers: np.ndarray) -> float:
        """Reward for the window that just ended (cursors advance)."""
        completed = np.array(
            [n.server.metrics.completed for n in self.nodes], dtype=np.int64
        )
        timeouts = np.array(
            [n.server.metrics.timeouts for n in self.nodes], dtype=np.int64
        )
        d_completed = int((completed - self._completed_seen).sum())
        d_timeouts = int((timeouts - self._timeouts_seen).sum())
        self._completed_seen = completed
        self._timeouts_seen = timeouts
        timeout_frac = d_timeouts / d_completed if d_completed > 0 else 0.0
        energy_term = float(powers.sum()) / self.budget_watts
        return -(
            self.config.energy_weight * energy_term
            + self.config.sla_weight * timeout_frac
        )

    # ------------------------------------------------------------ coordination

    def _decide(self, powers: np.ndarray, reason: str) -> None:
        if reason == "window":
            obs = self.observer.observe(powers)
            if self._pending is not None:
                prev_obs, prev_action = self._pending
                reward = self._window_reward(powers)
                self._last_reward = reward
                self.agent.observe(prev_obs, prev_action, reward, obs)
                if self.config.train and self.agent.ready:
                    self.agent.update()
            else:
                # Prime the QoS cursors so the first closed transition's
                # timeout fraction covers exactly one window.
                self._window_reward(powers)
            action = self.agent.act(obs, explore=self.config.train)
            self._pending = (obs, action)
            self._last_action = action
            self.decisions += 1
            if (
                self.config.fed_avg_every > 0
                and self.shared_replay is not None
                and self.decisions % self.config.fed_avg_every == 0
                and federated_average(self.shared_replay.bound_agents) > 0
            ):
                self.fed_rounds += 1
        # Inherited enforcement: calls the overridden apportion(), pins
        # parked nodes, applies ceilings, records/emits the cap window.
        super()._decide(powers, reason)
        if self.trace is not None:
            self.trace.emit(
                "coordinator-decision",
                t=self.engine.now,
                decision=self.decisions,
                reason=reason,
                learned=self._last_action is not None,
                action=(
                    [float(a) for a in self._last_action]
                    if self._last_action is not None
                    else None
                ),
                reward=self._last_reward,
                train=self.config.train,
                updates=self.agent.updates,
                fed_rounds=self.fed_rounds,
            )

    def apportion(
        self, powers: np.ndarray, live: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Learned budget split; heuristic before the first agent action.

        Each live node's target is ``floor + a * (cap - floor)`` with
        ``a`` the agent's [0, 1] budget share for that node.  Down nodes
        get their parked all-idle-at-fmin draw, and live targets are
        scaled down above the floors when they oversubscribe the remaining
        budget — the same over-budget guarantee as the heuristic.  Unlike
        the heuristic there is *no* upward headroom redistribution: spare
        watts the agent did not ask for stay unspent, which is exactly the
        frugality a learned apportioner can exploit.
        """
        if self._last_action is None:
            return super().apportion(powers, live)
        share = np.clip(self._last_action, 0.0, 1.0)
        wanted = self._floor + share * (self._cap - self._floor)
        if live is None:
            live = np.ones(len(self.nodes), dtype=bool)
        else:
            live = np.asarray(live, dtype=bool)
        targets = np.empty(len(self.nodes))
        targets[~live] = self._idle_floor[~live]
        remaining = self.budget_watts - float(self._idle_floor[~live].sum())
        targets[live] = self._fit_to_budget(
            wanted[live], self._floor[live], max(remaining, 0.0)
        )
        return targets

    @staticmethod
    def _fit_to_budget(
        wanted: np.ndarray, floor: np.ndarray, budget: float
    ) -> np.ndarray:
        total = float(wanted.sum())
        if total <= budget:
            return wanted
        floor_total = float(floor.sum())
        if floor_total >= budget:
            return floor.copy()
        scale = (budget - floor_total) / (total - floor_total)
        return floor + (wanted - floor) * scale

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        state = super().state_dict()
        state["kind"] = "learned-coordinator"
        state["agent"] = self.agent.state_dict()
        state["decisions"] = int(self.decisions)
        state["fed_rounds"] = int(self.fed_rounds)
        state["last_action"] = (
            None if self._last_action is None else self._last_action.copy()
        )
        state["pending"] = (
            None
            if self._pending is None
            else (self._pending[0].copy(), self._pending[1].copy())
        )
        state["last_reward"] = self._last_reward
        state["completed_seen"] = self._completed_seen.copy()
        state["timeouts_seen"] = self._timeouts_seen.copy()
        state["lat_seen"] = list(self.observer._lat_seen)
        state["routed_seen"] = self.observer._routed_seen.copy()
        if self.shared_replay is not None:
            state["shared_replay"] = self.shared_replay.state_dict()
        return state

    def load_state_dict(self, state: Dict) -> None:
        if state.get("kind") != "learned-coordinator":
            raise ValueError("snapshot is not a learned-coordinator state")
        base = dict(state)
        base["kind"] = "powercap-coordinator"
        super().load_state_dict(base)
        self.agent.load_state_dict(state["agent"])
        self.decisions = int(state["decisions"])
        self.fed_rounds = int(state["fed_rounds"])
        last_action = state["last_action"]
        self._last_action = (
            None if last_action is None else np.array(last_action, dtype=float)
        )
        pending = state["pending"]
        self._pending = (
            None
            if pending is None
            else (
                np.array(pending[0], dtype=float),
                np.array(pending[1], dtype=float),
            )
        )
        self._last_reward = state["last_reward"]
        self._completed_seen = np.array(state["completed_seen"], dtype=np.int64)
        self._timeouts_seen = np.array(state["timeouts_seen"], dtype=np.int64)
        self.observer._lat_seen = [int(v) for v in state["lat_seen"]]
        self.observer._routed_seen = np.array(
            state["routed_seen"], dtype=np.int64
        )
        if state.get("shared_replay") is not None:
            if self.shared_replay is None:
                raise ValueError(
                    "snapshot carries shared-replay state but no SharedReplay "
                    "is attached"
                )
            self.shared_replay.load_state_dict(state["shared_replay"])
