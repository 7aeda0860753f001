"""Fleet power capping: apportion a global budget across nodes.

Data-center power is provisioned per rack/row, not per machine; a fleet
must keep its *total* draw under a facility budget while individual nodes'
policies chase their own latency/energy trade-offs.  The
:class:`PowerCapCoordinator` closes that loop the way RAPL-based cluster
managers do:

1. every coordination window (one ``LongTime``) it reads each node's
   RAPL-style cumulative energy counter and forms last-window average
   power (read-only ``total_energy()`` deltas — it never advances the
   per-node monitor windows the DeepPower reward calculators consume),
2. it apportions the budget: each node's *demand* is its measured power
   with a boost margin, floored at the node's all-idle-at-fmin draw and
   capped at its all-busy-at-turbo draw; demands are scaled to the budget
   when oversubscribed, and spare watts from idle nodes are redistributed
   to nodes that can still use them (headroom redistribution),
3. each node's power target becomes a *frequency ceiling*: the highest
   DVFS level whose worst-case (all workers busy) node power fits the
   target.  A ceiling below turbo revokes turbo eligibility; below fmax
   it throttles the sustained range too.

Ceilings are socket state: :meth:`~repro.cpu.topology.Cpu.set_ceiling`
stores the level on the cpu and its cores, and every DVFS write — a
core's ``set_frequency``, both lanes of ``Cpu.set_frequencies`` and the
fleet batch's vector tick — clamps to it before quantising, so *every*
policy (baselines and the DeepPower thread controller alike) is capped
without modification.

Because ceilings are chosen against worst-case node power, the sum of
per-node worst cases never exceeds the apportioned targets: steady-state
fleet power stays within the budget whenever the budget is feasible at
all (≥ the fleet's aggregate fmin floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.engine import Engine, PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .node import DOWN, RECOVERING, ClusterNode

__all__ = ["CAP_BOOST", "CAP_WINDOW", "CapWindow", "PowerCapCoordinator"]

#: Coordination interval, seconds (the paper's ``LongTime`` scale).
CAP_WINDOW = 1.0
#: Demand margin over measured power — a node asking for exactly its
#: last-window draw could never ramp up, so demand is ``measured * boost``
#: before flooring/capping.
CAP_BOOST = 1.25


@dataclass(frozen=True)
class CapWindow:
    """One coordination window's readings and decisions."""

    time: float
    #: Last-window average power each node actually drew (W) — true
    #: counter deltas, even while a telemetry partition freezes what the
    #: coordinator reads.
    powers: Tuple[float, ...]
    #: Apportioned power target per node (W).
    targets: Tuple[float, ...]
    #: Frequency ceiling applied per node (GHz, a table level).
    ceilings: Tuple[float, ...]
    budget_watts: float
    #: What triggered this decision: a periodic "window" or a "membership"
    #: change (node crash/restart/recovery).
    reason: str = "window"

    @property
    def total_power(self) -> float:
        return float(sum(self.powers))


class PowerCapCoordinator:
    """Apportion ``budget_watts`` across fleet nodes every
    :data:`CAP_WINDOW` seconds.

    Parameters
    ----------
    engine, nodes:
        Shared clock and the fleet (each node carries its own monitor).
    budget_watts:
        Global cluster power budget (W).
    trace:
        Optional :class:`~repro.obs.TraceWriter`; each window emits a
        ``powercap-window`` event with per-node powers/targets/ceilings.
    """

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[ClusterNode],
        budget_watts: float,
        trace: Any = None,
    ) -> None:
        if budget_watts <= 0:
            raise ValueError(f"budget_watts must be positive, got {budget_watts}")
        self.engine = engine
        self.nodes = list(nodes)
        self.budget_watts = float(budget_watts)
        self.trace = trace
        # Worst-case (all workers busy) node power per DVFS level, per node:
        # the ceiling decision compares targets against these.
        self._level_power: List[np.ndarray] = []
        self._levels: List[Tuple[float, ...]] = []
        for n in self.nodes:
            table, pm, cores = n.cpu.table, n.cpu.power_model, n.cpu.num_cores
            levels = table.levels
            worst = np.array(
                [
                    pm.socket_power(
                        np.full(cores, lvl), np.ones(cores, dtype=bool)
                    )
                    for lvl in levels
                ]
            )
            self._levels.append(levels)
            self._level_power.append(worst)
        self._floor = np.array([lp[0] for lp in self._level_power])
        self._cap = np.array([lp[-1] for lp in self._level_power])
        # All-idle draw at fmin: what a down (parked) node still burns, and
        # therefore what membership-aware apportioning reserves for it.
        self._idle_floor = np.array(
            [
                n.cpu.power_model.socket_power(
                    np.full(n.cpu.num_cores, n.cpu.table.fmin),
                    np.zeros(n.cpu.num_cores, dtype=bool),
                )
                for n in self.nodes
            ]
        )
        # Two baselines: energy as read (partition-frozen; apportioning
        # runs on it) and energy actually drawn (what windows report).
        self._last_energy = np.zeros(len(self.nodes))
        self._last_drawn = np.zeros(len(self.nodes))
        self._last_time = 0.0
        self._last_powers = np.zeros(len(self.nodes))
        self._drawn_powers = np.zeros(len(self.nodes))
        self._task: Optional[PeriodicTask] = None
        #: Optional :class:`~repro.cluster.lifecycle.NodeLifecycle`; when
        #: set, telemetry partitions freeze a node's energy reading and
        #: membership changes re-apportion the budget over live nodes.
        self.lifecycle: Any = None
        self.history: List[CapWindow] = []
        #: Windows in which at least one node's ceiling was below turbo.
        self.throttled_windows = 0

    @property
    def feasible(self) -> bool:
        """Whether the budget covers the fleet's aggregate fmin floor."""
        return float(self._floor.sum()) <= self.budget_watts

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("PowerCapCoordinator already started")
        self._last_energy = np.array([n.monitor.total_energy() for n in self.nodes])
        self._last_drawn = self._last_energy
        self._last_time = self.engine.now
        # Run after the per-node policies' control tasks at shared
        # timestamps so ceilings apply to the actions just taken.
        self._task = self.engine.every(
            CAP_WINDOW,
            self._rebalance,
            start_delay=CAP_WINDOW,
            priority=PRIORITY_CONTROL + 2,
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
        for n in self.nodes:
            n.cpu.set_ceiling(n.cpu.table.turbo)

    # ------------------------------------------------------------ coordination

    def _read_energy(self, drawn: np.ndarray) -> np.ndarray:
        """The nodes' energy counters as the coordinator *sees* them.

        During a telemetry partition a node's sensor messages never
        arrive, so the coordinator keeps re-reading the last value it got;
        when the partition heals, the cumulative counter catches up in one
        jump (one window of inflated measured power — the price of
        cumulative-counter semantics).  ``drawn`` holds the true counters.
        """
        if self.lifecycle is None:
            return drawn
        frozen = np.array(
            [self.lifecycle.is_partitioned(n.node_id) for n in self.nodes]
        )
        if not frozen.any():
            return drawn
        return np.where(frozen, self._last_energy, drawn)

    def _live_mask(self) -> np.ndarray:
        return np.array([not n.is_down for n in self.nodes], dtype=bool)

    def _parked_mask(self) -> np.ndarray:
        """Nodes to pin at the floor ceiling: down, plus recovering ones
        (the guard that a restarted node re-enters at the floor cap)."""
        return np.array(
            [n.state in (DOWN, RECOVERING) for n in self.nodes], dtype=bool
        )

    def _rebalance(self) -> None:
        drawn = np.array([n.monitor.total_energy() for n in self.nodes])
        energies = self._read_energy(drawn)
        now = self.engine.now
        dt = now - self._last_time
        if dt <= 0:  # pragma: no cover - periodic task guarantees dt > 0
            return
        powers = (energies - self._last_energy) / dt
        self._drawn_powers = (drawn - self._last_drawn) / dt
        self._last_energy = energies
        self._last_drawn = drawn
        self._last_time = now
        self._last_powers = powers
        self._decide(powers, "window")

    def on_membership_change(self) -> None:
        """Re-apportion immediately after a node went down or came back.

        Uses the last window's readings (there is no fresh reading
        mid-window); the next periodic window measures normally.
        """
        if self._task is None:
            return
        self._decide(self._last_powers, "membership")

    def _decide(self, powers: np.ndarray, reason: str) -> None:
        live = self._live_mask()
        parked = self._parked_mask()
        targets = self.apportion(powers, live=None if live.all() else live)
        ceilings = []
        for i, node in enumerate(self.nodes):
            if parked[i]:
                ceiling = self._levels[i][0]
            else:
                ceiling = self._ceiling_for(i, targets[i])
            node.cpu.set_ceiling(ceiling)
            ceilings.append(ceiling)
        turbo_lost = any(
            c < self._levels[i][-1] for i, c in enumerate(ceilings)
        )
        if turbo_lost:
            self.throttled_windows += 1
        win = CapWindow(
            time=self.engine.now,
            powers=tuple(float(p) for p in self._drawn_powers),
            targets=tuple(float(t) for t in targets),
            ceilings=tuple(ceilings),
            budget_watts=self.budget_watts,
            reason=reason,
        )
        self.history.append(win)
        if self.trace is not None:
            self.trace.emit(
                "powercap-window",
                t=self.engine.now,
                powers=list(win.powers),
                targets=list(win.targets),
                ceilings=list(win.ceilings),
                total_w=win.total_power,
                budget_w=self.budget_watts,
                throttled=turbo_lost,
                reason=reason,
            )

    def apportion(
        self, powers: np.ndarray, live: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Split the budget into per-node power targets (pure function).

        Demand is measured power with the boost margin, clipped to each
        node's [fmin-idle-floor, turbo-busy-cap] envelope.  Under-budget
        demand leaves headroom, which is redistributed proportionally to
        each node's remaining envelope (so a loaded node can ramp while
        an idle one does not hoard watts it cannot use); over-budget
        demand is scaled down proportionally above the floors.

        When ``live`` (a boolean mask) marks nodes down, each down node is
        assigned exactly its parked all-idle-at-fmin draw and the remaining
        budget is apportioned over the live subset — the membership-aware
        redistribution.  ``live=None`` (or all-True) is the full-fleet path.
        """
        powers = np.asarray(powers, dtype=float)
        if live is None or bool(np.asarray(live, dtype=bool).all()):
            return self._apportion_over(
                powers, self._floor, self._cap, self.budget_watts
            )
        live = np.asarray(live, dtype=bool)
        targets = np.empty(len(self.nodes))
        targets[~live] = self._idle_floor[~live]
        remaining = self.budget_watts - float(self._idle_floor[~live].sum())
        targets[live] = self._apportion_over(
            powers[live], self._floor[live], self._cap[live], max(remaining, 0.0)
        )
        return targets

    def _apportion_over(
        self,
        powers: np.ndarray,
        floor: np.ndarray,
        cap: np.ndarray,
        budget: float,
    ) -> np.ndarray:
        demand = np.clip(powers * CAP_BOOST, floor, cap)
        total = float(demand.sum())
        if total <= budget:
            spare = budget - total
            room = cap - demand
            room_total = float(room.sum())
            if room_total > 0 and spare > 0:
                demand = demand + room * min(spare / room_total, 1.0)
            return np.minimum(demand, cap)
        floor_total = float(floor.sum())
        if floor_total >= budget:
            # Infeasible budget: everyone pinned to the floor is the best
            # the coordinator can do (ceilings land on fmin below).
            return floor.copy()
        scale = (budget - floor_total) / (total - floor_total)
        return floor + (demand - floor) * scale

    def _ceiling_for(self, node_idx: int, target_watts: float) -> float:
        """Highest DVFS level whose worst-case node power fits the target."""
        worst = self._level_power[node_idx]
        levels = self._levels[node_idx]
        fit = np.nonzero(worst <= target_watts + 1e-9)[0]
        if fit.size == 0:
            return levels[0]
        return levels[int(fit[-1])]

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Snapshot the coordinator's mutable window state.

        Without this, a kill-and-resume mid-fleet-run restarts the energy
        baseline at the resume-time counter and the ceilings at turbo, so
        the first resumed cap window measures a bogus power and replays
        differently from the uninterrupted run.  Captures both energy
        baselines (read and drawn), the time baseline, last powers,
        applied ceilings, throttle count and the window history.
        """
        return {
            "kind": "powercap-coordinator",
            "num_nodes": len(self.nodes),
            "budget_watts": self.budget_watts,
            "last_energy": self._last_energy.copy(),
            "last_drawn": self._last_drawn.copy(),
            "last_time": float(self._last_time),
            "last_powers": self._last_powers.copy(),
            "drawn_powers": self._drawn_powers.copy(),
            "throttled_windows": int(self.throttled_windows),
            "ceilings": [float(n.cpu.ceiling) for n in self.nodes],
            "history": [
                {
                    "time": w.time,
                    "powers": list(w.powers),
                    "targets": list(w.targets),
                    "ceilings": list(w.ceilings),
                    "budget_watts": w.budget_watts,
                    "reason": w.reason,
                }
                for w in self.history
            ],
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Re-applies the saved per-node ceilings (clamping any core already
        above them), so the next window continues exactly where the
        snapshotted run left off.
        """
        if state.get("kind") != "powercap-coordinator":
            raise ValueError("snapshot is not a powercap-coordinator state")
        if int(state["num_nodes"]) != len(self.nodes):
            raise ValueError(
                f"snapshot covers {state['num_nodes']} nodes, coordinator "
                f"has {len(self.nodes)}"
            )
        self._last_energy = np.array(state["last_energy"], dtype=float)
        self._last_drawn = np.array(state["last_drawn"], dtype=float)
        self._last_time = float(state["last_time"])
        self._last_powers = np.array(state["last_powers"], dtype=float)
        self._drawn_powers = np.array(state["drawn_powers"], dtype=float)
        self.throttled_windows = int(state["throttled_windows"])
        for n, ceiling in zip(self.nodes, state["ceilings"]):
            n.cpu.set_ceiling(float(ceiling))
        self.history = [
            CapWindow(
                time=float(w["time"]),
                powers=tuple(float(p) for p in w["powers"]),
                targets=tuple(float(t) for t in w["targets"]),
                ceilings=tuple(float(c) for c in w["ceilings"]),
                budget_watts=float(w["budget_watts"]),
                reason=str(w["reason"]),
            )
            for w in state["history"]
        ]

    # ----------------------------------------------------------------- queries

    def max_window_power(self, skip: int = 1) -> float:
        """Peak measured fleet power over windows after ``skip`` warm-up
        windows (the first window measures pre-coordination draw)."""
        windows = self.history[skip:]
        if not windows:
            return float("nan")
        return max(w.total_power for w in windows)

    def mean_window_power(self, skip: int = 1) -> float:
        windows = self.history[skip:]
        if not windows:
            return float("nan")
        return float(np.mean([w.total_power for w in windows]))

    def cap_ok(self, tolerance: float = 0.05, skip: int = 1) -> bool:
        """Whether steady-state fleet power stayed within budget (+tolerance)."""
        peak = self.max_window_power(skip=skip)
        if not np.isfinite(peak):
            return True
        return peak <= self.budget_watts * (1.0 + tolerance)
