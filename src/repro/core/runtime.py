"""The DeepPower hierarchical control runtime (paper Fig 3 + Algorithm 2).

Wires together the five framework components around a running server:

* state observer  — telemetry -> normalised state (①)
* DRL agent       — state -> (BaseFreq, ScalingCoef) action (②)
* thread controller — fine-grained per-core frequency scaling (③)
* reward calculator — telemetry + RAPL energy -> reward (④⑤)
* replay + training — transitions pushed and sampled each step (⑥⑦)

The agent acts every ``LongTime`` (default 1 s); the controller ticks every
``ShortTime`` (default 1 ms, per-app).  In training mode each DRL step also
performs one DDPG update; in evaluation mode the loaded policy runs
deterministically (no noise, no updates).

With ``config.control.watchdog`` set, every step's
telemetry/state/reward/action passes the watchdog's screens, and on
repeated anomalies the runtime *trips*: the node endpoint benches the
thread controller and its SLA-safe fallback governor takes the cores, and
the DRL loop stays benched until telemetry has been healthy for the
(exponentially backed-off) cooldown.  A runtime resumed from a snapshot
taken mid-trip re-engages the governor.  Trips, recoveries and per-step
anomaly counts are exposed on :class:`StepRecord` and via
:meth:`DeepPowerRuntime.watchdog_stats`.

The runtime never calls sensors or actuators directly: its
:class:`~repro.control.PolicyEndpoint` (configured by ``config.control``)
owns the bus and the node, and each interval hands the runtime either a
fresh reading or a window it must not learn from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import numpy as np

from ..control import ControlPlaneConfig, PolicyEndpoint
from ..cpu.rapl import PowerMonitor
from ..faults.watchdog import SAFE_ACTION, Watchdog
from ..server.server import Server
from ..sim.engine import Engine, PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .agent import DeepPowerAgent
from .reward import RewardBreakdown, RewardCalculator, RewardConfig, auto_eta_for
from .state_observer import StateObserver
from .thread_controller import ThreadController

__all__ = ["DeepPowerConfig", "StepRecord", "DeepPowerRuntime"]


@dataclass
class DeepPowerConfig:
    """Framework-level knobs (paper §4.6 defaults)."""

    #: DRL decision interval, seconds (paper ``LongTime`` = 1 s).
    long_time: float = 1.0
    #: Controller tick, seconds; None -> the app profile's ``short_time``.
    short_time: Optional[float] = None
    reward: RewardConfig = field(default_factory=RewardConfig)
    #: Record per-step history (state/action/reward/power) for figures.
    record_steps: bool = True
    #: Train the networks online (Algorithm 2); False = evaluation mode.
    train: bool = True
    #: DDPG updates per DRL step while training.
    updates_per_step: int = 1
    #: Message-bus transport and safe-mode switches (watchdog included).
    control: ControlPlaneConfig = field(default_factory=ControlPlaneConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.control, ControlPlaneConfig):
            raise TypeError(
                "DeepPowerConfig.control must be a ControlPlaneConfig, "
                f"got {type(self.control).__name__}"
            )


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics for one DRL step (drives Fig 8's time series)."""

    time: float
    state: Optional[np.ndarray]
    action: np.ndarray
    reward: Optional[RewardBreakdown]
    power_watts: float
    rps: float
    queue_len: int
    timeouts: int
    avg_frequency: float
    #: Whether the watchdog had the runtime tripped this step.
    fallback: bool = False
    #: Anomalies the watchdog screened out of this step's inputs.
    anomalies: int = 0
    #: Whether the bus control loop ran degraded this step (stale
    #: telemetry hold, safe-mode broadcast or recovery dwell).
    degraded: bool = False


class DeepPowerRuntime:
    """Attach DeepPower to a server and drive the two control loops."""

    def __init__(
        self,
        engine: Engine,
        server: Server,
        monitor: PowerMonitor,
        agent: DeepPowerAgent,
        config: Optional[DeepPowerConfig] = None,
        obs=None,
    ) -> None:
        self.engine = engine
        self.server = server
        self.monitor = monitor
        self.agent = agent
        self.cfg = config or DeepPowerConfig()
        self.controller = ThreadController(engine, server, short_time=self.cfg.short_time)
        self.observer = StateObserver(
            num_workers=server.num_workers, window=self.cfg.long_time
        )
        pm, table, n = server.cpu.power_model, server.cpu.table, server.cpu.num_cores
        max_power = pm.socket_power(
            np.full(n, table.turbo), np.ones(n, dtype=bool)
        )
        min_power = pm.socket_power(
            np.full(n, table.fmin), np.zeros(n, dtype=bool)
        )
        self.reward_calc = RewardCalculator(
            self.cfg.reward,
            max_power_watts=max_power,
            min_power_watts=min_power,
            auto_eta=auto_eta_for(server),
        )
        self.records: List[StepRecord] = []
        self.step_count = 0
        self._prev: Optional[tuple] = None
        self._task: Optional[PeriodicTask] = None
        self._last_losses: Optional[dict] = None
        self.watchdog: Optional[Watchdog] = None
        if self.cfg.control.watchdog:
            self.watchdog = Watchdog(
                max_power_watts=max_power,
                min_power_watts=min_power,
                long_time=self.cfg.long_time,
                short_time=self.controller.short_time,
            )
        self._last_tick_count = 0
        # Observability (opt-in; obs=None leaves every hot path branch-only).
        self.obs = obs
        self._trace = obs.trace if obs is not None else None
        self._spans = obs.spans if obs is not None else None
        self._last_switches = 0
        if obs is not None:
            engine.spans = obs.spans  # None when not profiling
            self.controller.bind_spans(obs.spans)
            self.monitor.bind_obs(obs)
            if self._trace is not None:
                self.controller.enable_window_stats()
        # The policy loop reaches the node only over the bus.
        self.endpoint = PolicyEndpoint(
            engine,
            self.cfg.control,
            server,
            monitor,
            self.controller,
            long_time=self.cfg.long_time,
            trace=self._trace,
        )

    # ----------------------------------------------------------------- control

    @property
    def running(self) -> bool:
        """Whether the DRL loop's periodic task is live."""
        return self._task is not None and not self._task.stopped

    def start(self) -> None:
        """Algorithm 2 lines 1-2: start both loops and take the first action.

        Restart-safe: a stopped runtime can be started again with a fresh
        transition chain, reward window and energy window; calling
        ``start()`` while already running raises instead of stacking a
        second periodic task.
        """
        if self.running:
            raise RuntimeError("DeepPowerRuntime.start() called while already running")
        self._prev = None  # never bridge a transition across a restart gap
        self.reward_calc.reset()
        self.controller.start()
        self._last_tick_count = self.controller.tick_count
        self._last_switches = self.server.cpu.total_switches()
        # The node owns the windows: its start() takes the initial
        # (empty) snapshot + energy window and publishes them; the first
        # command travels back over the bus and is applied by the
        # node's delivery event before any controller tick.
        first = self.endpoint.start()
        # Blind on a bus already lossy at t=0 (the degraded machinery
        # takes over) or resumed mid-trip (the governor keeps the cores
        # until the watchdog re-arms): start on the safe action.
        a1 = np.asarray(SAFE_ACTION, dtype=float)
        if self.watchdog is not None and self.watchdog.tripped:
            self.endpoint.node.engage()
        elif first is not None:
            s1 = self.observer.observe(first.snapshot)
            a1 = self.agent.act(s1, explore=self.cfg.train)
            self._prev = (s1, a1)
        self.endpoint.publish(a1)
        self._task = self.engine.every(
            self.cfg.long_time, self._interval, priority=PRIORITY_CONTROL + 1
        )

    def stop(self) -> None:
        self.controller.stop()
        self.endpoint.stop()
        if self._task is not None:
            self._task.stop()
        self._prev = None  # the next start() must not reuse a stale state

    # ------------------------------------------------------------------- steps

    def _interval(self) -> None:
        """One DRL interval (Algorithm 2 lines 9-18).

        The endpoint's verdict picks the step: a fresh reading runs the
        normal policy step, a recovering one the same step on the safe
        action without learning; a stale or blind window has no data and
        only records the action the endpoint holds.
        """
        verdict, reading = self.endpoint.poll(self.step_count)
        if reading is not None:
            self._step_with_window(
                reading.snapshot, reading.energy, safe=verdict == "recovering"
            )
            return
        if verdict == "stale":
            self._prev = None  # the outage breaks the transition chain
        self._record_step(
            self.engine.now,
            self.endpoint.last_action,
            fallback=self.watchdog is not None and self.watchdog.tripped,
            degraded=verdict == "stale",
        )

    def _step_with_window(self, snap, energy: float, safe: bool = False) -> None:
        """One observe/reward/act/train cycle over a telemetry window.

        With a watchdog attached, the step's inputs are screened first and
        the trip/re-arm verdict is applied at the end; while tripped the
        agent is bypassed entirely and the node's fallback governor owns
        the cores.  ``safe`` (the recovery dwell) publishes the safe
        action without learning.
        """
        wd = self.watchdog
        if wd is not None:
            wd.begin_step()
            ticks = self.controller.tick_count - self._last_tick_count
            snap, energy = wd.screen_window(snap, energy, now=self.engine.now, ticks=ticks)
        self._last_tick_count = self.controller.tick_count
        rb = self.reward_calc.compute(snap, energy)
        s_next = self.observer.observe(snap)
        if wd is not None:
            s_next = wd.screen_state(s_next)
            rb = wd.screen_reward(rb)

        tripped = wd is not None and wd.tripped
        if tripped or safe:
            # No learning across a safe window.  Tripped, the governor owns
            # the cores: re-engage every step so silently failed DVFS
            # writes cannot stick.  The safe action still goes out, as a
            # heartbeat that keeps the node's own command deadline quiet.
            if tripped:
                self.endpoint.node.engage()
            action = np.asarray(SAFE_ACTION, dtype=float)
            self._prev = None
        else:
            if self._prev is not None:
                s_prev, a_prev = self._prev
                self.agent.observe(s_prev, a_prev, rb.total, s_next, done=False)
                if self.cfg.train:
                    t0 = perf_counter() if self._spans is not None else None
                    for _ in range(self.cfg.updates_per_step):
                        self._last_losses = self.agent.update() or self._last_losses
                    if t0 is not None:
                        self._spans.record("agent.update", perf_counter() - t0)

            action = self.agent.act(s_next, explore=self.cfg.train)
            if wd is not None:
                action = wd.screen_action(action)
            self._prev = (s_next, action)
        self.endpoint.publish(action)

        anomalies = 0
        fallback_now = False
        if wd is not None:
            anomalies = wd.step_anomalies
            fallback_now = wd.tripped
            transition = wd.finish_step()
            if transition == "trip":
                self.endpoint.node.engage()
                self._prev = None  # no transition bridges the outage
                fallback_now = True
                if self._trace is not None:
                    self._trace.emit(
                        "watchdog-trip",
                        t=self.engine.now,
                        step=self.step_count,
                        anomalies=anomalies,
                    )
            elif transition == "rearm":
                # Controller back on with safe parameters until the agent's
                # next action lands (one LongTime later).
                self.endpoint.node.release(SAFE_ACTION)
                self._last_tick_count = self.controller.tick_count
                if self._trace is not None:
                    self._trace.emit(
                        "watchdog-rearm", t=self.engine.now, step=self.step_count
                    )
        self._record_step(
            snap.time,
            action,
            snap=snap,
            energy=energy,
            state=s_next,
            rb=rb,
            fallback=fallback_now,
            anomalies=anomalies,
            degraded=safe,
        )

    def _record_step(
        self,
        t: float,
        action: np.ndarray,
        *,
        snap=None,
        energy: float = 0.0,
        state: Optional[np.ndarray] = None,
        rb: Optional[RewardBreakdown] = None,
        fallback: bool,
        anomalies: int = 0,
        degraded: bool,
    ) -> None:
        """Close a step: the step counter, its record and its trace events.

        ``snap`` is None for a window whose reading never arrived: the
        controller cannot see power/rps/queue then, and fabricating them
        from node-side state would defeat the bus boundary, so the record
        says NaN (and -1 for the counts) and means it.
        """
        step_no = self.step_count
        self.step_count += 1
        if not (self.cfg.record_steps or self._trace is not None):
            return
        if snap is None:
            power_w = rps = avg_freq = float("nan")
            queue_len = timeouts = -1
        else:
            window = max(snap.window, 1e-12)
            freqs = self.server.cpu.frequencies()[: self.server.num_workers]
            power_w = energy / window
            rps = snap.num_req / window
            avg_freq = float(freqs.mean())
            queue_len, timeouts = snap.queue_len, snap.timeouts
        if self.cfg.record_steps:
            self.records.append(
                StepRecord(
                    time=t,
                    state=state,
                    action=action.copy(),
                    reward=rb,
                    power_watts=power_w,
                    rps=rps,
                    queue_len=queue_len,
                    timeouts=timeouts,
                    avg_frequency=avg_freq,
                    fallback=fallback,
                    anomalies=anomalies,
                    degraded=degraded,
                )
            )
        trace = self._trace
        if trace is not None:
            trace.emit(
                "drl-step",
                t=t,
                step=step_no,
                state=state,
                action=action,
                reward=None
                if rb is None
                else {
                    "total": rb.total,
                    "energy": rb.energy_term,
                    "timeout": rb.timeout_term,
                    "queue": rb.queue_term,
                },
                power_w=power_w,
                rps=rps,
                queue_len=queue_len,
                timeouts=timeouts,
                avg_freq=avg_freq,
                fallback=fallback,
                anomalies=anomalies,
                degraded=degraded,
            )
            switches = self.server.cpu.total_switches()
            trace.emit(
                "controller-window",
                t=t,
                step=step_no,
                dvfs_switches=switches - self._last_switches,
                **self.controller.window_summary(),
            )
            self._last_switches = switches

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot of the control stack around the agent.

        Captures everything that outlives a single DRL step: the full
        learner state, the controller's (BaseFreq, ScalingCoef), the
        observer's adaptive normalisers, the reward window accumulator,
        the watchdog machine, the step/transition bookkeeping and the
        endpoint's ``control`` state (sequence high-water marks, pending
        command, degraded-mode machine, injector RNG streams, node).  The
        simulated environment (event heap, in-flight requests) is *not*
        state — a resumed runtime re-attaches to a live or freshly built
        server, exactly like a restarted production controller.
        """
        prev = None
        if self._prev is not None:
            s_prev, a_prev = self._prev
            prev = {"state": np.array(s_prev), "action": np.array(a_prev)}
        return {
            "kind": "deeppower-runtime",
            "step_count": self.step_count,
            "agent": self.agent.state_dict(),
            "controller": self.controller.state_dict(),
            "observer": self.observer.state_dict(),
            "reward_calc": self.reward_calc.state_dict(),
            "prev": prev,
            "last_tick_count": self._last_tick_count,
            "watchdog": None if self.watchdog is None else self.watchdog.state_dict(),
            "control": self.endpoint.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Call on a stopped runtime, then :meth:`start` to resume control.
        """
        if state.get("kind") != "deeppower-runtime":
            raise ValueError("not a DeepPowerRuntime snapshot")
        control = state.get("control")
        if control is None:
            raise ValueError(
                "snapshot has no control-plane state: it was written by the "
                "removed direct-call runtime and cannot be resumed"
            )
        self.agent.load_state_dict(state["agent"])
        self.controller.load_state_dict(state["controller"])
        self.observer.load_state_dict(state["observer"])
        self.reward_calc.load_state_dict(state["reward_calc"])
        prev = state["prev"]
        self._prev = None if prev is None else (prev["state"], prev["action"])
        self._last_tick_count = int(state["last_tick_count"])
        self.step_count = int(state["step_count"])
        if state["watchdog"] is not None:
            if self.watchdog is None:
                raise ValueError(
                    "snapshot carries watchdog state but this runtime has no watchdog"
                )
            self.watchdog.load_state_dict(state["watchdog"])
        self.endpoint.load_state_dict(control)

    # ------------------------------------------------------------------- views

    @property
    def last_losses(self) -> Optional[dict]:
        """Most recent DDPG update diagnostics (None before first update)."""
        return self._last_losses

    def watchdog_stats(self) -> Optional[dict]:
        """Trip/recovery/anomaly counters (None when no watchdog configured)."""
        return None if self.watchdog is None else self.watchdog.stats()

    def control_stats(self) -> dict:
        """Bus / degraded-mode counters (see :meth:`PolicyEndpoint.control_stats`)."""
        return self.endpoint.control_stats()

    def reward_history(self) -> np.ndarray:
        """Total reward per recorded step."""
        return np.array([r.reward.total for r in self.records if r.reward])

    def action_history(self) -> np.ndarray:
        """(steps, 2) array of (BaseFreq, ScalingCoef) actions."""
        if not self.records:
            return np.zeros((0, 2))
        return np.stack([r.action for r in self.records])
