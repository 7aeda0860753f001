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

**Control plane** — the runtime never calls sensors or actuators
directly: a :class:`~repro.control.NodeEndpoint` owns telemetry sampling,
the thread controller and the fallback governor, and the policy loop
exchanges schema-versioned ``SensorReading`` / ``ActuatorCommand`` /
``CommandAck`` messages with it over an
:class:`~repro.control.InProcessBus` configured by ``config.control``;
watchdog verdicts go through the endpoint's one engage/release pair.
The default :class:`~repro.control.ControlPlaneConfig` is a perfect
transport that draws no randomness.  Under a
:class:`~repro.faults.bus.BusFaultPlan`, degraded-mode control takes
over: stale windows hold the last action and are flagged, unacked
commands are retried idempotently, and sustained outages escalate —
controller side to broadcasting ``SAFE_ACTION``, node side into the
fallback governor — with ``stale-window`` / ``cmd-retry`` /
``deadline-miss`` / ``bus-drop`` events in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..checkpoint import CheckpointManager

from ..control import (
    ActuatorCommand,
    CONTROL_SCHEMA,
    ControlPlaneConfig,
    InProcessBus,
    NodeEndpoint,
)
from ..control.config import (
    ACK_TIMEOUT,
    DEADLINE_MISSES,
    MAX_RETRIES,
    RECOVERY_WINDOWS,
    STALE_TOLERANCE,
)
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
    #: Record the controller's per-tick frequency trace (figures only).
    record_freq_trace: bool = False
    #: Train the networks online (Algorithm 2); False = evaluation mode.
    train: bool = True
    #: DDPG updates per DRL step while training.
    updates_per_step: int = 1
    #: Periodic autosave target; with ``checkpoint_every_steps`` > 0 the
    #: runtime snapshots its full state (agent, controller, observer,
    #: reward window, watchdog) every N DRL steps.
    checkpoint: Optional["CheckpointManager"] = None
    #: DRL steps between autosaves (0 = autosave disabled).
    checkpoint_every_steps: int = 0
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
    #: telemetry hold, safe-mode broadcast, or known-lost actuation).
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
        self.controller = ThreadController(
            engine,
            server,
            short_time=self.cfg.short_time,
            record_trace=self.cfg.record_freq_trace,
        )
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
        self._m_steps = self._m_trips = self._m_rearms = self._m_ckpts = None
        self._g_reward = self._g_power = None
        if obs is not None:
            engine.spans = obs.spans  # None when not profiling
            self.controller.bind_spans(obs.spans)
            self.monitor.bind_obs(obs)
            server.telemetry.bind_obs(obs)
            if self._trace is not None:
                self.controller.enable_window_stats()
            m = obs.metrics
            self._m_steps = m.counter("drl.steps")
            self._m_trips = m.counter("watchdog.trips")
            self._m_rearms = m.counter("watchdog.rearms")
            self._m_ckpts = m.counter("checkpoint.saves")
            self._g_reward = m.gauge("drl.reward")
            self._g_power = m.gauge("power.watts")
        # Control plane: the policy loop reaches the node only over the bus.
        self._ctl = self.cfg.control
        self.bus = InProcessBus(
            engine, fault_plan=self._ctl.fault_plan, trace=self._trace
        )
        self._endpoint = NodeEndpoint(
            engine,
            server,
            monitor,
            self.controller,
            self.bus,
            self._ctl,
            long_time=self.cfg.long_time,
            trace=self._trace,
        )
        self._bus_reading_seq = 0
        self._bus_cmd_seq = 0
        self._bus_pending: Optional[dict] = None
        self._bus_last_action = np.asarray(SAFE_ACTION, dtype=float)
        self._bus_stale_count = 0
        self._bus_safe_mode = False
        self._bus_recovery = 0
        self._bus_stats = {
            "stale_windows": 0,
            "blind_windows": 0,
            "safe_escalations": 0,
            "deadline_misses": 0,
            "retries": 0,
            "commands_lost": 0,
            "suppressed_readings": 0,
            "bad_schema": 0,
        }

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
        # The endpoint owns the windows: its start() takes the initial
        # (empty) snapshot + energy window and publishes them; the first
        # command travels back over the bus and is applied by the
        # endpoint's delivery event before any controller tick.
        self._endpoint.start()
        first = self._ingest_readings()
        # Blind on a bus already lossy at t=0 (the degraded machinery
        # takes over) or resumed mid-trip (the governor keeps the cores
        # until the watchdog re-arms): start on the safe action.
        a1 = np.asarray(SAFE_ACTION, dtype=float)
        if self.watchdog is not None and self.watchdog.tripped:
            self._endpoint.engage()
        elif first is not None:
            s1 = self.observer.observe(first.snapshot)
            a1 = self.agent.act(s1, explore=self.cfg.train)
            self._prev = (s1, a1)
        self._publish_action(a1)
        self._task = self.engine.every(
            self.cfg.long_time, self._interval, priority=PRIORITY_CONTROL + 1
        )

    def stop(self) -> None:
        self.controller.stop()
        self._endpoint.stop()
        if self._task is not None:
            self._task.stop()
        self._prev = None  # the next start() must not reuse a stale state

    # ------------------------------------------------------------------- steps

    def _interval(self) -> None:
        """One DRL interval at the controller end of the bus (Algorithm 2
        lines 9-18).

        Services acks/retries, ingests whatever readings the bus
        delivered, and dispatches: a fresh (same-tick) reading runs the
        normal policy step; a stale window runs the degraded-mode hold /
        escalation ladder; the ablation (``degraded_mode=False``) trusts
        any reading it has and never protects itself.
        """
        self._service_acks()
        newest = self._ingest_readings()
        now = self.engine.now
        if not self._ctl.degraded_mode:
            if newest is not None:
                self._step_with_window(newest.snapshot, newest.energy)
            else:
                self._bus_stats["blind_windows"] += 1
                self._record_degraded_step(self._bus_last_action, degraded=False)
            return
        fresh = (
            newest is not None
            and now - newest.t_sent <= STALE_TOLERANCE + 1e-12
        )
        if not fresh:
            self._stale_step(have_reading=newest is not None)
            return
        if self._bus_safe_mode:
            self._bus_recovery += 1
            if self._bus_recovery < RECOVERY_WINDOWS:
                # Recovery dwell: telemetry is back but trust rebuilds
                # over RECOVERY_WINDOWS windows; keep broadcasting the
                # safe action (no learning) until then.
                self._step_with_window(
                    newest.snapshot, newest.energy, degraded=True, force_safe=True
                )
                return
            self._bus_safe_mode = False
            self._bus_recovery = 0
        self._bus_stale_count = 0
        self._step_with_window(newest.snapshot, newest.energy)

    def _step_with_window(
        self,
        snap,
        energy: float,
        degraded: bool = False,
        force_safe: bool = False,
    ) -> None:
        """One observe/reward/act/train cycle over a telemetry window.

        With a watchdog attached, the step's inputs are screened first and
        the trip/re-arm verdict is applied at the end; while tripped the
        agent is bypassed entirely and the endpoint's fallback governor
        owns the cores.
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

        if wd is not None and wd.tripped:
            # Tripped: the governor owns the cores; re-engage every step so
            # silently failed DVFS writes cannot stick.
            action = np.asarray(SAFE_ACTION, dtype=float)
            self._endpoint.engage()
            # Heartbeat over the bus: keeps the node's own command
            # deadline quiet.
            self._publish_action(action)
        elif force_safe:
            action = np.asarray(SAFE_ACTION, dtype=float)
            self._publish_action(action)
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
            self._publish_action(action)
            self._prev = (s_next, action)

        if self._bus_pending is not None:
            # Actuation known-dead (retries exhausted, never acked) is a
            # degraded window even when telemetry still flows.
            degraded = degraded or self._bus_pending["lost"]

        anomalies = 0
        fallback_now = False
        if wd is not None:
            anomalies = wd.step_anomalies
            fallback_now = wd.tripped
            transition = wd.finish_step()
            if transition == "trip":
                self._endpoint.engage()
                self._prev = None  # no transition bridges the outage
                fallback_now = True
                if self._m_trips is not None:
                    self._m_trips.inc()
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
                self._endpoint.release(SAFE_ACTION)
                self._last_tick_count = self.controller.tick_count
                if self._m_rearms is not None:
                    self._m_rearms.inc()
                if self._trace is not None:
                    self._trace.emit(
                        "watchdog-rearm", t=self.engine.now, step=self.step_count
                    )
        step_no = self._advance_step()

        trace = self._trace
        if self.cfg.record_steps or self.obs is not None:
            window = max(snap.window, 1e-12)
            freqs = self.server.cpu.frequencies()[: self.server.num_workers]
            power_w = energy / window
            rps = snap.num_req / window
            avg_freq = float(freqs.mean())
            if self.cfg.record_steps:
                self.records.append(
                    StepRecord(
                        time=snap.time,
                        state=s_next,
                        action=action.copy(),
                        reward=rb,
                        power_watts=power_w,
                        rps=rps,
                        queue_len=snap.queue_len,
                        timeouts=snap.timeouts,
                        avg_frequency=avg_freq,
                        fallback=fallback_now,
                        anomalies=anomalies,
                        degraded=degraded,
                    )
                )
            if self._g_power is not None:
                self._g_power.set(power_w)
                if rb is not None:
                    self._g_reward.set(rb.total)
            if trace is not None:
                trace.emit(
                    "drl-step",
                    t=snap.time,
                    step=step_no,
                    state=s_next,
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
                    queue_len=snap.queue_len,
                    timeouts=snap.timeouts,
                    avg_freq=avg_freq,
                    fallback=fallback_now,
                    anomalies=anomalies,
                    degraded=degraded,
                )
                self._emit_controller_window(snap.time, step_no)

    # ------------------------------------------------------------ bus plumbing

    def _ingest_readings(self):
        """Drain the sensor channel; return the newest unseen reading.

        Monotonic sequence numbers make duplicates and reordered
        stragglers harmless: anything at or below the high-water mark is
        counted and discarded, and of several new readings only the
        newest wins (its predecessors describe windows that are already
        history).
        """
        newest = None
        for msg in self.bus.sensor.poll(self.engine.now):
            if getattr(msg, "schema", None) != CONTROL_SCHEMA:
                self._bus_stats["bad_schema"] += 1
                continue
            if msg.seq <= self._bus_reading_seq:
                self._bus_stats["suppressed_readings"] += 1
                continue
            if newest is None or msg.seq > newest.seq:
                if newest is not None:
                    self._bus_stats["suppressed_readings"] += 1
                newest = msg
            else:
                self._bus_stats["suppressed_readings"] += 1
        if newest is not None:
            self._bus_reading_seq = newest.seq
        return newest

    def _service_acks(self) -> None:
        """Match delivered acks to the pending command; retry on timeout.

        Retries are idempotent (same ``seq``) and bounded by
        ``MAX_RETRIES``; an exhausted, never-acked command is flagged
        lost, which marks subsequent steps degraded until a newer command
        supersedes it.  The ablation consumes acks but never retries.
        """
        now = self.engine.now
        pending = self._bus_pending
        for ack in self.bus.ack.poll(now):
            if getattr(ack, "schema", None) != CONTROL_SCHEMA:
                self._bus_stats["bad_schema"] += 1
                continue
            if pending is not None and ack.cmd_seq == pending["seq"]:
                pending["acked"] = True
        if not self._ctl.degraded_mode:
            return
        if pending is None or pending["acked"] or pending["lost"]:
            return
        if now - pending["sent"] < ACK_TIMEOUT:
            return
        if pending["attempts"] < MAX_RETRIES:
            pending["attempts"] += 1
            pending["sent"] = now
            self._bus_stats["retries"] += 1
            if self._trace is not None:
                self._trace.emit(
                    "cmd-retry",
                    t=now,
                    cmd_seq=pending["seq"],
                    attempt=pending["attempts"],
                )
            self.bus.command.publish(
                ActuatorCommand(
                    seq=pending["seq"],
                    t_sent=now,
                    base_freq=pending["base_freq"],
                    scaling_coef=pending["scaling_coef"],
                    attempt=pending["attempts"],
                )
            )
        else:
            pending["lost"] = True
            self._bus_stats["commands_lost"] += 1

    def _publish_action(self, action) -> None:
        self._bus_cmd_seq += 1
        now = self.engine.now
        base_freq = float(action[0])
        scaling_coef = float(action[1])
        self._bus_pending = {
            "seq": self._bus_cmd_seq,
            "base_freq": base_freq,
            "scaling_coef": scaling_coef,
            "sent": now,
            "attempts": 0,
            "acked": False,
            "lost": False,
        }
        self._bus_last_action = np.asarray(action, dtype=float).copy()
        self.bus.command.publish(
            ActuatorCommand(
                seq=self._bus_cmd_seq,
                t_sent=now,
                base_freq=base_freq,
                scaling_coef=scaling_coef,
            )
        )

    def _stale_step(self, have_reading: bool) -> None:
        """Degraded window: no fresh telemetry arrived this interval.

        Holds the last action (no learning, no fabricated transitions)
        and flags the window; after ``DEADLINE_MISSES`` consecutive stale
        windows the controller escalates to broadcasting ``SAFE_ACTION``
        until telemetry recovers — the controller-side half of the
        control deadline (the node-side half engages the fallback
        governor when *commands* stop arriving).
        """
        now = self.engine.now
        self._bus_stale_count += 1
        self._bus_recovery = 0
        self._bus_stats["stale_windows"] += 1
        self._prev = None  # the outage breaks the transition chain
        if self._trace is not None:
            self._trace.emit(
                "stale-window",
                t=now,
                step=self.step_count,
                consecutive=self._bus_stale_count,
                have_reading=have_reading,
            )
        if self._bus_stale_count >= DEADLINE_MISSES:
            if not self._bus_safe_mode:
                self._bus_safe_mode = True
                self._bus_stats["safe_escalations"] += 1
            self._bus_stats["deadline_misses"] += 1
            if self._trace is not None:
                self._trace.emit(
                    "deadline-miss",
                    t=now,
                    side="controller",
                    misses=self._bus_stale_count,
                    engaged=True,
                )
            action = np.asarray(SAFE_ACTION, dtype=float)
            self._publish_action(action)
        else:
            action = self._bus_last_action
        self._record_degraded_step(action, degraded=True)

    def _record_degraded_step(self, action, degraded: bool) -> None:
        """Close a data-less window: bookkeeping + NaN-metric records.

        The controller cannot see power/rps/queue for a window whose
        reading never arrived, and fabricating them from node-side state
        would defeat the boundary — the record says NaN and means it.
        The ``fallback`` flag is the watchdog's state, which a stale
        window does not move.
        """
        step_no = self._advance_step()
        if self.cfg.record_steps or self.obs is not None:
            nan = float("nan")
            fallback = self.watchdog is not None and self.watchdog.tripped
            action = np.asarray(action, dtype=float)
            if self.cfg.record_steps:
                self.records.append(
                    StepRecord(
                        time=self.engine.now,
                        state=None,
                        action=action.copy(),
                        reward=None,
                        power_watts=nan,
                        rps=nan,
                        queue_len=-1,
                        timeouts=-1,
                        avg_frequency=nan,
                        fallback=fallback,
                        anomalies=0,
                        degraded=degraded,
                    )
                )
            if self._trace is not None:
                self._trace.emit(
                    "drl-step",
                    t=self.engine.now,
                    step=step_no,
                    state=None,
                    action=action,
                    reward=None,
                    power_w=nan,
                    rps=nan,
                    queue_len=-1,
                    timeouts=-1,
                    avg_freq=nan,
                    fallback=fallback,
                    anomalies=0,
                    degraded=degraded,
                )
                self._emit_controller_window(self.engine.now, step_no)

    def _advance_step(self) -> int:
        """Shared per-step bookkeeping: counters and checkpoint autosave."""
        step_no = self.step_count
        self.step_count += 1
        if self._m_steps is not None:
            self._m_steps.inc()
        if (
            self.cfg.checkpoint is not None
            and self.cfg.checkpoint_every_steps > 0
            and self.step_count % self.cfg.checkpoint_every_steps == 0
        ):
            self.cfg.checkpoint.save(
                self.state_dict(), step=self.step_count, meta={"kind": "runtime"}
            )
            if self._m_ckpts is not None:
                self._m_ckpts.inc()
            if self._trace is not None:
                self._trace.emit(
                    "checkpoint",
                    t=self.engine.now,
                    step=self.step_count,
                    ckpt_kind="runtime",
                )
        return step_no

    def _emit_controller_window(self, t: float, step_no: int) -> None:
        switches = self.server.cpu.total_switches()
        self._trace.emit(
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
        control-loop state (sequence high-water marks, pending command,
        degraded-mode machine, injector RNG streams, node endpoint).  The
        simulated environment (event heap, in-flight requests) is *not*
        state — a resumed runtime re-attaches to a live or freshly built
        server, exactly like a restarted production controller.
        """
        prev = None
        if self._prev is not None:
            s_prev, a_prev = self._prev
            prev = {"state": np.array(s_prev), "action": np.array(a_prev)}
        pending = None
        if self._bus_pending is not None:
            pending = dict(self._bus_pending)
            # Stored as an age: a resumed loop re-anchors on its new
            # engine clock.
            pending["sent_age"] = self.engine.now - pending.pop("sent")
        control = {
            "reading_seq": self._bus_reading_seq,
            "cmd_seq": self._bus_cmd_seq,
            "pending": pending,
            "last_action": np.array(self._bus_last_action),
            "stale_count": self._bus_stale_count,
            "safe_mode": self._bus_safe_mode,
            "recovery": self._bus_recovery,
            "stats": dict(self._bus_stats),
            "bus": self.bus.state_dict(),
            "endpoint": self._endpoint.state_dict(),
        }
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
            "control": control,
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
        self._bus_reading_seq = int(control["reading_seq"])
        self._bus_cmd_seq = int(control["cmd_seq"])
        pending = control["pending"]
        if pending is not None:
            pending = dict(pending)
            pending["sent"] = self.engine.now - pending.pop("sent_age")
        self._bus_pending = pending
        self._bus_last_action = np.asarray(control["last_action"], dtype=float)
        self._bus_stale_count = int(control["stale_count"])
        self._bus_safe_mode = bool(control["safe_mode"])
        self._bus_recovery = int(control["recovery"])
        self._bus_stats.update(control["stats"])
        self.bus.load_state_dict(control["bus"])
        self._endpoint.load_state_dict(control["endpoint"])

    # ------------------------------------------------------------------- views

    @property
    def last_losses(self) -> Optional[dict]:
        """Most recent DDPG update diagnostics (None before first update)."""
        return self._last_losses

    def watchdog_stats(self) -> Optional[dict]:
        """Trip/recovery/anomaly counters (None when no watchdog configured)."""
        return None if self.watchdog is None else self.watchdog.stats()

    def control_stats(self) -> dict:
        """Bus / degraded-mode counters.

        Three sections: ``loop`` (controller-side degraded machinery),
        ``bus`` (per-channel transport counters) and ``node`` (endpoint
        application/deadline counters).
        """
        return {
            "loop": dict(self._bus_stats),
            "bus": self.bus.stats(),
            "node": dict(self._endpoint.stats),
        }

    def reward_history(self) -> np.ndarray:
        """Total reward per recorded step."""
        return np.array([r.reward.total for r in self.records if r.reward])

    def action_history(self) -> np.ndarray:
        """(steps, 2) array of (BaseFreq, ScalingCoef) actions."""
        if not self.records:
            return np.zeros((0, 2))
        return np.stack([r.action for r in self.records])
