"""Both ends of the control bus: the policy side and the node side.

:class:`PolicyEndpoint` is the controller end.  It builds and owns the
:class:`~repro.control.bus.InProcessBus` and the node's
:class:`NodeEndpoint`, and once per DRL interval it turns whatever the
bus delivered into one verdict for
:class:`~repro.core.runtime.DeepPowerRuntime`: a fresh reading to learn
from, or a window the runtime must not learn from.

:class:`NodeEndpoint` is what a daemon running *on the node* would be: it
owns the sensor side (telemetry snapshots + RAPL window energy, published
as age-stamped :class:`~repro.control.messages.SensorReading` once per DRL
interval) and the actuator side (the millisecond
:class:`~repro.core.thread_controller.ThreadController`, the SLA-safe
fallback governor, and application of incoming
:class:`~repro.control.messages.ActuatorCommand`).  The runtime reaches
it only through the bus and the one safe-mode pair
:meth:`NodeEndpoint.engage` / :meth:`NodeEndpoint.release`.

Degraded mode (``ControlPlaneConfig.degraded_mode``, the constants in
:mod:`repro.control.config`):

* **dedup** — both ends keep a ``seq`` high-water mark; duplicates,
  reordered stragglers and unknown schemas are counted and dropped.  The
  node still acks a duplicate command, which is what lets a retry recover
  a lost ack.
* **stale telemetry** — a window with no same-tick reading is stale: the
  controller holds its last action and skips learning.  After
  ``DEADLINE_MISSES`` consecutive stale windows it escalates to
  broadcasting ``SAFE_ACTION`` and stays in safe mode until
  ``RECOVERY_WINDOWS`` consecutive fresh windows have arrived; the
  windows before that act safe without learning.
* **ack timeout** — an unacknowledged command is resent under the same
  ``seq`` after ``ACK_TIMEOUT`` seconds, at most ``MAX_RETRIES`` times;
  then it is known lost until a newer command supersedes it.
* **node deadline** — when no valid command has landed for
  ``DEADLINE_MISSES`` DRL intervals the node stops trusting the (possibly
  frozen) controller parameters and engages the fallback governor; the
  next applied command releases it.

``degraded_mode=False`` is the soak ablation: any reading is trusted as
current, a window without one is *blind*, nothing is retried and neither
side escalates.  The runtime watchdog's trip and re-arm call the same
engage/release pair as the node deadline; the two triggers do not share
state, so whichever acts last owns the cores.  Every mechanism is quiet
in fault-free runs — no events, no state changes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..cpu.governors import PerformanceGovernor
from ..cpu.rapl import PowerMonitor
from ..faults.watchdog import SAFE_ACTION
from ..server.server import Server
from ..sim.engine import Engine, PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .bus import ControlBus, InProcessBus
from .config import (
    ACK_TIMEOUT,
    DEADLINE_MISSES,
    MAX_RETRIES,
    RECOVERY_WINDOWS,
    STALE_TOLERANCE,
    ControlPlaneConfig,
)
from .messages import CONTROL_SCHEMA, ActuatorCommand, CommandAck, SensorReading

__all__ = ["PolicyEndpoint", "NodeEndpoint"]


class PolicyEndpoint:
    """Controller end of the bus: dedup, retries and the stale/safe ladder.

    Each DRL interval :meth:`poll` returns ``(verdict, reading)``:

    * ``"fresh"`` — a same-tick reading (under the ablation: any reading);
      the runtime runs its normal step on it.
    * ``"recovering"`` — fresh again after safe mode, but inside the
      ``RECOVERY_WINDOWS`` dwell: act safe, do not learn.
    * ``"stale"`` — no fresh reading (``reading`` is None); the held or
      safe action is already published and :attr:`last_action` holds it.
    * ``"blind"`` — the ablation's window without any reading.

    Built without a ``server`` it drives a bare bus with no node end, on
    which the node's readings and acks can be published by hand.
    """

    def __init__(
        self,
        engine: Engine,
        cfg: ControlPlaneConfig,
        server: Optional[Server] = None,
        monitor: Optional[PowerMonitor] = None,
        controller=None,
        long_time: float = 1.0,
        trace=None,
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self._trace = trace
        self.bus = InProcessBus(engine, fault_plan=cfg.fault_plan, trace=trace)
        self.node: Optional[NodeEndpoint] = None
        if server is not None:
            self.node = NodeEndpoint(
                engine, server, monitor, controller, self.bus, cfg,
                long_time=long_time, trace=trace,
            )
        self._reading_seq = 0
        self.cmd_seq = 0
        #: The newest command, as last transmitted (None before the first).
        self.pending: Optional[ActuatorCommand] = None
        self._acked = False
        #: Whether :attr:`pending` exhausted its retries without an ack.
        self.lost = False
        self.last_action = np.asarray(SAFE_ACTION, dtype=float)
        self._stale_count = 0
        self.safe_mode = False
        self._recovery = 0
        self.stats: Dict[str, int] = {
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

    def start(self) -> Optional[SensorReading]:
        """Start the node end; return the first reading if it got through."""
        self.node.start()
        return self._ingest_readings()

    def stop(self) -> None:
        self.node.stop()

    def poll(self, step: int) -> Tuple[str, Optional[SensorReading]]:
        """Service acks and readings; return this interval's verdict.

        ``step`` is the runtime's step number, for the trace.
        """
        now = self.engine.now
        self._service_acks(now)
        reading = self._ingest_readings()
        if not self.cfg.degraded_mode:
            if reading is None:
                self.stats["blind_windows"] += 1
                return "blind", None
            return "fresh", reading
        if reading is None or now - reading.t_sent > STALE_TOLERANCE + 1e-12:
            self._stale(now, step, have_reading=reading is not None)
            return "stale", None
        # Any fresh reading, recovering or not, ends the stale streak.
        self._stale_count = 0
        if self.safe_mode:
            self._recovery += 1
            if self._recovery < RECOVERY_WINDOWS:
                return "recovering", reading
            self.safe_mode = False
            self._recovery = 0
        return "fresh", reading

    def publish(self, action) -> None:
        """Send ``action`` as the next command; it supersedes the pending one."""
        self.cmd_seq += 1
        self.pending = ActuatorCommand(
            seq=self.cmd_seq,
            t_sent=self.engine.now,
            base_freq=float(action[0]),
            scaling_coef=float(action[1]),
        )
        self._acked = self.lost = False
        self.last_action = np.asarray(action, dtype=float).copy()
        self.bus.command.publish(self.pending)

    # ---------------------------------------------------------------- internal

    def _ingest_readings(self) -> Optional[SensorReading]:
        """Drain the sensor channel; return the newest unseen reading.

        Of several new readings only the newest wins: its predecessors
        describe windows that are already history.
        """
        newest, valid = None, 0
        for msg in self.bus.sensor.poll(self.engine.now):
            if getattr(msg, "schema", None) != CONTROL_SCHEMA:
                self.stats["bad_schema"] += 1
                continue
            valid += 1
            if msg.seq > (self._reading_seq if newest is None else newest.seq):
                newest = msg
        # Every valid reading but the newest unseen one is suppressed.
        self.stats["suppressed_readings"] += valid - (newest is not None)
        if newest is not None:
            self._reading_seq = newest.seq
        return newest

    def _service_acks(self, now: float) -> None:
        """Match delivered acks to the pending command; retry on timeout."""
        pending = self.pending
        for ack in self.bus.ack.poll(now):
            if getattr(ack, "schema", None) != CONTROL_SCHEMA:
                self.stats["bad_schema"] += 1
            elif pending is not None and ack.cmd_seq == pending.seq:
                self._acked = True
        if (
            not self.cfg.degraded_mode
            or pending is None
            or self._acked
            or self.lost
            or now - pending.t_sent < ACK_TIMEOUT
        ):
            return
        if pending.attempt >= MAX_RETRIES:
            self.lost = True
            self.stats["commands_lost"] += 1
            return
        self.pending = replace(pending, t_sent=now, attempt=pending.attempt + 1)
        self.stats["retries"] += 1
        if self._trace is not None:
            self._trace.emit(
                "cmd-retry", t=now, cmd_seq=pending.seq, attempt=self.pending.attempt
            )
        self.bus.command.publish(self.pending)

    def _stale(self, now: float, step: int, have_reading: bool) -> None:
        """Count a stale window; hold, or escalate to ``SAFE_ACTION``."""
        self._stale_count += 1
        self._recovery = 0
        self.stats["stale_windows"] += 1
        if self._trace is not None:
            self._trace.emit(
                "stale-window",
                t=now,
                step=step,
                consecutive=self._stale_count,
                have_reading=have_reading,
            )
        if self._stale_count < DEADLINE_MISSES:
            return
        if not self.safe_mode:
            self.safe_mode = True
            self.stats["safe_escalations"] += 1
        self.stats["deadline_misses"] += 1
        if self._trace is not None:
            self._trace.emit(
                "deadline-miss",
                t=now,
                side="controller",
                misses=self._stale_count,
                engaged=True,
            )
        self.publish(SAFE_ACTION)

    # ------------------------------------------------------------------- views

    def control_stats(self) -> dict:
        """``loop`` (this end), ``bus`` (per channel) and ``node`` counters."""
        return {
            "loop": dict(self.stats),
            "bus": self.bus.stats(),
            "node": dict(self.node.stats),
        }

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        pending = None
        if self.pending is not None:
            cmd = self.pending
            pending = {
                "seq": cmd.seq,
                "base_freq": cmd.base_freq,
                "scaling_coef": cmd.scaling_coef,
                "attempts": cmd.attempt,
                "acked": self._acked,
                "lost": self.lost,
                # Stored as an age: a resumed loop re-anchors on its new
                # engine clock.
                "sent_age": self.engine.now - cmd.t_sent,
            }
        return {
            "reading_seq": self._reading_seq,
            "cmd_seq": self.cmd_seq,
            "pending": pending,
            "last_action": np.array(self.last_action),
            "stale_count": self._stale_count,
            "safe_mode": self.safe_mode,
            "recovery": self._recovery,
            "stats": dict(self.stats),
            "bus": self.bus.state_dict(),
            "endpoint": self.node.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._reading_seq = int(state["reading_seq"])
        self.cmd_seq = int(state["cmd_seq"])
        p = state["pending"]
        self.pending = None
        self._acked = self.lost = False
        if p is not None:
            self.pending = ActuatorCommand(
                seq=p["seq"],
                t_sent=self.engine.now - p["sent_age"],
                base_freq=p["base_freq"],
                scaling_coef=p["scaling_coef"],
                attempt=p["attempts"],
            )
            self._acked, self.lost = p["acked"], p["lost"]
        self.last_action = np.asarray(state["last_action"], dtype=float)
        self._stale_count = int(state["stale_count"])
        self.safe_mode = bool(state["safe_mode"])
        self._recovery = int(state["recovery"])
        self.stats.update(state["stats"])
        self.bus.load_state_dict(state["bus"])
        self.node.load_state_dict(state["endpoint"])


class NodeEndpoint:
    """Sensor/actuator daemon for one (simulated) node."""

    def __init__(
        self,
        engine: Engine,
        server: Server,
        monitor: PowerMonitor,
        controller,
        bus: ControlBus,
        cfg: ControlPlaneConfig,
        long_time: float,
        trace=None,
    ) -> None:
        self.engine = engine
        self.server = server
        self.monitor = monitor
        self.controller = controller
        self.bus = bus
        self.cfg = cfg
        self.long_time = float(long_time)
        #: Seconds without a valid command before the fallback engages.
        self.deadline = DEADLINE_MISSES * self.long_time
        self._trace = trace
        self._task: Optional[PeriodicTask] = None
        self._reading_seq = 0
        self._ack_seq = 0
        self._applied_seq = 0
        self._last_cmd_time = engine.now
        self.safe_engaged = False
        self._restored = False
        #: The SLA-safe fallback: pins every core at turbo while engaged.
        self._governor = PerformanceGovernor(engine, server.cpu)
        self.stats: Dict[str, int] = {
            "readings": 0,
            "applied": 0,
            "suppressed_commands": 0,
            "bad_schema": 0,
            "deadline_misses": 0,
            "safe_engagements": 0,
        }
        bus.command.subscribe(self._on_command)

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Publish the initial (empty-window) reading and begin sampling.

        A freshly constructed endpoint starts its deadline timer at
        ``now``; a restored one keeps the snapshot's command age (and
        re-engages the safe governor if it was engaged), so a controller
        resuming into a still-broken bus stays protected.
        """
        if self._restored:
            self._restored = False
            if self.safe_engaged:
                self.engage()
        else:
            self._last_cmd_time = self.engine.now
        self.publish_reading()
        self._task = self.engine.every(
            self.long_time, self._sample, priority=PRIORITY_CONTROL + 1
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
        self._governor.stop()

    # ------------------------------------------------------------------ sensor

    def publish_reading(self) -> None:
        """Snapshot telemetry + energy window and publish one reading.

        The endpoint — not the controller — owns the window resets:
        ``snapshot()`` and ``window_energy()`` both close their window on
        call, so sampling must happen node-side exactly once per interval
        regardless of whether the reading survives the bus.
        """
        snap = self.server.telemetry.snapshot()
        energy = self.monitor.window_energy()
        self._reading_seq += 1
        self.stats["readings"] += 1
        self.bus.sensor.publish(
            SensorReading(
                seq=self._reading_seq,
                t_sent=self.engine.now,
                snapshot=snap,
                energy=energy,
            )
        )

    def _sample(self) -> None:
        self._check_deadline()
        self.publish_reading()

    # ---------------------------------------------------------------- actuator

    def _on_command(self, cmd: ActuatorCommand) -> None:
        if getattr(cmd, "schema", None) != CONTROL_SCHEMA:
            self.stats["bad_schema"] += 1
            return
        now = self.engine.now
        if cmd.seq <= self._applied_seq:
            # Duplicate (retry of an already-applied command) or a
            # reordered straggler superseded by a newer command: suppress
            # the application but ack anyway so a lost ack is recoverable.
            self.stats["suppressed_commands"] += 1
            self._publish_ack(cmd.seq, applied=False)
            return
        if self.safe_engaged:
            self.release()
            self.safe_engaged = False
        self.controller.set_params(cmd.base_freq, cmd.scaling_coef)
        self._applied_seq = cmd.seq
        self._last_cmd_time = now
        self.stats["applied"] += 1
        self._publish_ack(cmd.seq, applied=True)

    def _publish_ack(self, cmd_seq: int, applied: bool) -> None:
        self._ack_seq += 1
        self.bus.ack.publish(
            CommandAck(
                seq=self._ack_seq,
                t_sent=self.engine.now,
                cmd_seq=cmd_seq,
                applied=applied,
            )
        )

    # --------------------------------------------------------------- safe mode

    def engage(self) -> None:
        """Bench the thread controller and pin the cores with the fallback
        governor.  Re-engaging re-pins turbo, so a silently failed DVFS
        write cannot stick."""
        self.controller.stop()
        self._governor.start()

    def release(self, params: Optional[Sequence[float]] = None) -> None:
        """Hand the cores back to the thread controller, first setting its
        ``(BaseFreq, ScalingCoef)`` to ``params`` when given."""
        self._governor.stop()
        if params is not None:
            self.controller.set_params(*params)
        self.controller.start()

    def _check_deadline(self) -> None:
        if not self.cfg.degraded_mode:
            return
        now = self.engine.now
        age = now - self._last_cmd_time
        if age <= self.deadline + 1e-12:
            return
        self.stats["deadline_misses"] += 1
        if self._trace is not None:
            self._trace.emit(
                "deadline-miss",
                t=now,
                side="node",
                age=age,
                engaged=not self.safe_engaged,
            )
        if not self.safe_engaged:
            self.safe_engaged = True
            self.stats["safe_engagements"] += 1
            self.engage()

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        return {
            "reading_seq": self._reading_seq,
            "ack_seq": self._ack_seq,
            "applied_seq": self._applied_seq,
            # Stored as an age: a resumed endpoint re-anchors on its new
            # engine clock (the environment is not part of the snapshot).
            "last_cmd_age": self.engine.now - self._last_cmd_time,
            "safe_engaged": self.safe_engaged,
            "stats": dict(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        self._reading_seq = int(state["reading_seq"])
        self._ack_seq = int(state["ack_seq"])
        self._applied_seq = int(state["applied_seq"])
        self._last_cmd_time = self.engine.now - float(state["last_cmd_age"])
        self.safe_engaged = bool(state["safe_engaged"])
        self.stats.update(state["stats"])
        self._restored = True
