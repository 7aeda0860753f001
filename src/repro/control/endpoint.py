"""Node-side endpoint: the simulated CPU/server behind the bus boundary.

The :class:`NodeEndpoint` is what a daemon running *on the node* would
be: it owns the sensor side (telemetry snapshots + RAPL window energy,
published as age-stamped :class:`~repro.control.messages.SensorReading`
once per DRL interval) and the actuator side (the millisecond
:class:`~repro.core.thread_controller.ThreadController`, the SLA-safe
fallback governor, and application of incoming
:class:`~repro.control.messages.ActuatorCommand`), while the policy side
of :class:`~repro.core.runtime.DeepPowerRuntime` talks to it only through
the bus and the one safe-mode pair :meth:`NodeEndpoint.engage` /
:meth:`NodeEndpoint.release`.

Hardening, node side:

* **idempotent command application** — commands are applied only when
  their ``seq`` exceeds the node's high-water mark; duplicates and
  reordered stragglers are counted, suppressed, and still acknowledged
  (re-acking a duplicate is what lets a retry recover a lost ack).
* **control deadline** — when no valid command has landed for
  ``DEADLINE_MISSES`` DRL intervals the node stops trusting the (possibly
  frozen) controller parameters and engages the fallback governor; the
  next applied command releases it.  Disabled in the no-degraded-mode
  ablation.

The runtime watchdog's trip and re-arm call the same engage/release
pair; the two triggers do not share state, so whichever acts last owns
the cores.  Both mechanisms are quiet in fault-free runs — no events, no
state changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cpu.governors import PerformanceGovernor
from ..cpu.rapl import PowerMonitor
from ..server.server import Server
from ..sim.engine import Engine, PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .bus import ControlBus
from .config import DEADLINE_MISSES, ControlPlaneConfig
from .messages import CONTROL_SCHEMA, ActuatorCommand, CommandAck, SensorReading

__all__ = ["NodeEndpoint"]


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
