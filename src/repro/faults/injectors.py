"""Fault injectors: interpret a :class:`~repro.faults.plan.FaultPlan`
against a live simulated stack.

Each injector wraps the narrow surface its faults flow through — the RAPL
monitor's ``read``, the telemetry channel's ``snapshot``, every core's
``set_frequency``, the agent's replay pool — by replacing the *instance*
attribute with a faulting closure.  The wrapped object never knows; the
runtime above it experiences exactly what a real deployment would: stale
counters, lost messages, writes that lie.  Row writes (controller ticks,
:meth:`~repro.cpu.topology.Cpu.set_frequencies`) go through
:meth:`ActuatorFaults.write_row` instead, which faults a whole row with the
same draws the per-core closures would make.

Injection is armed once per run (``arm()``), is a no-op for empty plans,
and counts every fault it actually delivers in ``counts`` so experiments
can report injected-fault totals next to the watchdog's trip statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from ..cpu.rapl import EnergySample, PowerMonitor
from ..sim.engine import Engine
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.topology import Cpu
    from ..server.telemetry import TelemetryChannel

__all__ = ["SensorFaults", "ActuatorFaults", "AgentFaults", "FaultHarness"]


class _Injector:
    """Shared arm-once bookkeeping + fault counters."""

    def __init__(self, engine: Engine, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.engine = engine
        self.plan = plan
        self.rng = rng
        self.armed = False
        self.counts: Dict[str, int] = {}

    def _count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def arm(self) -> None:
        if self.armed:
            return
        self.armed = True
        if self.plan.is_empty:
            return
        self._arm()

    def _arm(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SensorFaults(_Injector):
    """Telemetry-side faults: stale/frozen RAPL, counter glitches, noise,
    dropped telemetry snapshots.

    Parameters
    ----------
    engine, plan, rng:
        Clock, scenario, and the seeded stream for stochastic faults.
    monitor:
        The :class:`~repro.cpu.rapl.PowerMonitor` whose reads are faulted
        (optional — telemetry-only scenarios may omit it).
    telemetry:
        The server's telemetry channel whose snapshots may be dropped.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        monitor: Optional[PowerMonitor] = None,
        telemetry: Optional["TelemetryChannel"] = None,
    ) -> None:
        super().__init__(engine, plan, rng)
        self.monitor = monitor
        self.telemetry = telemetry
        self._frozen_until = -math.inf
        self._frozen_sample: Optional[EnergySample] = None
        self._pending_jump = 0.0
        self._drop_until = -math.inf
        self._last_snapshot = None

    # ----------------------------------------------------------------- wiring

    def _arm(self) -> None:
        if self.monitor is not None:
            self._wrap_monitor(self.monitor)
            for ev in self.plan.events_of("sensor.freeze"):
                self.engine.schedule_at(ev.time, self._begin_freeze, ev.end)
            for ev in self.plan.events_of("sensor.glitch"):
                self.engine.schedule_at(ev.time, self._queue_glitch, ev.magnitude)
        if self.telemetry is not None:
            self._wrap_telemetry(self.telemetry)
            for ev in self.plan.events_of("telemetry.drop"):
                self.engine.schedule_at(ev.time, self._begin_drop, ev.end)

    def _wrap_monitor(self, monitor: PowerMonitor) -> None:
        true_read = monitor.read

        def faulted_read() -> EnergySample:
            now = self.engine.now
            if now < self._frozen_until and self._frozen_sample is not None:
                self._count("sensor.freeze")
                return EnergySample(
                    time=now,
                    counter=self._frozen_sample.counter,
                    energy=self._frozen_sample.energy,
                )
            sample = true_read()
            counter, energy = sample.counter, sample.energy
            if self._pending_jump:
                self._count("sensor.glitch")
                counter += self._pending_jump
                energy += self._pending_jump
                self._pending_jump = 0.0
            if self.plan.sensor_noise_std > 0.0:
                eps = self.rng.normal(0.0, self.plan.sensor_noise_std)
                self._count("sensor.noise")
                counter += eps
                energy += eps
            if monitor.wrap_joules:
                counter %= monitor.wrap_joules
            return EnergySample(time=now, counter=counter, energy=energy)

        self._true_read = true_read
        monitor.read = faulted_read  # type: ignore[method-assign]

    def _wrap_telemetry(self, telemetry: "TelemetryChannel") -> None:
        true_snapshot = telemetry.snapshot

        def faulted_snapshot():
            # The server always *produces* the snapshot (its window counters
            # reset either way); a drop loses it in transit, so the consumer
            # keeps seeing the last message that made it through.
            snap = true_snapshot()
            dropped = self.engine.now < self._drop_until
            if not dropped and self.plan.telemetry_drop_prob > 0.0:
                dropped = self.rng.random() < self.plan.telemetry_drop_prob
            if dropped and self._last_snapshot is not None:
                self._count("telemetry.drop")
                return self._last_snapshot
            self._last_snapshot = snap
            return snap

        telemetry.snapshot = faulted_snapshot  # type: ignore[method-assign]

    # ------------------------------------------------------------- schedulers

    def _begin_freeze(self, until: float) -> None:
        self._frozen_sample = self._true_read()
        self._frozen_until = until

    def _queue_glitch(self, joules: float) -> None:
        self._pending_jump += joules

    def _begin_drop(self, until: float) -> None:
        self._drop_until = until


class ActuatorFaults(_Injector):
    """DVFS-side faults: writes that silently fail, switch-latency spikes,
    and transient core offlining (parked at fmin, writes ignored).

    Armed, it wraps every core's ``set_frequency`` (for single writers:
    ceiling clamps, governors, baselines) and registers itself as its
    socket's row writer, :meth:`write_row`, for batched writes.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        cpu: "Cpu",
    ) -> None:
        super().__init__(engine, plan, rng)
        self.cpu = cpu
        self._offline_until: Dict[int, float] = {}

    def _arm(self) -> None:
        if self.cpu._actuator is not None:
            raise ValueError("cpu already has an armed actuator fault injector")
        for core in self.cpu.cores:
            self._wrap_core(core)
        self.cpu._actuator = self
        for ev in self.plan.events_of("actuator.offline"):
            if not 0 <= ev.target < self.cpu.num_cores:
                raise ValueError(f"actuator.offline target {ev.target} out of range")
            self.engine.schedule_at(ev.time, self._begin_offline, ev.target, ev.end)

    def _wrap_core(self, core) -> None:
        true_set = core.set_frequency
        plan = self.plan

        def faulted_set(freq: float, *, quantize: bool = True) -> float:
            if self.engine.now < self._offline_until.get(core.core_id, -math.inf):
                self._count("actuator.offline_write")
                return core.frequency
            if plan.dvfs_fail_prob > 0.0 and self.rng.random() < plan.dvfs_fail_prob:
                self._count("actuator.write_fail")
                return core.frequency
            if plan.dvfs_delay_prob > 0.0 and self.rng.random() < plan.dvfs_delay_prob:
                self._count("actuator.delay")
                self.engine.schedule_after(plan.dvfs_delay, true_set, freq)
                return core.frequency
            return true_set(freq, quantize=quantize)

        core.set_frequency = faulted_set
        if not hasattr(core, "_true_set_frequency"):
            core._true_set_frequency = true_set

    def write_row(self, raw: Sequence[float], levels: Sequence[float]) -> None:
        """Fault one batched write to ``cores[:n]``, ``n = len(levels)``.

        ``raw[i]`` is core ``i``'s request and ``levels[i]`` the same
        request clamped to the ceiling and quantised.  Makes exactly the
        draws, counts and delayed (raw) writes that ``n`` sequential
        per-core ``set_frequency`` calls would: an offline core draws
        nothing, a fail-only plan draws one ``rng.random(k)`` block for the
        ``k`` online cores (the same stream as ``k`` scalar draws), and a
        plan with delays keeps the conditional second draw in order.  Only
        levels that change reach the core.
        """
        cores = self.cpu.cores
        n = len(levels)
        plan = self.plan
        fail_p, delay_p = plan.dvfs_fail_prob, plan.dvfs_delay_prob
        now = self.engine.now
        offline = self._offline_until
        rng = self.rng
        draws = None
        if fail_p > 0.0 and delay_p == 0.0:
            k = n
            if offline:
                k -= sum(1 for i in range(n) if now < offline.get(i, -math.inf))
            draws = rng.random(k).tolist()
        j = 0
        for i in range(n):
            core = cores[i]
            if offline and now < offline.get(i, -math.inf):
                self._count("actuator.offline_write")
                continue
            if draws is not None:
                failed = draws[j] < fail_p
                j += 1
            else:
                failed = fail_p > 0.0 and rng.random() < fail_p
            if failed:
                self._count("actuator.write_fail")
            elif delay_p > 0.0 and rng.random() < delay_p:
                self._count("actuator.delay")
                self.engine.schedule_after(
                    plan.dvfs_delay, core._true_set_frequency, float(raw[i])
                )
            elif levels[i] != core._freq:
                core._true_set_frequency(levels[i], quantize=False)

    def _begin_offline(self, core_id: int, until: float) -> None:
        core = self.cpu[core_id]
        self._count("actuator.offline")
        core._true_set_frequency(self.cpu.table.fmin)
        self._offline_until[core_id] = until


class AgentFaults(_Injector):
    """Learner-side faults: replay-pool corruption and forced non-finite
    losses, delivered by poisoning stored transitions.

    ``agent.corrupt_replay`` NaN-poisons ``magnitude`` of the pool (state
    and reward slots); ``agent.nan_loss`` plants a single ``+inf`` reward,
    the minimal seed that turns any batch containing it into a non-finite
    loss.  Both exercise the guarded ``update()`` path, which must skip the
    batch and count it instead of training the networks on garbage.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        agent,
    ) -> None:
        super().__init__(engine, plan, rng)
        self.agent = agent

    def _arm(self) -> None:
        for ev in self.plan.events_of("agent.corrupt_replay"):
            self.engine.schedule_at(ev.time, self._corrupt_replay, ev.magnitude)
        for ev in self.plan.events_of("agent.nan_loss"):
            self.engine.schedule_at(ev.time, self._plant_inf_reward)

    def _corrupt_replay(self, fraction: float) -> None:
        buf = self.agent.replay
        n = len(buf)
        if n == 0:
            return
        k = max(1, int(round(fraction * n)))
        idx = self.rng.integers(0, n, size=k)
        buf._states[idx, 0] = np.nan
        buf._rewards[idx] = np.nan
        self._count("agent.corrupt_replay", k)

    def _plant_inf_reward(self) -> None:
        buf = self.agent.replay
        if len(buf) == 0:
            return
        buf._rewards[int(self.rng.integers(0, len(buf)))] = np.inf
        self._count("agent.nan_loss")


class FaultHarness:
    """Bundle the three injectors for one run.

    Builds only the injectors whose targets were provided, arms them all
    with one call, and aggregates their fault counters.  With an empty
    plan, ``arm()`` wraps nothing and draws nothing — the run is bitwise
    identical to an un-instrumented one.
    """

    def __init__(
        self,
        plan: FaultPlan,
        engine: Engine,
        *,
        cpu: Optional["Cpu"] = None,
        monitor: Optional[PowerMonitor] = None,
        telemetry: Optional["TelemetryChannel"] = None,
        agent=None,
    ) -> None:
        self.plan = plan
        self.engine = engine
        # Independent streams per injector: faults in one subsystem never
        # perturb the draw sequence of another.
        self.sensor = SensorFaults(
            engine, plan, np.random.default_rng([plan.seed, 1]),
            monitor=monitor, telemetry=telemetry,
        )
        self.actuator = (
            ActuatorFaults(engine, plan, np.random.default_rng([plan.seed, 2]), cpu)
            if cpu is not None
            else None
        )
        self.agent_faults = (
            AgentFaults(engine, plan, np.random.default_rng([plan.seed, 3]), agent)
            if agent is not None
            else None
        )

    def arm(self) -> "FaultHarness":
        self.sensor.arm()
        if self.actuator is not None:
            self.actuator.arm()
        if self.agent_faults is not None:
            self.agent_faults.arm()
        return self

    @property
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = dict(self.sensor.counts)
        for inj in (self.actuator, self.agent_faults):
            if inj is not None:
                for k, v in inj.counts.items():
                    merged[k] = merged.get(k, 0) + v
        return merged

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())
