"""Single CPU core model: frequency state, busy/idle, exact energy metering.

A core executes *work* measured in GHz-seconds (i.e. billions of cycles):
a request carrying ``work = w`` finishes after ``w / f`` seconds at a fixed
frequency ``f``.  When the frequency changes mid-request the pinned
:class:`repro.server.worker.Worker` re-derives the completion time from the
remaining work — this is what makes millisecond-scale DVFS (the paper's
thread controller) affect in-flight requests.

Energy is metered exactly: the core integrates ``P(f, busy)`` lazily,
accumulating on every state transition (frequency change, busy/idle edge)
and on demand at reads.  No sampling error is introduced, matching the
counter semantics of Intel RAPL.  The power model is immutable, so ``P`` is
evaluated once per frequency level and cached in a table the cores of one
socket share.

One DVFS write (:meth:`Core.set_frequency`) is the hot path of every
controller tick, so it does its whole job in one call: settle the energy
meter, switch the level and its watts, update the socket's frequency row
and retime the pinned worker's completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..sim.engine import Engine
from .dvfs import FrequencyTable
from .power import PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.worker import Worker
    from .topology import Cpu

__all__ = ["Core"]


class Core:
    """One physical core with DVFS and exact energy accounting.

    Parameters
    ----------
    engine:
        Simulation engine providing the virtual clock.
    core_id:
        Index within the CPU.
    table:
        DVFS frequency table; initial frequency is ``table.fmax``.
    power_model:
        Analytic power model used for energy integration.
    cpu:
        The socket holding this core, whose frequency row each write
        updates and whose watts table its cores share; ``None`` for a
        stand-alone core.
    """

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        table: FrequencyTable,
        power_model: PowerModel,
        *,
        cpu: Optional["Cpu"] = None,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.table = table
        self.power_model = power_model
        self._cpu = cpu
        #: The worker thread pinned here (set by the worker), retimed on
        #: every real frequency change.
        self.worker: Optional["Worker"] = None

        self._freq = table.fmax
        self._busy = False
        # Frequency -> (idle watts, busy watts), filled on first use; the
        # current level's pair is indexed with the busy flag.
        self._watts_of: Dict[float, Tuple[float, float]] = (
            {} if cpu is None else cpu._watts_of
        )
        self._watts = self._power_pair(self._freq)
        self._energy = 0.0
        self._busy_time = 0.0
        self._last_t = engine.now
        self.switch_count = 0
        # Socket-wide DVFS ceiling; owned by Cpu.set_ceiling.
        self._ceiling = table.turbo

    # ------------------------------------------------------------------ state

    @property
    def frequency(self) -> float:
        """Current frequency in GHz (always a table level)."""
        return self._freq

    @property
    def busy(self) -> bool:
        """Whether a request is currently executing on this core."""
        return self._busy

    # ----------------------------------------------------------------- control

    def set_frequency(self, freq: float, *, quantize: bool = True) -> float:
        """Set the core frequency; returns the (quantised) applied value.

        Equivalent to writing ``scaling_setspeed`` under the userspace
        governor: the request snaps to a P-state, and a no-op write (same
        level) costs nothing.  Requests above the socket's ceiling (see
        :meth:`~repro.cpu.topology.Cpu.set_ceiling`) are clamped to it
        first.  A real change settles the energy meter at the old level,
        writes the new level into the socket's frequency row and retimes a
        busy pinned worker's completion.
        """
        if freq > self._ceiling:
            freq = self._ceiling
        f = self.table.quantize(freq) if quantize else freq
        old = self._freq
        if f == old:
            return f
        # _advance(), inlined: this is the hot path of every controller tick.
        now = self.engine.now
        dt = now - self._last_t
        if dt > 0.0:
            busy = self._busy
            self._energy += self._watts[busy] * dt
            if busy:
                self._busy_time += dt
            self._last_t = now
        elif dt < 0.0:  # pragma: no cover - clock never goes backwards
            raise RuntimeError("virtual clock moved backwards")
        self._freq = f
        watts = self._watts_of.get(f)
        self._watts = watts if watts is not None else self._power_pair(f)
        self.switch_count += 1
        cpu = self._cpu
        if cpu is not None:
            cpu._freqs[self.core_id] = f
        worker = self.worker
        if worker is not None and worker.current is not None:
            worker._retime(old)
        return f

    def set_busy(self, busy: bool) -> None:
        """Mark the core busy (executing) or idle.  Idempotent.

        Settles the energy meter at the old state first, inlined as in
        :meth:`set_frequency`: every dispatch and completion lands here.
        """
        was = self._busy
        if busy == was:
            return
        now = self.engine.now
        dt = now - self._last_t
        if dt > 0.0:
            self._energy += self._watts[was] * dt
            if was:
                self._busy_time += dt
            self._last_t = now
        elif dt < 0.0:  # pragma: no cover - clock never goes backwards
            raise RuntimeError("virtual clock moved backwards")
        self._busy = busy

    # ----------------------------------------------------------------- meters

    def energy_joules(self) -> float:
        """Exact energy consumed by this core since construction (J)."""
        self._advance()
        return self._energy

    def busy_seconds(self) -> float:
        """Total time this core spent executing requests (s)."""
        self._advance()
        return self._busy_time

    def power_watts(self) -> float:
        """Instantaneous power draw (W) in the current state."""
        return self._watts[self._busy]

    # ----------------------------------------------------------------- compute

    def work_rate(self) -> float:
        """Work units retired per second at the current frequency.

        Work is measured in GHz-seconds, so the rate *is* the frequency.
        """
        return self._freq

    def time_for_work(self, work: float) -> float:
        """Seconds needed to retire ``work`` at the current frequency."""
        return work / self._freq

    # ---------------------------------------------------------------- internal

    def _power_pair(self, freq: float) -> Tuple[float, float]:
        pair = self._watts_of.get(freq)
        if pair is None:
            pm = self.power_model
            pair = (pm.core_power(freq, False), pm.core_power(freq, True))
            self._watts_of[freq] = pair
        return pair

    def _advance(self) -> None:
        now = self.engine.now
        dt = now - self._last_t
        if dt > 0.0:
            self._energy += self._watts[self._busy] * dt
            if self._busy:
                self._busy_time += dt
            self._last_t = now
        elif dt < 0.0:  # pragma: no cover - clock never goes backwards
            raise RuntimeError("virtual clock moved backwards")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self._busy else "idle"
        return f"Core(id={self.core_id}, {self._freq:.1f} GHz, {state})"
