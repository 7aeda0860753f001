"""Single CPU core model: frequency state, busy/idle, exact energy metering.

A core executes *work* measured in GHz-seconds (i.e. billions of cycles):
a request carrying ``work = w`` finishes after ``w / f`` seconds at a fixed
frequency ``f``.  When the frequency changes mid-request the owner (a
:class:`repro.server.worker.Worker`) is notified so it can re-derive the
completion time from the remaining work — this is what makes millisecond-
scale DVFS (the paper's thread controller) affect in-flight requests.

Energy is metered exactly: the core integrates ``P(f, busy)`` lazily,
accumulating on every state transition (frequency change, busy/idle edge)
and on demand at reads.  No sampling error is introduced, matching the
counter semantics of Intel RAPL.  The power model is immutable, so ``P`` is
evaluated once per frequency level and cached.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..sim.engine import Engine
from .dvfs import FrequencyTable
from .power import PowerModel

__all__ = ["Core"]

FreqListener = Callable[["Core", float, float], None]


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
    """

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        table: FrequencyTable,
        power_model: PowerModel,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.table = table
        self.power_model = power_model

        self._freq = table.fmax
        self._busy = False
        # Frequency -> (idle watts, busy watts), filled on first use; the
        # current level's pair is indexed with the busy flag.
        self._power_pairs: Dict[float, Tuple[float, float]] = {}
        self._watts = self._power_pair(self._freq)
        self._energy = 0.0
        self._busy_time = 0.0
        self._last_t = engine.now
        self.switch_count = 0
        self._listeners: List[FreqListener] = []
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

    def add_frequency_listener(self, fn: FreqListener) -> None:
        """Register ``fn(core, old_freq, new_freq)`` on every real change."""
        self._listeners.append(fn)

    # ----------------------------------------------------------------- control

    def set_frequency(self, freq: float, *, quantize: bool = True) -> float:
        """Set the core frequency; returns the (quantised) applied value.

        Equivalent to writing ``scaling_setspeed`` under the userspace
        governor: the request snaps to a P-state, and a no-op write (same
        level) costs nothing.  Requests above the socket's ceiling (see
        :meth:`~repro.cpu.topology.Cpu.set_ceiling`) are clamped to it
        first.
        """
        if freq > self._ceiling:
            freq = self._ceiling
        f = self.table.quantize(freq) if quantize else freq
        if f == self._freq:
            return f
        self._advance()
        old = self._freq
        self._freq = f
        self._watts = self._power_pair(f)
        self.switch_count += 1
        for fn in self._listeners:
            fn(self, old, f)
        return f

    def set_busy(self, busy: bool) -> None:
        """Mark the core busy (executing) or idle.  Idempotent."""
        if busy == self._busy:
            return
        self._advance()
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
        pair = self._power_pairs.get(freq)
        if pair is None:
            pm = self.power_model
            pair = (pm.core_power(freq, False), pm.core_power(freq, True))
            self._power_pairs[freq] = pair
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
