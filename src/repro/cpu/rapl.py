"""RAPL-style power monitor over the simulated socket.

Intel's Running Average Power Limit interface exposes a monotonically
increasing energy counter per power domain (here: the socket running the
worker threads).  Consumers read the counter and divide deltas by elapsed
time to obtain average power over a window — exactly what DeepPower's
reward calculator does once per DRL step.

:class:`PowerMonitor` reproduces that contract, including the counter
wraparound of the physical MSR (32-bit microjoule-ish counter), which the
reading code must handle just like real RAPL clients do.

Real RAPL readings also glitch: counters stick, jump several wraps at
once, or return garbage after an SMM excursion.  ``window_energy``
therefore screens every delta against the socket's physical power
envelope — a window that implies more than ``plausible_margin`` times the
all-core-turbo socket power (or negative / non-finite energy) is clamped,
counted in ``glitch_count`` and logged (rate-limited).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..sim.engine import Engine
from .topology import Cpu

__all__ = ["EnergySample", "PowerMonitor"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnergySample:
    """One reading of the energy counter."""

    time: float
    #: Raw (possibly wrapped) counter value in joules modulo ``wrap_joules``.
    counter: float
    #: Unwrapped cumulative energy in joules.
    energy: float


class PowerMonitor:
    """Monotonic energy counter + windowed average power over a socket.

    Parameters
    ----------
    engine, cpu:
        Clock source and the monitored socket.
    wrap_joules:
        Counter wraps modulo this value (real MSR_PKG_ENERGY_STATUS wraps a
        32-bit register; with the default 15.3 µJ unit that is ~65 kJ).
        Set to ``None`` to disable wrapping.
    plausible_margin:
        Window deltas implying average power above ``plausible_margin``
        times the all-core-turbo socket power are treated as counter
        glitches and clamped (see ``glitch_count``).  ``None`` disables
        the screen.

    Examples
    --------
    >>> from repro.sim import Engine
    >>> from repro.cpu import Cpu
    >>> eng = Engine(); cpu = Cpu(eng, 2)
    >>> mon = PowerMonitor(eng, cpu)
    >>> eng.run_until(1.0)
    >>> round(mon.window_power(), 3) > 0
    True
    """

    def __init__(
        self,
        engine: Engine,
        cpu: Cpu,
        wrap_joules: Optional[float] = 65536.0,
        plausible_margin: Optional[float] = 2.0,
    ) -> None:
        self.engine = engine
        self.cpu = cpu
        self.wrap_joules = wrap_joules
        self.max_plausible_watts: Optional[float] = None
        if plausible_margin is not None:
            pm, table, n = cpu.power_model, cpu.table, cpu.num_cores
            self.max_plausible_watts = plausible_margin * pm.socket_power(
                np.full(n, table.turbo), np.ones(n, dtype=bool)
            )
        #: Implausible window deltas clamped so far (diagnostics).
        self.glitch_count = 0
        self._base_energy = cpu.energy_joules()
        self._base_time = engine.now
        self._last_sample = self.read()
        self.samples: List[EnergySample] = []
        self._trace = None

    def bind_obs(self, obs) -> None:
        """Attach the run's trace: every ``window_energy`` read emits a
        ``rapl-window`` event and every glitch a ``rapl-glitch`` event.
        The unbound default adds one branch per window read."""
        if obs is None:
            return
        self._trace = obs.trace

    # ---------------------------------------------------------------- reading

    def read(self) -> EnergySample:
        """Read the counter now (does not advance the window)."""
        e = self.cpu.energy_joules() - self._base_energy
        counter = e % self.wrap_joules if self.wrap_joules else e
        return EnergySample(time=self.engine.now, counter=counter, energy=e)

    @staticmethod
    def unwrap(prev_counter: float, counter: float, wrap: float) -> float:
        """Energy delta between two raw counter readings, wrap-aware.

        Assumes at most one wraparound between readings (true for any
        sane sampling interval, as with real RAPL).
        """
        d = counter - prev_counter
        if d < 0:
            d += wrap
        return d

    # ---------------------------------------------------------------- windows

    def window_energy(self) -> float:
        """Joules consumed since the previous window read; advances window.

        The delta is screened against the socket's physical envelope: a
        non-finite / negative delta, or one implying power beyond
        ``max_plausible_watts``, is clamped and counted as a glitch.
        """
        prev = self._last_sample
        cur = self.read()
        self._last_sample = cur
        self.samples.append(cur)
        if self.wrap_joules:
            delta = self.unwrap(prev.counter, cur.counter, self.wrap_joules)
        else:
            delta = cur.energy - prev.energy
        dt = cur.time - prev.time
        delta = self._screen_delta(delta, dt)
        if self._trace is not None:
            self._trace.emit(
                "rapl-window",
                t=cur.time,
                joules=delta,
                watts=delta / dt if dt > 0 else float("nan"),
                glitch_count=self.glitch_count,
            )
        return delta

    def _screen_delta(self, delta: float, dt: float) -> float:
        """Clamp a window delta the hardware could not have produced."""
        if self.max_plausible_watts is None:
            return delta
        if not math.isfinite(delta) or delta < 0.0:
            self._note_glitch(delta, 0.0)
            return 0.0
        ceiling = self.max_plausible_watts * max(dt, 0.0)
        if delta > ceiling:
            self._note_glitch(delta, ceiling)
            return ceiling
        return delta

    def _note_glitch(self, delta: float, replacement: float) -> None:
        self.glitch_count += 1
        if self._trace is not None:
            self._trace.emit(
                "rapl-glitch",
                t=self.engine.now,
                delta=delta if math.isfinite(delta) else repr(delta),
                replacement=replacement,
                glitch_count=self.glitch_count,
            )
        if self.glitch_count <= 3 or self.glitch_count % 100 == 0:
            _log.warning(
                "implausible RAPL window delta %.3f J clamped to %.3f J (glitch #%d)",
                delta,
                replacement,
                self.glitch_count,
            )

    def window_power(self) -> float:
        """Average watts since the previous window read; advances window."""
        prev_t = self._last_sample.time
        e = self.window_energy()
        dt = self.engine.now - prev_t
        if dt <= 0:
            return self.cpu.power_watts()
        return e / dt

    # --------------------------------------------------------------- lifetime

    def total_energy(self) -> float:
        """Joules consumed since the monitor was attached."""
        return self.read().energy

    def true_energy(self) -> float:
        """Joules the socket consumed since the monitor was attached, taken
        from the cores rather than through :meth:`read`: equal to
        :meth:`total_energy` on a healthy counter, and out of reach of the
        sensor faults that wrap ``read``."""
        return self.cpu.energy_joules() - self._base_energy

    def average_power(self) -> float:
        """Average watts since the monitor was attached."""
        dt = self.engine.now - self._base_time
        if dt <= 0:
            return self.cpu.power_watts()
        return self.total_energy() / dt

    def reset(self) -> None:
        """Re-zero the monitor at the current instant."""
        self._base_energy = self.cpu.energy_joules()
        self._base_time = self.engine.now
        self._last_sample = self.read()
        self.samples.clear()
