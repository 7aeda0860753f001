"""CPU package: a socket of cores sharing a DVFS table and power model.

The paper deploys worker threads on socket 0 and measures that socket's RAPL
domain; here a :class:`Cpu` is one such socket.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..sim.engine import Engine
from .core import Core
from .dvfs import DEFAULT_TABLE, FrequencyTable
from .power import DEFAULT_POWER_MODEL, PowerModel

__all__ = ["Cpu"]

class Cpu:
    """A socket of ``num_cores`` DVFS-capable cores.

    Parameters
    ----------
    engine:
        Simulation engine (shared clock).
    num_cores:
        Cores in this package.
    table:
        DVFS table shared by all cores (per-core frequency is independent —
        the 5218R exposes per-core P-states).
    power_model:
        Analytic power model; the package constant is metered here.
    """

    def __init__(
        self,
        engine: Engine,
        num_cores: int,
        table: FrequencyTable = DEFAULT_TABLE,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
    ) -> None:
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.engine = engine
        self.table = table
        self.power_model = power_model
        # Per-core frequencies, written by each core's set_frequency, plus
        # scratch buffers for the batched (vector-quantised)
        # set_frequencies path.
        self._freqs = np.full(num_cores, table.fmax)
        self._clamp_buf = np.empty(num_cores)
        self._apply_buf = np.empty(num_cores)
        # Frequency -> (idle, busy) watts, shared by the socket's cores.
        self._watts_of: dict = {}
        self.cores: List[Core] = [
            Core(engine, i, table, power_model, cpu=self)
            for i in range(num_cores)
        ]
        self._created_at = engine.now
        #: Highest DVFS level any core may run at (see :meth:`set_ceiling`).
        self.ceiling = table.turbo
        #: Optional ``fn(cpu)`` called after every ceiling move.
        self._ceiling_listener: Optional[Callable[["Cpu"], None]] = None
        #: Armed :class:`~repro.faults.injectors.ActuatorFaults`, which
        #: takes over batched writes (see :meth:`set_frequencies`).
        self._actuator = None

    # ------------------------------------------------------------------ sizes

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, idx: int) -> Core:
        return self.cores[idx]

    def __iter__(self):
        return iter(self.cores)

    # ----------------------------------------------------------------- control

    def set_all_frequencies(self, freq: float) -> None:
        """Set every core to ``freq`` (quantised)."""
        for core in self.cores:
            core.set_frequency(freq)

    def set_ceiling(self, level: float) -> None:
        """Cap every core's frequency at ``level`` (a table level).

        Every later write is clamped to the ceiling before quantisation;
        cores already above it are clamped now, through each core's
        ``set_frequency`` attribute so an armed fault injector sees the
        write.  ``table.turbo`` lifts the cap.
        """
        self.ceiling = level
        for core in self.cores:
            core._ceiling = level
        for core in self.cores:
            if core.frequency > level:
                core.set_frequency(level)
        if self._ceiling_listener is not None:
            self._ceiling_listener(self)

    def set_frequencies(
        self, freqs: Sequence[float], count: Optional[int] = None
    ) -> np.ndarray:
        """Batched per-core frequency assignment, quantised vector-wise.

        With ``count=None`` (historic API) ``len(freqs)`` must equal the
        core count; with ``count=k`` only ``cores[:k]`` are driven from
        ``freqs[:k]`` (the thread controller scales worker cores only).

        Only cores whose quantised level actually changes are touched, so a
        1 ms tick that moves two of twenty cores costs two DVFS writes, not
        twenty no-op calls.  Requests are clamped to :attr:`ceiling` and
        quantised in one numpy pass.  Returns the applied (clamped,
        quantised) frequencies for ``cores[:k]`` in a buffer that is
        *reused across calls* — copy to retain.

        With an armed actuator fault injector the row goes to its
        :meth:`~repro.faults.injectors.ActuatorFaults.write_row`, which
        faults it with the draws one write per core would make.
        """
        cores = self.cores
        n = len(cores) if count is None else int(count)
        if count is None:
            if len(freqs) != len(cores):
                raise ValueError(
                    f"expected {len(cores)} frequencies, got {len(freqs)}"
                )
        elif not 0 <= n <= len(cores) or len(freqs) < n:
            raise ValueError(
                f"count must be in 0..{len(cores)} with len(freqs) >= count"
            )
        applied = self._apply_buf[:n]
        actuator = self._actuator
        if actuator is not None:
            vals = freqs.tolist() if isinstance(freqs, np.ndarray) else freqs
            quantize = self.table.quantize
            ceiling = self.ceiling
            actuator.write_row(
                vals, [quantize(ceiling if v > ceiling else v) for v in vals[:n]]
            )
            np.copyto(applied, self._freqs[:n])
            return applied
        clamped = self._clamp_buf[:n]
        np.minimum(np.asarray(freqs, dtype=float)[:n], self.ceiling, out=clamped)
        self.table.quantize_into(clamped, applied)
        idx = np.flatnonzero(applied != self._freqs[:n])
        for i, f in zip(idx.tolist(), applied[idx].tolist()):
            cores[i].set_frequency(f, quantize=False)
        return applied

    # ------------------------------------------------------------------ meters

    def frequencies(self) -> np.ndarray:
        """Current per-core frequencies (GHz), as a fresh copy."""
        return self._freqs.copy()

    def busy_mask(self) -> np.ndarray:
        """Boolean per-core busy flags."""
        return np.array([c.busy for c in self.cores])

    def busy_count(self) -> int:
        """Number of cores currently executing a request."""
        return sum(1 for c in self.cores if c.busy)

    def utilization(self) -> float:
        """Instantaneous fraction of busy cores."""
        return self.busy_count() / len(self.cores)

    def energy_joules(self) -> float:
        """Socket energy: all cores + package constant since construction."""
        core_e = sum(c.energy_joules() for c in self.cores)
        pkg_e = self.power_model.package_watts * (self.engine.now - self._created_at)
        return core_e + pkg_e

    def power_watts(self) -> float:
        """Instantaneous socket power draw (W)."""
        return self.power_model.package_watts + sum(c.power_watts() for c in self.cores)

    def total_switches(self) -> int:
        """Total DVFS transitions across all cores."""
        return sum(c.switch_count for c in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cpu(cores={len(self.cores)}, table={self.table.fmin}-{self.table.turbo} GHz)"

