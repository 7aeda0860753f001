"""Classic Linux cpufreq governors, re-implemented over the simulated CPU.

These provide OS-level comparison points:

* ``performance`` — pin every core at max/turbo (the fallback governor a
  node endpoint engages in safe mode).
* ``ondemand``    — sample per-core utilisation every ``sampling_rate``; jump
  to max above ``up_threshold``, else pick the lowest frequency that keeps
  projected utilisation below the threshold (Linux's proportional drop).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Engine, PeriodicTask
from .core import Core
from .topology import Cpu

__all__ = ["Governor", "PerformanceGovernor", "OndemandGovernor"]


class Governor:
    """Base class: a frequency policy attached to a whole socket."""

    name = "abstract"

    def __init__(self, engine: Engine, cpu: Cpu) -> None:
        self.engine = engine
        self.cpu = cpu
        self._task: Optional[PeriodicTask] = None

    def start(self) -> None:
        """Apply the policy; periodic governors begin sampling."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop periodic sampling (static governors: no-op)."""
        if self._task is not None:
            self._task.stop()
            self._task = None


class PerformanceGovernor(Governor):
    """Pin all cores at the highest frequency (paper's no-management baseline
    runs at max computing ability — we expose ``use_turbo`` to choose turbo
    vs sustained max)."""

    name = "performance"

    def __init__(self, engine: Engine, cpu: Cpu, use_turbo: bool = True) -> None:
        super().__init__(engine, cpu)
        self.use_turbo = use_turbo

    def start(self) -> None:
        target = self.cpu.table.turbo if self.use_turbo else self.cpu.table.fmax
        self.cpu.set_all_frequencies(target)


class OndemandGovernor(Governor):
    """Linux ondemand: burst to max above the threshold, else proportional.

    Below ``up_threshold`` the next frequency is chosen so that, at the
    observed utilisation, the core would run at about ``up_threshold``
    utilisation — i.e. ``f_next = f_cur * util / up_threshold`` — mirroring
    the kernel's ``od_update``.
    """

    name = "ondemand"

    def __init__(
        self,
        engine: Engine,
        cpu: Cpu,
        sampling_rate: float = 0.01,
        up_threshold: float = 0.8,
        use_turbo: bool = True,
    ) -> None:
        super().__init__(engine, cpu)
        if sampling_rate <= 0:
            raise ValueError("sampling_rate must be > 0")
        if not 0 < up_threshold <= 1:
            raise ValueError("up_threshold must be in (0, 1]")
        self.sampling_rate = sampling_rate
        self.up_threshold = up_threshold
        self.use_turbo = use_turbo
        self._last_busy: List[float] = []

    def start(self) -> None:
        self._last_busy = [c.busy_seconds() for c in self.cpu.cores]
        self._task = self.engine.every(self.sampling_rate, self._sample)

    def _sample(self) -> None:
        for i, core in enumerate(self.cpu.cores):
            b = core.busy_seconds()
            util = (b - self._last_busy[i]) / self.sampling_rate
            self._last_busy[i] = b
            self._apply(core, min(util, 1.0))

    def _apply(self, core: Core, util: float) -> None:
        table = self.cpu.table
        if util >= self.up_threshold:
            core.set_frequency(table.turbo if self.use_turbo else table.fmax)
        else:
            target = core.frequency * util / self.up_threshold
            core.set_frequency(max(table.fmin, min(target, table.fmax)))

