"""The bottom layer of DeepPower's hierarchy: the thread controller.

Paper Algorithm 1, executed every ``ShortTime`` (default 1 ms):

    for each worker thread i:
        consumed = (now - beginTimes[i]) / SLA
        score    = consumed * ScalingCoef + BaseFreq
        if score >= 1:  set core i to turbo
        else:           set core i to fmin + (fmax - fmin) * score

An idle core has no begin time; consumed is 0 and the core runs at the
BaseFreq-interpolated frequency (visible in the paper's Fig 4, where the
frequency floor between requests tracks BaseFreq).  The score grows linearly
with the time a request has been executing, so short requests finish at low
frequency while long (tail) requests are progressively accelerated up to
turbo — the gradual ramp that distinguishes DeepPower from per-request
frequency selection.
"""

from __future__ import annotations

import math
from math import ceil
from time import perf_counter
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..server.server import Server
from ..sim.engine import Engine, PeriodicTask
from ..sim.events import PRIORITY_CONTROL

__all__ = ["ThreadController", "FixedController"]


class ThreadController:
    """Per-core frequency scaler driven by ``(BaseFreq, ScalingCoef)``.

    Parameters
    ----------
    engine, server:
        The simulation engine and the server whose workers are controlled.
        Each worker is pinned to one core; the controller scales exactly
        those cores.
    short_time:
        Tick interval (paper ``ShortTime``); defaults to the app profile's.
    """

    def __init__(
        self,
        engine: Engine,
        server: Server,
        short_time: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.server = server
        self.table = server.cpu.table
        self.sla = server.sla
        self.short_time = short_time if short_time is not None else server.app.short_time
        if self.short_time <= 0:
            raise ValueError("short_time must be positive")
        self.base_freq = 1.0
        self.scaling_coef = 0.0
        self._task: Optional[PeriodicTask] = None
        self.tick_count = 0
        # Everything the tick reads that never changes, unpacked in one go:
        # the SLA, the score -> frequency interpolation (fmin, fmax - fmin,
        # turbo) and FrequencyTable.quantize's constants (fmax, step, the
        # levels and the top sustained index).  A controller keeps under
        # 30 attributes, past which CPython gives up its shared-key dict
        # (about 1.3 KB more per instance).
        table = self.table
        levels = table.levels
        self._consts = (
            self.sla, table.fmin, table.fmax - table.fmin, table.turbo,
            table.fmax, table.step, levels, len(levels) - 2,
        )
        self.cpu = server.cpu
        # Levels that depend on (base_freq, ceiling) only, refreshed by the
        # tick when either moves: an idle core's raw request and level, and
        # the levels of a turbo score and of a request above the ceiling.
        self._key_base = math.nan
        self._key_ceiling = math.nan
        self._idle_raw = self._idle = self._top = self._capped = 0.0
        # Fleet-batch hook: when a FleetBatch has adopted this controller's
        # tick, it mirrors (base_freq, scaling_coef) into its stacked
        # parameter arrays through this callback on every set_params.
        self._params_listener: Optional[Callable[["ThreadController"], None]] = None
        # Set while a FleetBatch runs this controller's ticks: start() and
        # stop() then raise, since a restarted per-node task would tick
        # alongside the fleet tick and a stopped one would not stop it.
        self._adopted = False
        # Observability (all opt-in; the default costs one branch per tick).
        self._win = False
        self._win_ticks = 0
        self._win_sum = 0.0
        self._win_min = math.inf
        self._win_max = -math.inf

    # ----------------------------------------------------------------- control

    def set_params(self, base_freq: float, scaling_coef: float) -> None:
        """Update the two DRL-provided parameters (both clipped to [0, 1])."""
        self.base_freq = float(np.clip(base_freq, 0.0, 1.0))
        self.scaling_coef = float(np.clip(scaling_coef, 0.0, 1.0))
        if self._params_listener is not None:
            self._params_listener(self)

    def start(self) -> None:
        """Begin ticking every ``short_time`` (idempotent).

        Cores hosting no worker thread are parked at fmin: the controller
        manages worker cores only (paper: workers on socket 0, support
        threads elsewhere).  Raises ``RuntimeError`` while a
        :class:`~repro.cluster.batch.FleetBatch` has adopted the ticks.
        """
        self._check_not_adopted("start")
        for core in self.server.cpu.cores[self.server.num_workers :]:
            core.set_frequency(self.table.fmin)
        if self._task is None or self._task.stopped:
            self._task = self.engine.every(
                self.short_time, self.tick, start_delay=0.0, priority=PRIORITY_CONTROL
            )

    def stop(self) -> None:
        """Stop ticking; raises ``RuntimeError`` while adopted, as
        :meth:`start` does."""
        self._check_not_adopted("stop")
        if self._task is not None:
            self._task.stop()

    def _check_not_adopted(self, what: str) -> None:
        if self._adopted:
            raise RuntimeError(
                f"ThreadController.{what}() while a fleet tick runs this "
                "controller; detach the FleetBatch first"
            )

    # ----------------------------------------------------------- observability

    def bind_spans(self, spans) -> None:
        """Time every tick into ``spans`` under ``controller.tick``.

        Wraps :meth:`tick` with an instance-level closure (the same idiom
        the fault injectors use), so the un-profiled tick path carries no
        timing code at all.  Call before :meth:`start`.
        """
        if spans is None:
            return
        inner = self.tick

        def timed_tick() -> None:
            t0 = perf_counter()
            inner()
            spans.record("controller.tick", perf_counter() - t0)

        self.tick = timed_tick  # type: ignore[method-assign]

    def enable_window_stats(self) -> None:
        """Accumulate per-tick mean applied frequency until the next
        :meth:`window_summary` call (used by the trace's
        ``controller-window`` events)."""
        self._win = True
        self._reset_window()

    def _reset_window(self) -> None:
        self._win_ticks = 0
        self._win_sum = 0.0
        self._win_min = math.inf
        self._win_max = -math.inf

    def _win_observe(self, mean_freq: float) -> None:
        self._win_ticks += 1
        self._win_sum += mean_freq
        if mean_freq < self._win_min:
            self._win_min = mean_freq
        if mean_freq > self._win_max:
            self._win_max = mean_freq

    def window_summary(self) -> dict:
        """Frequency summary of the ticks since the previous call; resets.

        ``freq_*`` aggregate the per-tick mean worker-core frequency (GHz);
        a window with no ticks reports NaN frequencies and ``ticks=0``.
        """
        n = self._win_ticks
        out = {
            "ticks": n,
            "base_freq": self.base_freq,
            "scaling_coef": self.scaling_coef,
            "freq_mean": self._win_sum / n if n else float("nan"),
            "freq_min": self._win_min if n else float("nan"),
            "freq_max": self._win_max if n else float("nan"),
        }
        self._reset_window()
        return out

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot of the DRL-provided parameters and tick counter."""
        return {
            "base_freq": self.base_freq,
            "scaling_coef": self.scaling_coef,
            "tick_count": self.tick_count,
        }

    def load_state_dict(self, state: dict) -> None:
        self.set_params(float(state["base_freq"]), float(state["scaling_coef"]))
        self.tick_count = int(state["tick_count"])

    # -------------------------------------------------------------------- tick

    def frequency_for_score(self, score: float) -> float:
        """Algorithm 1 lines 6-10 for one score value."""
        _, fmin, fspan, turbo = self._consts[:4]
        if score >= 1.0:
            return turbo
        return self.table.quantize(fmin + fspan * score)

    def _refresh_levels(self, base: float, ceiling: float) -> None:
        """Re-derive the tick's cached levels for ``(base, ceiling)``."""
        quantize = self.table.quantize
        _, fmin, fspan, turbo = self._consts[:4]
        r = turbo if base >= 1.0 else fmin + fspan * base
        self._idle_raw = r
        self._idle = quantize(ceiling if r > ceiling else r)
        self._top = quantize(ceiling if turbo > ceiling else turbo)
        self._capped = quantize(ceiling)
        self._key_base = base
        self._key_ceiling = ceiling

    def tick(self) -> None:
        """One controller pass over all worker cores.

        One python loop fuses score, interpolation, turbo override, ceiling
        clamp, quantisation and write per core, and only cores whose
        quantised level changes get a DVFS write.  The levels that depend
        on ``(base_freq, ceiling)`` alone (an idle core's, a turbo score's
        and a request clamped to the ceiling) are cached until one of the
        two floats moves; every other request is quantised by
        :meth:`~repro.cpu.dvfs.FrequencyTable.quantize` inlined, the same
        IEEE operations in the same order.  With an armed actuator fault
        injector the same loop runs whenever
        :meth:`~repro.faults.injectors.ActuatorFaults.clean_row` takes a
        fault-free row (no delays, no offline core, no failure drawn), and
        writes through each core's unwrapped setter; any other tick
        collects the raw and quantised row (through ``quantize`` itself)
        for the injector's
        :meth:`~repro.faults.injectors.ActuatorFaults.write_row`.
        """
        now = self.engine.now
        self.tick_count += 1
        sla, fmin, fspan, turbo, fmax, step, levels, top = self._consts
        base, coef = self.base_freq, self.scaling_coef
        cpu = self.cpu
        ceiling = cpu.ceiling
        if base != self._key_base or ceiling != self._key_ceiling:
            self._refresh_levels(base, ceiling)
        idle = self._idle
        begins = self.server.begin_times().tolist()
        actuator = cpu._actuator
        if actuator is None or actuator.clean_row(len(begins)):
            # A clean row has already taken its draws: write past the
            # injector's per-core closures.
            wrapped = actuator is not None
            top_q, capped = self._top, self._capped
            for b, core in zip(begins, cpu.cores):
                if b != b:
                    q = idle
                else:
                    s = (now - b) / sla * coef + base
                    if s >= 1.0:
                        q = top_q
                    else:
                        r = fmin + fspan * s
                        if r > ceiling:
                            q = capped
                        # FrequencyTable.quantize(r), inlined.
                        elif r <= fmin:
                            q = levels[0]
                        elif r >= turbo:
                            q = turbo
                        elif r > fmax:
                            q = fmax
                        else:
                            i = ceil((r - fmin) / step - 1e-9)
                            q = levels[i if i < top else top]
                if q != core._freq:
                    if wrapped:
                        core._true_set_frequency(q, quantize=False)
                    else:
                        core.set_frequency(q, quantize=False)
        else:
            quantize = self.table.quantize
            idle_raw = self._idle_raw
            raw, row = [], []
            for b in begins:
                if b != b:
                    r, q = idle_raw, idle
                else:
                    s = (now - b) / sla * coef + base
                    r = turbo if s >= 1.0 else fmin + fspan * s
                    q = quantize(ceiling if r > ceiling else r)
                raw.append(r)
                row.append(q)
            actuator.write_row(raw, row)
        if self._win:
            self._win_observe(float(cpu._freqs[: len(begins)].mean()))


class FixedController:
    """The thread controller alone, from fixed ``(BaseFreq, ScalingCoef)``:
    the grid and fleet ``controller`` policy.  ``(0.35, 0.6)`` is Fig 4's
    operating point.  ``retune`` holds ``(time, base_freq, scaling_coef)``
    updates, scheduled at start (Fig 4's midway update)."""

    def __init__(
        self,
        ctx,
        base_freq: float = 0.35,
        scaling_coef: float = 0.6,
        retune: Sequence[Tuple[float, float, float]] = (),
    ) -> None:
        self.controller = ThreadController(ctx.engine, ctx.server)
        self.controller.set_params(base_freq, scaling_coef)
        self.retune = tuple(retune)

    def start(self) -> None:
        c = self.controller
        c.start()
        for time, base_freq, scaling_coef in self.retune:
            c.engine.schedule_at(time, c.set_params, base_freq, scaling_coef)

    def stop(self) -> None:
        self.controller.stop()
