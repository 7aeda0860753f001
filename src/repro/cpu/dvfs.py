"""DVFS frequency table: discrete P-state levels plus turbo.

Mirrors the control surface exposed by the Linux ``userspace`` cpufreq
governor used in the paper (Intel Xeon Gold 5218R: 0.8–2.1 GHz in 100 MHz
steps, plus turbo).  Policies request an arbitrary frequency; the table
quantises it to a supported level, exactly as ``scaling_setspeed`` snaps to
the ACPI P-state table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FrequencyTable", "DEFAULT_TABLE"]


@dataclass(frozen=True)
class FrequencyTable:
    """Discrete DVFS levels in GHz.

    Parameters
    ----------
    fmin, fmax:
        Lowest / highest *sustained* (non-turbo) frequency, GHz.
    step:
        P-state granularity, GHz.
    turbo:
        Opportunistic boost frequency, GHz.  ``turbo > fmax``.

    Examples
    --------
    >>> t = FrequencyTable()
    >>> t.fmin, t.fmax, t.turbo
    (0.8, 2.1, 3.0)
    >>> t.quantize(1.234)
    1.3
    >>> t.quantize(5.0)   # clamped to turbo
    3.0
    >>> t.from_score(0.5)   # linear interpolation fmin..fmax
    1.5
    """

    fmin: float = 0.8
    fmax: float = 2.1
    step: float = 0.1
    turbo: float = 3.0
    levels: tuple = field(init=False)

    def __post_init__(self) -> None:
        if not (0 < self.fmin < self.fmax < self.turbo):
            raise ValueError(
                f"need 0 < fmin < fmax < turbo, got "
                f"({self.fmin}, {self.fmax}, {self.turbo})"
            )
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        n = int(round((self.fmax - self.fmin) / self.step))
        lv = [round(self.fmin + i * self.step, 9) for i in range(n + 1)]
        if abs(lv[-1] - self.fmax) > 1e-9:
            lv.append(self.fmax)
        lv.append(self.turbo)
        object.__setattr__(self, "levels", tuple(lv))
        # Cached ndarray of the levels for vectorised quantisation (the
        # 1 ms controller tick gathers from it; rebuilding it per call
        # dominated quantize_array's cost).
        object.__setattr__(self, "levels_array", np.array(lv))
        # When the second-highest level is exactly fmax (true for any sane
        # table), clipping the ceil index already maps f > fmax to fmax and
        # quantize_into can skip a masked overwrite.
        object.__setattr__(self, "_fmax_is_level", lv[-2] == self.fmax)

    # ------------------------------------------------------------------ props

    @property
    def num_levels(self) -> int:
        """Number of selectable levels (P-states + turbo)."""
        return len(self.levels)

    @property
    def sustained_levels(self) -> tuple:
        """Levels excluding turbo."""
        return self.levels[:-1]

    # ------------------------------------------------------------- conversion

    def quantize(self, freq: float) -> float:
        """Snap ``freq`` (GHz) to the nearest-not-below supported level.

        Values above ``fmax`` but below ``turbo`` round up to ``turbo`` only
        if they exceed ``fmax``; the paper's controller only ever requests
        turbo explicitly (score >= 1), so we *ceil* within the sustained
        range to guarantee the requested compute capacity.
        """
        if freq <= self.fmin:
            return self.levels[0]
        if freq >= self.turbo:
            return self.turbo
        if freq > self.fmax:
            return self.fmax
        # ceil to the next step boundary above fmin (math.ceil: identical
        # result to np.ceil for finite floats, ~3x cheaper per call — this
        # runs on the 1 ms hot path)
        idx = math.ceil((freq - self.fmin) / self.step - 1e-9)
        levels = self.levels
        top = len(levels) - 2
        return levels[idx if idx < top else top]

    def quantize_array(self, freqs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`quantize` over an array of GHz values."""
        f = np.asarray(freqs, dtype=float)
        out = np.empty_like(f)
        self.quantize_into(f, out)
        return out

    def quantize_into(self, freqs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-light :meth:`quantize_array` writing into ``out``.

        Element-for-element identical to the scalar :meth:`quantize` (same
        IEEE operation order), which the hot-path tests assert; ``out`` may
        be a reused buffer and must not alias ``freqs``.
        """
        t = out
        np.subtract(freqs, self.fmin, t)
        np.divide(t, self.step, t)
        np.subtract(t, 1e-9, t)
        np.ceil(t, t)
        # maximum/minimum with out= beat np.clip(out=) by ~2x per call.
        np.maximum(t, 0.0, out=t)
        np.minimum(t, len(self.levels) - 2, out=t)
        self.levels_array.take(t.astype(np.intp), 0, t)
        if not self._fmax_is_level:  # pragma: no cover - degenerate tables
            np.copyto(t, self.fmax, where=freqs > self.fmax)
        np.copyto(t, self.turbo, where=freqs >= self.turbo)
        return t

    def from_score(self, score: float) -> float:
        """Paper Algorithm 1 line 9: ``fmin + (fmax - fmin) * score``.

        ``score`` is expected in [0, 1); values >= 1 mean "turbo" and are the
        caller's responsibility (the thread controller branches before
        calling this).
        """
        return self.fmin + (self.fmax - self.fmin) * score

    def index_of(self, freq: float) -> int:
        """Index of an exact level; raises ValueError if not a table entry."""
        for i, lv in enumerate(self.levels):
            if abs(lv - freq) < 1e-9:
                return i
        raise ValueError(f"{freq} is not a level of {self}")

    def __contains__(self, freq: float) -> bool:
        return any(abs(lv - freq) < 1e-9 for lv in self.levels)


#: Table used throughout the reproduction (matches the paper's testbed range).
DEFAULT_TABLE = FrequencyTable()
