"""The fleet observation the upper-level agent acts on.

One row of features per node, flattened in node-id order — the fleet
analogue of the paper's 8-dim node state.  Everything is a *read* of
state other components already maintain: backlog and the down/degraded
health masks are read from the nodes once per window, window power comes
from the same RAPL-style energy deltas the coordinator measures, and the
windowed p99 uses the straggler detector's fresh-completions cursor
discipline.  Building an
observation draws no RNG and schedules no events.

Every feature is normalised into roughly [0, 1] so one network serves any
fleet size / power scale:

====== ============================================================
column meaning
====== ============================================================
0      windowed load: ``backlog / workers``, squashed ``x / (1+x)``
1      p99/SLA slack: window p99 over the SLA, clipped to [0, 4] / 4
       (1e-3 when the window completed nothing — an idle node reads
       as "far under SLA", not as missing data)
2      measured window power over the node's worst-case (all-busy
       turbo) draw
3      routed share this window (uniform ``1/N`` with no traffic)
4      down mask (1 = down)
5      degraded mask (1 = degraded)
====== ============================================================
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..cluster.node import DEGRADED, DOWN, ClusterNode

__all__ = ["FEATURES_PER_NODE", "FleetObserver"]

#: Columns per node in the flattened fleet state (see module docstring).
FEATURES_PER_NODE = 6

#: p99/SLA ratios are clipped here before normalising — beyond 4x the SLA
#: the tail is equally "blown" for control purposes.
_SLACK_CLIP = 4.0


def window_p99(values: Sequence[float]) -> float:
    """``np.quantile(values, 0.99)`` of a non-empty sequence, bit for bit.

    The same linear interpolation as numpy's default method, with its
    operations in its order, in plain Python: a fleet window holds a few
    completions per node, where ``np.quantile``'s fixed per-call cost
    dominated the learned coordinator's decision.
    """
    s = sorted(values)
    last = len(s) - 1
    virtual = last * 0.99
    if virtual >= last:
        return float(s[-1])
    i = math.floor(virtual)
    a, b = s[i], s[i + 1]
    t = virtual - i
    diff = b - a
    # numpy's _lerp: from the upper bound when t >= 0.5, for accuracy.
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


class FleetObserver:
    """Builds the flattened per-node feature matrix for the fleet agent.

    Parameters
    ----------
    nodes:
        The fleet, in node-id order.
    sla:
        The application SLA (seconds) the p99 slack feature is scaled by.
    cap_watts:
        Per-node worst-case (all-busy turbo) power, the watt normaliser —
        the coordinator already precomputes exactly this vector.
    """

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        sla: float,
        cap_watts: np.ndarray,
    ) -> None:
        if sla <= 0:
            raise ValueError(f"sla must be positive, got {sla}")
        self.nodes: List[ClusterNode] = list(nodes)
        self.sla = float(sla)
        self.cap_watts = np.asarray(cap_watts, dtype=float)
        if self.cap_watts.shape != (len(self.nodes),):
            raise ValueError(
                f"cap_watts must have one entry per node, got shape "
                f"{self.cap_watts.shape} for {len(self.nodes)} nodes"
            )
        n = len(self.nodes)
        # Fresh-completions cursor per node (straggler-detector style): the
        # p99 feature covers only the window since the previous observe().
        self._lat_seen = [0] * n
        self._routed_seen = np.zeros(n, dtype=np.int64)

    @property
    def state_dim(self) -> int:
        return len(self.nodes) * FEATURES_PER_NODE

    # ------------------------------------------------------------------ reads

    def _backlogs(self) -> np.ndarray:
        return np.array([float(n.backlog()) for n in self.nodes])

    def _masks(self) -> tuple:
        down = np.array([float(n.state == DOWN) for n in self.nodes])
        degraded = np.array([float(n.state == DEGRADED) for n in self.nodes])
        return down, degraded

    def _window_p99_slack(self) -> np.ndarray:
        out = np.empty(len(self.nodes))
        for i, node in enumerate(self.nodes):
            lats = node.server.metrics.latencies
            fresh = lats[self._lat_seen[i]:]
            self._lat_seen[i] = len(lats)
            if fresh:
                ratio = window_p99(fresh) / self.sla
            else:
                ratio = 1e-3
            out[i] = min(ratio, _SLACK_CLIP) / _SLACK_CLIP
        return out

    def _routed_share(self) -> np.ndarray:
        routed = np.array([n.routed for n in self.nodes], dtype=np.int64)
        delta = (routed - self._routed_seen).astype(float)
        self._routed_seen = routed
        total = float(delta.sum())
        if total <= 0:
            return np.full(len(self.nodes), 1.0 / len(self.nodes))
        return delta / total

    # ---------------------------------------------------------------- observe

    def observe(self, powers: Optional[np.ndarray] = None) -> np.ndarray:
        """One flattened fleet state (advances the window cursors).

        ``powers`` is the per-node last-window average power the caller
        (the coordinator) already measured; ``None`` reads as zero draw
        (only sensible before the first window).
        """
        n = len(self.nodes)
        feats = np.zeros((n, FEATURES_PER_NODE))
        workers = np.array(
            [max(node.server.num_workers, 1) for node in self.nodes],
            dtype=float,
        )
        load = self._backlogs() / workers
        feats[:, 0] = load / (1.0 + load)
        feats[:, 1] = self._window_p99_slack()
        if powers is not None:
            watts = np.asarray(powers, dtype=float) / np.maximum(
                self.cap_watts, 1e-9
            )
            feats[:, 2] = np.clip(watts, 0.0, 1.0)
        feats[:, 3] = self._routed_share()
        down, degraded = self._masks()
        feats[:, 4] = down
        feats[:, 5] = degraded
        return feats.reshape(-1)
