"""Fleet-wide SoA state: batched dispatch and one numpy fleet tick.

A :class:`FleetBatch` re-lays the per-node hot state of a whole fleet as
structure-of-arrays matrices — per-node frequency rows, begin-time rows,
an int backlog vector, lifecycle masks and a ceiling column — and
coalesces the two per-event costs that dominate large fleets:

* **Dispatch**: a routing decision reads ``N`` nodes' backlog and
  worker-core capacity.  The batch keeps those quantities as arrays
  maintained incrementally by hooks on
  :class:`~repro.cluster.node.ClusterNode` /
  :class:`~repro.server.server.Server`, so a decision is a handful of
  vector ops regardless of fleet size.  The
  :class:`~repro.cluster.dispatch.Dispatcher` builds and owns the batch,
  so every fleet routes this way.
* **Controller ticks**: from :data:`SCALAR_BATCH_CUTOFF` nodes up, ``N``
  per-node 1 ms
  :meth:`~repro.core.thread_controller.ThreadController.tick` events per
  tick time become *one* engine event computing Algorithm 1 for all
  ``N x W`` worker cores in stacked buffers, then writing only the DVFS
  levels that actually changed.  Smaller fleets keep the per-node ticks,
  which are cheaper there.

The contract is **bitwise identity** with per-node ticks: same metrics,
same trace bytes, under chaos / power-cap / bus configs alike (the golden
digests in ``tests/fleet_goldens.json`` pin both tick topologies).  The
techniques that make that hold:

* *Row views, not copies.*  ``cpu._freqs`` and ``server._begin_times`` are
  re-pointed at rows of the fleet matrices, so all existing per-node code
  — frequency listeners, dispatch/completion bookkeeping, ``evacuate()`` —
  keeps maintaining the stacked state in place.  Nothing is mirrored, so
  nothing can drift.
* *Identical IEEE op order.*  The stacked score/frequency math performs
  the same operations per element as the per-node tick
  (``(now - b) / sla * coef + base``, then ``fmin + fspan * score``), and
  quantisation reuses :meth:`~repro.cpu.dvfs.FrequencyTable.quantize_into`
  which is element-identical to scalar ``quantize``.  Candidate
  capacities are per-row sums over the same ``W`` contiguous values
  :meth:`~repro.cluster.node.ClusterNode.worker_capacity_ghz` sums.
* *Identical RNG draw schedules.*  Degraded de-weighting draws
  ``rng.random(k)`` for the ``k`` degraded candidates in candidate order —
  bit-identical to ``k`` sequential scalar draws.
* *Ceilings are a column, not a wrapper.*  Power-cap ceilings are socket
  state (:meth:`~repro.cpu.topology.Cpu.set_ceiling`), mirrored into an
  ``[N, 1]`` column by a listener; the tick clamps the raw requests with
  one ``np.minimum`` before quantising.  Quantisation is monotone and
  maps every level to itself, so this equals the per-core clamp.
* *Injector nodes take the per-node lane.*  Fault injectors install
  instance-level ``core.set_frequency`` overrides that must see one raw
  (unclamped) call per tick; they are armed before adoption, so the batch
  flags those nodes once and routes their rows through the unmodified
  per-node ``Cpu.set_frequencies`` path.
* *Down nodes keep ticking.*  The lifecycle never stops a crashed node's
  controller (its parked cores just keep being re-asserted), so the
  fleet tick deliberately includes down nodes too; the lifecycle masks
  gate *dispatch* only.

Controller adoption is refused (returning ``False``, leaving per-node
tasks running) below :data:`SCALAR_BATCH_CUTOFF` nodes and whenever
per-node semantics could diverge mid-run: a profiled (``bind_spans``),
trace-recording or window-stats controller, heterogeneous timing/tables,
or a DeepPower fleet under an active fault plan, whose watchdog may
stop/start individual controllers.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.engine import PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .node import DEGRADED, DOWN, ClusterNode

__all__ = ["FleetBatch", "SCALAR_BATCH_CUTOFF"]

#: Below this node count fleets keep per-node controller ticks: the fleet
#: tick's fixed per-tick numpy overhead beats its throughput win for small
#: fleets, mirroring the per-socket cutoff in :mod:`repro.cpu.topology`.
#: Both tick topologies are bit-for-bit identical (the golden tests pin it).
SCALAR_BATCH_CUTOFF = 16


class FleetBatch:
    """Stacked hot state + coalesced dispatch and ticks for one fleet.

    Build *after* the nodes exist but before any request flows; controller
    adoption happens later, once drivers / coordinator / lifecycle have
    started (fault injectors' ``core.set_frequency`` overrides must be in
    place so the per-node override flags are final).
    """

    def __init__(self, nodes: Sequence[ClusterNode]) -> None:
        self.nodes: List[ClusterNode] = list(nodes)
        if not self.nodes:
            raise ValueError("fleet batch needs at least one node")
        n = len(self.nodes)
        c = self.nodes[0].cpu.num_cores
        w = self.nodes[0].server.num_workers
        for node in self.nodes:
            if node.cpu.num_cores != c or node.server.num_workers != w:
                raise ValueError("fleet batch requires homogeneous nodes")
        self.num_nodes = n
        self.num_cores = c
        self.num_workers = w
        self.all_indices = np.arange(n)

        # ---- SoA state ------------------------------------------------------
        # Frequency matrix [N, C]: each cpu's listener-synced mirror becomes
        # a row view, so every DVFS write anywhere keeps it current.
        self.freqs = np.empty((n, c))
        for i, node in enumerate(self.nodes):
            self.freqs[i, :] = node.cpu._freqs
            node.cpu._freqs = self.freqs[i]
        self._fw = self.freqs[:, :w]  # worker-core columns
        # Begin-times matrix [N, W]: the servers' incrementally-maintained
        # buffers become row views the same way.
        self.begins = np.empty((n, w))
        for i, node in enumerate(self.nodes):
            self.begins[i, :] = node.server._begin_times
            node.server._begin_times = self.begins[i]
        # Backlog (queued + in flight) per node, maintained by hooks.
        self.backlog = np.zeros(n, dtype=np.int64)
        for i, node in enumerate(self.nodes):
            self.backlog[i] = node.backlog()
            node.on_routed = self._make_backlog_hook(i, 1)
            node.server.on_done = self._make_backlog_hook(i, -1)
            node.server.on_reset = self._make_backlog_reset(i)
        # Lifecycle masks, maintained by the node-state listener.
        self.down = np.zeros(n, dtype=bool)
        self.degraded = np.zeros(n, dtype=bool)
        for node in self.nodes:
            self.down[node.node_id] = node.state == DOWN
            self.degraded[node.node_id] = node.state == DEGRADED
            node._state_listener = self._on_state_change
        self._version = 0
        self._cands_version = -1
        self._cands: Tuple[np.ndarray, np.ndarray, int] = (
            self.all_indices, np.zeros(n, dtype=bool), 0
        )

        # ---- controller adoption state (see adopt_controllers) -------------
        self._controllers: List[Any] = []
        self._tick_task: Optional[PeriodicTask] = None
        self._tick_total = 0
        self._live_tick_counts = False
        self._ov_rows: List[int] = []
        self._base = np.empty((n, 1))
        self._coef = np.empty((n, 1))
        self._ceil = np.empty((n, 1))

    # ------------------------------------------------------------------ hooks

    def _make_backlog_hook(self, i: int, delta: int) -> Callable[[], None]:
        backlog = self.backlog

        def bump() -> None:
            backlog[i] += delta

        return bump

    def _make_backlog_reset(self, i: int) -> Callable[[], None]:
        backlog = self.backlog

        def reset() -> None:
            backlog[i] = 0

        return reset

    def _on_state_change(self, node: ClusterNode) -> None:
        i = node.node_id
        state = node.state
        self.down[i] = state == DOWN
        self.degraded[i] = state == DEGRADED
        self._version += 1

    # --------------------------------------------------------------- dispatch

    def live_candidates(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(live_idx, degraded_mask_over_live, num_degraded)``, cached
        until the next lifecycle/detector state change."""
        if self._cands_version != self._version:
            live = np.nonzero(~self.down)[0]
            deg = self.degraded[live]
            self._cands = (live, deg, int(deg.sum()))
            self._cands_version = self._version
        return self._cands

    def worker_capacities(self, idx: np.ndarray) -> np.ndarray:
        """Summed worker-core GHz per node in ``idx`` (fresh array).

        Per-row sum over the same ``W`` contiguous values
        ``ClusterNode.worker_capacity_ghz`` sums — identical pairwise
        reduction, identical doubles.
        """
        return self._fw[idx].sum(axis=1)

    # ------------------------------------------------------- controller ticks

    def adopt_controllers(
        self, controllers: Sequence[Any], live_tick_counts: bool = False
    ) -> bool:
        """Replace ``N`` per-node controller tasks with one fleet tick.

        Returns ``False`` (adopting nothing) below
        :data:`SCALAR_BATCH_CUTOFF` nodes, and unless every controller is
        a plain, started, homogeneous
        :class:`~repro.core.thread_controller.ThreadController` with no
        instance-level ``tick`` override, no trace recording and no window
        stats.  With ``live_tick_counts`` each controller's ``tick_count``
        is advanced every tick (DeepPower's DRL step reads it mid-run);
        otherwise the counts are settled once at :meth:`detach`.
        """
        from ..core.thread_controller import ThreadController

        ctrls = list(controllers)
        if self.num_nodes < SCALAR_BATCH_CUTOFF or len(ctrls) != self.num_nodes:
            return False
        ref = ctrls[0]
        for c in ctrls:
            if not isinstance(c, ThreadController):
                return False
            if "tick" in c.__dict__ or c.record_trace or c._win:
                return False
            if c._task is None or c._task.stopped:
                return False
            if (
                c.short_time != ref.short_time
                or c.sla != ref.sla
                or c.table is not ref.table
                or c.server.num_workers != self.num_workers
            ):
                return False
        n, w = self.num_nodes, self.num_workers
        self._controllers = ctrls
        self._live_tick_counts = bool(live_tick_counts)
        self._tick_total = 0
        self._sla = ref.sla
        self._fmin = ref._fmin
        self._fspan = ref._fspan
        self._turbo = ref._turbo
        self._table = ref.table
        for i, c in enumerate(ctrls):
            self._base[i, 0] = c.base_freq
            self._coef[i, 0] = c.scaling_coef
            c._params_listener = self._make_params_hook(i)
            c._task.stop()
        for i, node in enumerate(self.nodes):
            self._ceil[i, 0] = node.cpu.ceiling
            node.cpu._ceiling_listener = self._make_ceiling_hook(i)
        # Nodes whose cores carry instance-level set_frequency overrides
        # (actuator faults) take the per-node apply lane; overrides
        # are static for the run by construction.
        self._ov_rows = [
            i
            for i, node in enumerate(self.nodes)
            if any("set_frequency" in core.__dict__ for core in node.cpu.cores[:w])
        ]
        # Reused per-tick buffers (the fleet tick must not allocate).
        self._scores_buf = np.empty((n, w))
        self._raw_buf = np.empty((n, w))
        self._quant_buf = np.empty((n, w))
        self._nan_mask = np.empty((n, w), dtype=bool)
        self._turbo_mask = np.empty((n, w), dtype=bool)
        self._diff_mask = np.empty((n, w), dtype=bool)
        engine = self.nodes[0].engine
        self._tick_task = engine.every(
            ref.short_time, self._tick_all, start_delay=0.0,
            priority=PRIORITY_CONTROL,
        )
        self._engine = engine
        return True

    def _make_params_hook(self, i: int) -> Callable[[Any], None]:
        base, coef = self._base, self._coef

        def note(c: Any) -> None:
            base[i, 0] = c.base_freq
            coef[i, 0] = c.scaling_coef

        return note

    def _make_ceiling_hook(self, i: int) -> Callable[[Any], None]:
        ceil = self._ceil

        def note(cpu: Any) -> None:
            ceil[i, 0] = cpu.ceiling

        return note

    def _tick_all(self) -> None:
        """Algorithm 1 for every worker core of every node, one event.

        Same per-element IEEE operations as the per-node tick; only DVFS
        levels that changed get a write (via each core's listener the
        writes land straight back in the frequency matrix rows).
        """
        now = self._engine.now
        b = self.begins
        s = self._scores_buf
        np.subtract(now, b, out=s)
        s /= self._sla
        s *= self._coef
        s += self._base
        np.isnan(b, out=self._nan_mask)
        np.copyto(s, self._base, where=self._nan_mask)  # idle: score = base
        raw = self._raw_buf
        np.greater_equal(s, 1.0, out=self._turbo_mask)
        np.multiply(s, self._fspan, out=raw)
        raw += self._fmin
        np.copyto(raw, self._turbo, where=self._turbo_mask)
        # Clamp into the spent scores buffer: injector rows below must get
        # the unclamped request, since their cores clamp when a (possibly
        # delayed) write lands.
        np.minimum(raw, self._ceil, out=s)
        q = self._quant_buf
        self._table.quantize_into(s.reshape(-1), q.reshape(-1))
        diff = self._diff_mask
        np.not_equal(q, self._fw, out=diff)
        if self._ov_rows:
            w = self.num_workers
            for i in self._ov_rows:
                diff[i, :] = False
                # Injector-wrapped cores must see one raw write per tick
                # (RNG draws) — the unmodified per-node path.
                self.nodes[i].cpu.set_frequencies(raw[i], count=w)
        rows, cols = np.nonzero(diff)
        if rows.size:
            nodes = self.nodes
            for r, c in zip(rows.tolist(), cols.tolist()):
                nodes[r].cpu.cores[c].set_frequency(float(q[r, c]), quantize=False)
        self._tick_total += 1
        if self._live_tick_counts:
            for ctrl in self._controllers:
                ctrl.tick_count += 1

    def detach(self) -> None:
        """Stop the fleet tick and settle per-controller state.

        Idempotent; called before drivers stop so ``controller.stop()``
        still works on the (already stopped) per-node tasks.
        """
        if self._tick_task is not None:
            self._tick_task.stop()
            self._tick_task = None
        for c in self._controllers:
            c._params_listener = None
            if not self._live_tick_counts:
                c.tick_count += self._tick_total
        for node in self.nodes:
            node.cpu._ceiling_listener = None
        self._controllers = []
