"""Fleet-wide SoA state: batched dispatch and one fleet tick event.

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
* **Controller ticks**: ``N`` per-node
  :meth:`~repro.core.thread_controller.ThreadController.tick` events per
  tick time become *one* engine event.  From :data:`SCALAR_BATCH_CUTOFF`
  nodes up it computes Algorithm 1 for all ``N x W`` worker cores in
  stacked buffers, then writes only the DVFS levels that actually
  changed.  Smaller fleets, where numpy's per-call overhead loses, get
  one event that calls every node's own tick in node order.

The contract is **bitwise identity** with per-node ticks: same metrics,
same trace bytes, under chaos / power-cap / bus configs alike (the golden
digests in ``tests/fleet_goldens.json`` pin both tick topologies).  Per
node tick tasks fire in node order at the same ``(time, priority)``, so
one event calling the ticks in that order replays them exactly.  The
techniques that make the stacked tick hold:

* *Row views, not copies.*  ``cpu._freqs`` and ``server._begin_times`` are
  re-pointed at rows of the fleet matrices, so all existing per-node code
  — each core's DVFS write, dispatch/completion bookkeeping, ``evacuate()``
  — keeps maintaining the stacked state in place.  Nothing is mirrored, so
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
* *Injector rows go to their injector.*  An armed
  :class:`~repro.faults.injectors.ActuatorFaults` must make one draw per
  write and delay the raw (unclamped) request, so the batch flags those
  nodes once (injectors are armed before adoption) and asks each one's
  :meth:`~repro.faults.injectors.ActuatorFaults.clean_row` first, as the
  per-node tick does: a clean row takes its draws there and the batch
  writes its changed levels through the cores' unwrapped setters; any
  other row goes, raw and quantised, to
  :meth:`~repro.faults.injectors.ActuatorFaults.write_row`, which takes
  the draws from the injector's prefetched block.
* *Down nodes keep ticking.*  The lifecycle never stops a crashed node's
  controller (its parked cores just keep being re-asserted), so the
  fleet tick deliberately includes down nodes too; the lifecycle masks
  gate *dispatch* only.

Controller adoption is refused (returning ``False``, leaving per-node
tasks running) whenever per-node semantics could diverge mid-run: a
profiled (``bind_spans``), trace-recording or window-stats controller,
or heterogeneous timing/tables.  :class:`~repro.cluster.sim.ClusterSim`
also keeps per-node tasks for DeepPower fleets whose runtimes may
stop/start individual controllers (a fault plan or a lossy control bus):
a restarted per-node task would tick off the fleet tick's grid.  An
adopted controller's ``start()``/``stop()`` raise until :meth:`detach`,
so a path that misses this check fails loudly instead of ticking twice.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.engine import PeriodicTask
from ..sim.events import PRIORITY_CONTROL
from .node import DEGRADED, DOWN, ClusterNode

__all__ = ["FleetBatch", "SCALAR_BATCH_CUTOFF"]

#: Below this node count the fleet tick calls each node's own tick: the
#: stacked tick's fixed per-tick numpy overhead beats its throughput win
#: for small fleets.  Both are bit-for-bit identical to per-node ticks
#: (the golden tests pin it).
SCALAR_BATCH_CUTOFF = 16


class FleetBatch:
    """Stacked hot state + coalesced dispatch and ticks for one fleet.

    Build *after* the nodes exist but before any request flows; controller
    adoption happens later, once drivers / coordinator / lifecycle have
    started (fault injectors must be armed so the injector rows are
    final).
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
        # Frequency matrix [N, C]: each cpu's frequency row becomes a row
        # view, so every DVFS write anywhere keeps it current.
        self.freqs = np.empty((n, c))
        for i, node in enumerate(self.nodes):
            self.freqs[i, :] = node.cpu._freqs
            node.cpu._freqs = self.freqs[i]
        self._fw = self.freqs[:, :w]  # worker-core columns
        # Worker cores in row-major [N, W] order: flat index r * W + c.
        self._wcores = [core for node in self.nodes for core in node.cpu.cores[:w]]
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
        self._ov_rows: List[Tuple[int, Any, List[Any]]] = []
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
        until the next lifecycle/detector state change.  With no node down
        ``live_idx`` is :attr:`all_indices` itself."""
        if self._cands_version != self._version:
            live = np.nonzero(~self.down)[0]
            if live.size == self.num_nodes:
                live = self.all_indices
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

        Returns ``False`` (adopting nothing) unless every controller is a
        plain, started, homogeneous
        :class:`~repro.core.thread_controller.ThreadController` with no
        instance-level ``tick`` override, no trace recording and no window
        stats.  Below :data:`SCALAR_BATCH_CUTOFF` nodes the fleet tick
        calls each controller's own :meth:`tick`, which keeps its
        ``tick_count``; from the cutoff up it is the stacked tick, and with
        ``live_tick_counts`` each controller's ``tick_count`` is advanced
        every tick (DeepPower's DRL step reads it mid-run), otherwise the
        counts are settled once at :meth:`detach`.  Until then the
        controllers' ``start()`` and ``stop()`` raise ``RuntimeError``.
        """
        from ..core.thread_controller import ThreadController

        ctrls = list(controllers)
        if len(ctrls) != self.num_nodes:
            return False
        ref = ctrls[0]
        for c in ctrls:
            if not isinstance(c, ThreadController):
                return False
            # An instance-level tick (bind_spans) is not a method bound to
            # c.  Reading c.__dict__ instead would build the instance dict,
            # which in CPython 3.11 leaves every attribute load of the tick
            # unspecialised.
            if getattr(c.tick, "__self__", None) is not c or c.record_trace or c._win:
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
        for c in ctrls:
            c._task.stop()
            c._adopted = True
        engine = self._engine = self.nodes[0].engine
        if n < SCALAR_BATCH_CUTOFF:
            # One event runs every node's own tick, in node order.
            ticks = [c.tick for c in ctrls]

            def tick_nodes() -> None:
                for tick in ticks:
                    tick()

            self._tick_task = engine.every(
                ref.short_time, tick_nodes, start_delay=0.0,
                priority=PRIORITY_CONTROL,
            )
            return True
        self._live_tick_counts = bool(live_tick_counts)
        self._tick_total = 0
        self._sla, self._fmin, self._fspan, self._turbo = ref._consts[:4]
        self._table = ref.table
        for i, c in enumerate(ctrls):
            self._base[i, 0] = c.base_freq
            self._coef[i, 0] = c.scaling_coef
            c._params_listener = self._make_params_hook(i)
        for i, node in enumerate(self.nodes):
            self._ceil[i, 0] = node.cpu.ceiling
            node.cpu._ceiling_listener = self._make_ceiling_hook(i)
        # Nodes with an armed actuator fault injector: (row, injector,
        # worker cores); injectors are armed before adoption.
        self._ov_rows = [
            (i, node.cpu._actuator, node.cpu.cores[:w])
            for i, node in enumerate(self.nodes)
            if node.cpu._actuator is not None
        ]
        self._plain_rows = np.ones((n, 1), dtype=bool)
        for i, _, _ in self._ov_rows:
            self._plain_rows[i, 0] = False
        # Reused per-tick buffers (the fleet tick must not allocate).
        self._scores_buf = np.empty((n, w))
        self._raw_buf = np.empty((n, w))
        self._quant_buf = np.empty((n, w))
        self._nan_mask = np.empty((n, w), dtype=bool)
        self._turbo_mask = np.empty((n, w), dtype=bool)
        self._diff_mask = np.empty((n, w), dtype=bool)
        self._tick_task = engine.every(
            ref.short_time, self._tick_all, start_delay=0.0,
            priority=PRIORITY_CONTROL,
        )
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
        levels that changed get a write, in node then core order (each
        core's write lands straight back in the frequency matrix rows).
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
            levels = q.tolist()
            changed = diff.any(axis=1).tolist()
            for i, actuator, wcores in self._ov_rows:
                if actuator.clean_row(w):
                    # The row's draws are taken: write past the per-core
                    # closures, as write_row would with no fault drawn.
                    if changed[i]:
                        for core, f in zip(wcores, levels[i]):
                            if f != core._freq:
                                core._true_set_frequency(f, quantize=False)
                else:
                    actuator.write_row(raw[i].tolist(), levels[i])
            diff &= self._plain_rows
        idx = np.flatnonzero(diff)
        if idx.size:
            cores = self._wcores
            for k, f in zip(idx.tolist(), q.reshape(-1)[idx].tolist()):
                cores[k].set_frequency(f, quantize=False)
        self._tick_total += 1
        if self._live_tick_counts:
            for ctrl in self._controllers:
                ctrl.tick_count += 1

    def detach(self) -> None:
        """Stop the fleet tick and settle per-controller state.

        Idempotent; call it before drivers stop, since an adopted
        controller's ``stop()`` raises.
        """
        if self._tick_task is not None:
            self._tick_task.stop()
            self._tick_task = None
        for c in self._controllers:
            c._adopted = False
            c._params_listener = None
            if not self._live_tick_counts:
                c.tick_count += self._tick_total
        for node in self.nodes:
            node.cpu._ceiling_listener = None
        self._controllers = []
