"""Event primitives for the discrete-event simulation kernel.

An event is its heap entry: a 5-slot list ``[time, priority, seq, callback,
args]`` that :meth:`repro.sim.engine.Engine.schedule_at` pushes and returns
as the handle.  The heap orders entries on the unique ``(time, priority,
seq)`` prefix, so events at the same instant and priority fire in the order
they were scheduled, and runs are deterministic.

Cancellation is *lazy*: firing or cancelling an entry sets its callback slot
to ``None`` (cancelling also drops ``args``), and the engine skips such
entries when it pops them.  An entry is therefore live while ``entry[3] is
not None``; cancelling a fired entry is a no-op.  This keeps cancellation
O(1), which matters because frequency changes on a busy core cancel and
reschedule the in-flight completion event — potentially once per DVFS
transition.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["Event", "PRIORITY_DEFAULT", "PRIORITY_CONTROL", "PRIORITY_LATE"]

#: A scheduled event: ``[time, priority, seq, callback | None, args]``.
Event = List[Any]

#: Priority for ordinary simulation events (arrivals, completions).
PRIORITY_DEFAULT = 0
#: Priority for control-plane callbacks that must run *after* the data plane
#: at the same timestamp (e.g. telemetry snapshots taken at a tick boundary).
PRIORITY_CONTROL = 10
#: Runs after everything else at the same timestamp (end-of-run flushes).
PRIORITY_LATE = 100
