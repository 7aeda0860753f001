"""Common shape of all power-management policies.

A policy is a *driver* (``start()``/``stop()`` lifecycle, created against a
:class:`~repro.experiments.runner.RunContext`) that may also register for
the server's request hooks.  :class:`PowerManager` provides the wiring so
concrete policies only implement the hooks and/or periodic tasks they need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cpu.core import Core
from ..server.server import PolicyHooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunContext

__all__ = ["PowerManager"]


class PowerManager(PolicyHooks):
    """Base class for request-hook driven power managers.

    Subclasses override any of the request hooks (:meth:`on_arrival`,
    :meth:`on_start`, :meth:`on_complete`; the server calls only the
    overridden ones) and :meth:`setup` / :meth:`teardown`.

    Parameters
    ----------
    ctx:
        The run context (engine, cpu, server, monitor, rng streams).
    """

    name = "abstract"

    def __init__(self, ctx: "RunContext") -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.cpu = ctx.cpu
        self.server = ctx.server
        self.table = ctx.cpu.table
        self._started = False

    # ----------------------------------------------------------------- driver

    def start(self) -> None:
        """Register hooks and run policy-specific setup (idempotent)."""
        if self._started:
            return
        self._started = True
        self.server.set_policy(self)
        # Any managed policy parks cores that host no worker thread; the
        # unmanaged baseline overrides this in its setup().
        for core in self.cpu.cores[self.server.num_workers :]:
            core.set_frequency(self.table.fmin)
        self.setup()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.server.set_policy(None)
        self.teardown()

    # ------------------------------------------------------------- overridable

    def setup(self) -> None:
        """Called once at start (set initial frequencies, start tasks)."""

    def teardown(self) -> None:
        """Called once at stop (cancel periodic tasks)."""

    # -------------------------------------------------------------- utilities

    def worker_for_core(self, core: Core):
        """The server worker pinned to ``core``."""
        return self.server.workers[core.core_id]

    def set_idle_frequency(self, core: Core, freq: Optional[float] = None) -> None:
        """Park an idle core (defaults to fmin, the energy-optimal idle)."""
        core.set_frequency(self.table.fmin if freq is None else freq)
