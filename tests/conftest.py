"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Tuple

import numpy as np
import pytest

from repro.cpu import Cpu
from repro.sim import Engine, RngRegistry
from repro.workload import AppSpec, LognormalCorrelatedService


def live_events(engine: Engine) -> Iterator[Tuple[float, int, Callable, Tuple[Any, ...]]]:
    """Pending (not cancelled) events of ``engine`` as ``(time, priority,
    callback, args)``, in the order they will fire."""
    for time, priority, _, callback, args in sorted(engine._heap):
        if callback is not None:
            yield time, priority, callback, args


@pytest.fixture(autouse=True, scope="session")
def _run_store(tmp_path_factory):
    """Point ``REPRO_CACHE`` at a temporary store for the whole session, so
    runs that store calibrations or cells by default never write into (or
    read a stale entry from) the working directory's ``.artifacts``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def cpu(engine) -> Cpu:
    return Cpu(engine, 4)


def make_tiny_app() -> AppSpec:
    """A fast app profile for cheap end-to-end tests.

    Mean service 10 ms at fmax, SLA 60 ms, mild tail — one simulated second
    covers many requests without a heavy event count.
    """
    return AppSpec(
        name="tiny",
        sla=0.06,
        service=LognormalCorrelatedService(mean_work=0.021, sigma=0.5, rho=0.8),
        contention=0.3,
        short_time=0.002,
        description="test app",
    )


@pytest.fixture
def tiny_app() -> AppSpec:
    return make_tiny_app()
