"""Single-node runs against golden digests.

The oracle is ``node_goldens.json``: for every (policy, app, trace) cell
below, the SHA-256 of the sorted JSON of the run's metrics plus the stamps
of every completed request (``keep_requests=True``): id, arrival, start,
finish, core, sampled and effective work, and features.  A change to the
request path (arrival sampling, dispatch, contention, completion
bookkeeping, energy metering) that moves a single simulated bit changes a
digest.

Policies cover the max-frequency baseline, a fixed frequency, the 1 ms
thread controller, ReTail, Gemini, the utilisation oracle and a short
online-training DeepPower run; the controller and DeepPower also run under
``standard_fault_plan(0.05)`` (``+faults``).  Apps cover a lognormal service process
(xapian) and a deterministic one (img-dnn).  Traces cover a constant rate,
a diurnal pattern and a piecewise trace that starts after t=0 and has
zero-rate segments.

Regenerate with ``PYTHONPATH=src python -c "from tests.test_node_goldens
import _regen; _regen()"`` only for an intended behaviour change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GeminiPolicy, MaxFrequencyPolicy, RetailPolicy
from repro.baselines.simple import FixedFrequencyPolicy, UtilizationOraclePolicy
from repro.core.runtime import DeepPowerConfig, DeepPowerRuntime
from repro.core.thread_controller import ThreadController
from repro.experiments.fig7_main import tuned_agent_setup
from repro.experiments.runner import run_policy
from repro.faults import FaultHarness, standard_fault_plan
from repro.workload.apps import get_app
from repro.workload.trace import WorkloadTrace, constant_trace, diurnal_trace

GOLDEN_PATH = Path(__file__).with_name("node_goldens.json")
CORES = 4
SEED = 3
DURATION = 4.0


class _ControllerPolicy:
    """The thread controller alone, at fixed parameters."""

    def __init__(self, ctx):
        self.controller = ThreadController(ctx.engine, ctx.server)
        self.controller.set_params(0.35, 0.6)

    def start(self):
        self.controller.start()

    def stop(self):
        self.controller.stop()


def _deeppower(ctx):
    agent, cfg = tuned_agent_setup(SEED, ctx.app)
    cfg = DeepPowerConfig(long_time=0.05, updates_per_step=2, reward=cfg.reward)
    return DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)


def _faulted(factory):
    """``factory`` on a node armed with ``standard_fault_plan(0.05)``:
    failed and delayed DVFS writes, sensor and telemetry faults."""

    def build(ctx):
        driver = factory(ctx)
        plan = standard_fault_plan(0.05, DURATION, long_time=0.05, seed=SEED)
        FaultHarness(
            plan, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
            telemetry=ctx.server.telemetry,
        ).arm()
        return driver

    return build


POLICIES = {
    "baseline": MaxFrequencyPolicy,
    "fixed": lambda ctx: FixedFrequencyPolicy(ctx, 1.6),
    "controller": _ControllerPolicy,
    "retail": RetailPolicy,
    "gemini": GeminiPolicy,
    "oracle": UtilizationOraclePolicy,
    "deeppower": _deeppower,
    "controller+faults": _faulted(_ControllerPolicy),
    "deeppower+faults": _faulted(_deeppower),
}

APPS = ("xapian", "img-dnn")


def _trace(name, app):
    rps = app.rps_for_load(0.6, CORES)
    if name == "constant":
        return constant_trace(rps, DURATION)
    if name == "diurnal":
        base = diurnal_trace(np.random.default_rng(SEED), DURATION, num_segments=16)
        return base.scaled_to_mean(rps)
    if name == "piecewise":
        # Starts after t=0; zero-rate segments before, between and at the end.
        edges = [0.3, 0.8, 1.1, 1.9, 2.4, 3.0, 3.6, 4.3]
        rates = [rps, 0.0, 1.4 * rps, 0.0, 0.0, 0.7 * rps, 0.0]
        return WorkloadTrace(np.array(edges), np.array(rates))
    raise KeyError(name)


TRACES = ("constant", "diurnal", "piecewise")
CELLS = [
    f"{policy}-{app}-{trace}" for policy in POLICIES for app in APPS for trace in TRACES
]


def _run(cell):
    """Sorted JSON of one run's metrics and per-request stamps."""
    policy, rest = cell.split("-", 1)
    app_name, trace_name = rest.rsplit("-", 1)
    app = get_app(app_name)
    result = run_policy(
        POLICIES[policy], app, _trace(trace_name, app), CORES, seed=SEED,
        keep_requests=True,
        extras_fn=lambda ctx, driver: {"requests": list(ctx.server.metrics.requests)},
    )
    requests = [
        [
            r.req_id, r.arrival_time, r.start_time, r.finish_time, r.core_id,
            r.work, r.effective_work, [float(x) for x in r.features],
        ]
        for r in result.extras["requests"]
    ]
    return json.dumps(
        {"metrics": result.metrics.as_dict(), "requests": requests}, sort_keys=True
    )


def _digest(cell):
    return hashlib.sha256(_run(cell).encode()).hexdigest()


def _regen(path=GOLDEN_PATH):
    """Re-record every golden digest (only for intended behaviour changes)."""
    table = {cell: _digest(cell) for cell in CELLS}
    Path(path).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def test_golden_table_covers_every_cell():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_node_golden(cell):
    assert _digest(cell) == json.loads(GOLDEN_PATH.read_text())[cell], cell
