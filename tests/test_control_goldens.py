"""Degraded-mode runs against golden digests, plus the soak's hardening gates.

The oracle is ``control_goldens.json``.  Two groups of cells:

* ``soak-*`` — ``run_soak(intensities=(0, 1), seed=7)`` at smoke scale:
  the SHA-256 of each per-cell trace file, read under its
  ``grid_trace_path`` name, and of the rendered table.
* ``bus-*`` — the watchdog-protected tiny-app runtime of
  ``tests/test_control_plane.py`` (``_watchdog_run``) over 12 s under
  ``standard_fault_plan(0.05, agent_faults=True)`` node faults, on a
  perfect bus, through a sensor partition and through a command partition
  (where a watchdog trip overlaps a node deadline engagement).  Each
  digest covers energy, DVFS switches, final frequencies, the stamps of
  every completed request, ``watchdog_stats()``, ``control_stats()`` and
  the action history.

Any change to the watchdog, the stale-window ladder, the node deadline
fallback or the bus that moves a simulated bit changes a digest.

The soak run also carries two gates: its result passes
``check_control_soak`` (the experiment's claims), and the trace summary's
control-plane census reports retries.

Regenerate with ``PYTHONPATH=src python -c "from tests.test_control_goldens
import _regen; _regen()"`` only for an intended behaviour change.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.experiments.soak import check_control_soak, render_soak, run_soak
from repro.faults import BusEvent, BusFaultPlan
from repro.obs.summarize import render_summary, summarize_trace

from .conftest import make_tiny_app
from .test_control_plane import _watchdog_run

GOLDEN_PATH = Path(__file__).with_name("control_goldens.json")
DURATION = 12.0

SOAK_CELLS = ("degraded-i0", "degraded-i1", "ablation-i1")


def _soak_trace_file(trace_dir, cell):
    """The ``grid_trace_path`` of soak cell ``cell`` (xapian, EVAL_SEED)."""
    index = SOAK_CELLS.index(cell)
    return Path(trace_dir) / f"{index:03d}-soak-{cell}-xapian-seed424242.trace.jsonl"

BUS_PLANS = {
    "perfect": None,
    "sensor-partition": BusFaultPlan(
        events=(BusEvent(time=5.0, duration=1.0, direction="sensor"),)
    ),
    "command-partition": BusFaultPlan(
        events=(BusEvent(time=4.0, duration=2.5, direction="command"),)
    ),
}

CELLS = (
    [f"soak-{c}" for c in SOAK_CELLS]
    + ["soak-table"]
    + [f"bus-{name}" for name in BUS_PLANS]
)


def _soak(trace_dir):
    result = run_soak(intensities=(0, 1), seed=7, full=False, trace_dir=trace_dir)
    return result, render_soak(result)


def _soak_digests(trace_dir, table):
    out = {
        f"soak-{c}": hashlib.sha256(_soak_trace_file(trace_dir, c).read_bytes()).hexdigest()
        for c in SOAK_CELLS
    }
    out["soak-table"] = hashlib.sha256(table.encode()).hexdigest()
    return out


def _bus_cell(name):
    """Sorted JSON of one watchdog-protected bus run (no ``fallback`` flag)."""
    rt, ctx = _watchdog_run(
        make_tiny_app(), DURATION, BUS_PLANS[name], keep_requests=True
    )
    requests = [
        [
            r.req_id, r.arrival_time, r.start_time, r.finish_time, r.core_id,
            r.work, r.effective_work,
        ]
        for r in ctx.server.metrics.requests
    ]
    return json.dumps(
        {
            "energy": ctx.monitor.total_energy(),
            "switches": ctx.cpu.total_switches(),
            "freqs": [float(f) for f in ctx.cpu.frequencies()],
            "requests": requests,
            "watchdog": rt.watchdog_stats(),
            "control": rt.control_stats(),
            "actions": rt.action_history().tolist(),
        },
        sort_keys=True,
    )


def _bus_digest(name):
    return hashlib.sha256(_bus_cell(name).encode()).hexdigest()


def _regen(path=GOLDEN_PATH):
    """Re-record every golden digest (only for intended behaviour changes)."""
    with tempfile.TemporaryDirectory() as trace_dir:
        _, table = _soak(trace_dir)
        digests = _soak_digests(trace_dir, table)
    digests.update({f"bus-{name}": _bus_digest(name) for name in BUS_PLANS})
    Path(path).write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def _goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def soak_run(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("soak")
    result, table = _soak(str(trace_dir))
    return result, table, trace_dir


def test_golden_table_covers_every_cell():
    assert sorted(_goldens()) == sorted(CELLS)


def test_soak_goldens(soak_run):
    _, table, trace_dir = soak_run
    want = {k: v for k, v in _goldens().items() if k.startswith("soak-")}
    assert _soak_digests(trace_dir, table) == want


def test_soak_degraded_mode_holds_sla_under_loss(soak_run):
    result, _, trace_dir = soak_run
    assert check_control_soak(result) == []
    assert [Path(r["trace_path"]) for r in result["rows"]] == [
        _soak_trace_file(trace_dir, c) for c in SOAK_CELLS
    ]


def test_soak_trace_census_reports_retries(soak_run):
    _, _, trace_dir = soak_run
    text = render_summary(
        summarize_trace(str(_soak_trace_file(trace_dir, "degraded-i1")))
    )
    assert re.search(r"control plane: .*retries=[1-9]", text), text


@pytest.mark.parametrize("name", list(BUS_PLANS))
def test_bus_golden(name):
    assert _bus_digest(name) == _goldens()[f"bus-{name}"], name
