"""A run imports only the code it executes.

Each benchmark workload (``benchmarks/e2e/workloads.py``) is built and run
in a fresh interpreter.  Every module a run imports but never calls is
compiled for nothing, and the benchmark host keeps no bytecode cache, so
the compile lands in ``setup_s``.  A module first imported inside
``run()`` would land in ``run_s`` instead.
"""

from __future__ import annotations

import fnmatch
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Simulated seconds per workload: long enough for each layer to act
#: (fleet-chaos reaches its crash, partition and rack failure).
DURATION = {
    "node-saturated": 2.0,
    "node-deeppower": 6.0,
    "fleet-capped": 0.5,
    "fleet-chaos": 8.0,
}

#: Most ``repro`` modules one workload may import.
MODULE_BUDGET = 85

#: Modules no workload runs.  ``fig7_main`` is exempt from the experiment
#: patterns: it holds ``tuned_agent_setup``, the DeepPower recipe that the
#: workloads import.
FORBIDDEN = (
    "repro.experiments.registry",
    "repro.experiments.fig*",
    "repro.experiments.table*",
    "repro.baselines.gemini",
    "repro.baselines.retail",
    "repro.baselines.predictors",
    "repro.rl.sac",
    "repro.rl.td3",
    "repro.rl.dqn",
    "repro.parallel.pool",
    "repro.parallel.grid",
    "repro.core.training",
    "repro.checkpoint.manager",
)
EXEMPT = ("repro.experiments.fig7_main",)

#: Builds one workload, runs it and prints the ``repro`` modules loaded by
#: the build and those first loaded by ``run()``.
SCRIPT = """
import json, sys
root, name, duration, workdir = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/benchmarks/e2e"]
from workloads import FACTORIES

workload = FACTORIES[name](3, duration=float(duration), workdir=workdir)
built = {m for m in sys.modules if m.split(".")[0] == "repro"}
try:
    workload.run()
finally:
    workload.cleanup()
ran = {m for m in sys.modules if m.split(".")[0] == "repro"} - built
print(json.dumps({"built": sorted(built), "ran": sorted(ran)}))
"""


@pytest.mark.parametrize("name", sorted(DURATION))
def test_workload_imports_only_what_it_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), name, str(DURATION[name]), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    built = got["built"]
    forbidden = [
        m for m in built
        if m not in EXEMPT and any(fnmatch.fnmatchcase(m, p) for p in FORBIDDEN)
    ]
    assert forbidden == [], f"{name} imports modules it never runs: {forbidden}"
    assert len(built) <= MODULE_BUDGET, f"{name} imports {len(built)} repro modules"
    # numpy loads some of its own submodules (numpy.random, numpy.ma) on
    # first use; they come with bytecode, so only repro's count here.
    assert got["ran"] == [], f"{name}'s run() imports {got['ran']}"
