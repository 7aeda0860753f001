"""``deeppower fleet`` end to end: golden digests and determinism checks.

The oracle is ``cli_goldens.json``: for each scenario, SHA-256 digests of
the trace body (every line after the ``trace-header`` line) and of stdout
(without its first, banner line and without the ``trace written`` line).
Each entry names the ``fleet`` argv it runs.  The digests were recorded
from the former ``fleet``, ``chaos --nodes 4`` and ``hier --nodes 4``
subcommands (all at ``--seed 2023``), before those were merged into
``fleet``; the argv spells out the defaults they relied on.
``fleet-scale-64`` is the 64-node capped JSQ fleet whose rerun determinism
the fleet-scale CI job once checked with a shell ``cmp``.  Regenerate with
``PYTHONPATH=src python -c "from tests.test_cli_fleet import _regen;
_regen()"`` only for an intended behaviour change.

The other tests rerun a scenario in-process and pin the same properties
a shell ``cmp``/``grep`` would: rerun determinism, failover and learning
actually engaged, checkpoint/resume, and a hier-off run free of any
coordinator footprint.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).with_name("cli_goldens.json")


def _run(argv, trace_out=None):
    """Run the CLI in-process; returns (rc, stdout, trace bytes or None)."""
    if trace_out is not None:
        argv = [*argv, "--trace-out", str(trace_out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    trace = Path(trace_out).read_bytes() if trace_out is not None else None
    return rc, buf.getvalue(), trace


def _without_trace_line(stdout):
    return re.sub(r"^trace written.*\n", "", stdout, flags=re.M)


def _stdout_body(stdout):
    """stdout minus the banner line and the ``trace written`` line."""
    return _without_trace_line(stdout.split("\n", 1)[1])


def _trace_body(trace):
    lines = trace.splitlines(keepends=True)
    assert b'"trace-header"' in lines[0]
    return b"".join(lines[1:])


def _digests(stdout, trace):
    return {
        "stdout": hashlib.sha256(_stdout_body(stdout).encode()).hexdigest(),
        "trace": hashlib.sha256(_trace_body(trace)).hexdigest(),
    }


def _goldens():
    return json.loads(GOLDEN_PATH.read_text())


def _regen(path=GOLDEN_PATH):
    """Re-record every digest by running each entry's argv."""
    table = json.loads(Path(path).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in table.items():
            rc, stdout, trace = _run(entry["argv"], Path(tmp) / f"{name}.jsonl")
            assert rc == 0, name
            entry.update(_digests(stdout, trace))
    Path(path).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run per golden scenario, shared by the tests below."""
    cache = {}

    def get(name):
        if name not in cache:
            out = tmp_path_factory.mktemp(name) / "run1.trace.jsonl"
            cache[name] = _run(_goldens()[name]["argv"], out)
        return cache[name]

    return get


def test_every_entry_runs_the_fleet_command():
    for name, entry in _goldens().items():
        assert entry["argv"][0] == "fleet", name
        assert set(entry) == {"argv", "stdout", "trace"}


@pytest.mark.parametrize("name", sorted(_goldens()))
def test_reproduces_recorded_digests(traced, name):
    rc, stdout, trace = traced(name)
    assert rc == 0
    want = _goldens()[name]
    assert _digests(stdout, trace) == {
        "stdout": want["stdout"], "trace": want["trace"]
    }, name


def test_fleet_stdout_independent_of_trace_out(traced):
    _, traced_out, _ = traced("fleet-capped")
    rc, plain_out, _ = _run(_goldens()["fleet-capped"]["argv"])
    assert rc == 0
    assert "trace written" in traced_out
    assert _without_trace_line(traced_out) == plain_out


@pytest.mark.parametrize("name", ["chaos", "hier"])
def test_rerun_is_bitwise_identical(traced, tmp_path, name):
    _, out1, trace1 = traced(name)
    rc, out2, trace2 = _run(_goldens()[name]["argv"], tmp_path / "run2.jsonl")
    assert rc == 0
    assert trace1 == trace2
    assert _without_trace_line(out1) == _without_trace_line(out2)


def test_chaos_failover_engaged(traced):
    _, out, _ = traced("chaos")
    assert re.search(r"chaos: crashes=[1-9]", out)
    assert re.search(r"redispatched=[1-9]", out)
    assert "avail" in out.splitlines()[1]


def test_hier_agent_decided_and_learned_under_cap(traced):
    _, out, _ = traced("hier")
    assert re.search(r"fleet agent: decisions=[1-9]", out)
    assert re.search(r"updates=[1-9]", out)
    assert any("power cap" in ln and "[ok]" in ln for ln in out.splitlines())


def _updates(stdout):
    return int(re.search(r"updates=([0-9]+)", stdout).group(1))


def test_hier_checkpoint_then_resume_keeps_training(tmp_path):
    argv = [*_goldens()["hier"]["argv"], "--checkpoint-dir", str(tmp_path)]
    rc, first, _ = _run(argv)
    assert rc == 0
    assert "fleet-agent checkpoint written to" in first
    rc, second, _ = _run([*argv, "--resume"])
    assert rc == 0
    assert "resumed fleet agent from step 1" in second
    assert _updates(second) > _updates(first)


def test_hier_resume_rejects_foreign_snapshot(tmp_path, capsys):
    from repro.checkpoint import CheckpointManager

    CheckpointManager(str(tmp_path), prefix="hier").save(
        {"fleet_agent": {}}, step=1, meta={"kind": "training"}
    )
    argv = [*_goldens()["hier"]["argv"], "--checkpoint-dir", str(tmp_path),
            "--resume"]
    assert main(argv) == 2
    assert "is not a fleet-agent checkpoint" in capsys.readouterr().err


def test_hier_off_has_zero_footprint(tmp_path, capsys):
    argv = ["fleet", "--nodes", "4", "--policy", "baseline",
            "--routing", "power-aware", "--power-cap", "auto",
            "--seed", "2023"]
    _, out, trace1 = _run(argv, tmp_path / "plain1.jsonl")
    _, _, trace2 = _run(argv, tmp_path / "plain2.jsonl")
    assert trace1 == trace2
    assert b'"coordinator-decision"' not in trace1
    assert "fleet agent:" not in out
    assert main(["trace", "summarize", str(tmp_path / "plain1.jsonl"),
                 "--group-by", "node"]) == 0
    assert "hier:" not in capsys.readouterr().out
