"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.registry import REGISTRY, Experiment

#: A minimal valid learned-coordinator fleet command line.
HIER = ["fleet", "--hier", "ddpg", "--power-cap", "auto"]
#: Each ``fleet`` group flag, its switch, and a valid value (none for
#: store-true flags).
SWITCHED_FLAGS = [
    ("chaos", "--retry-budget", ["1"]), ("chaos", "--retry-backoff", ["0.1"]),
    ("chaos", "--recovery", ["1"]), ("chaos", "--drop-in-flight", []),
    ("chaos", "--no-failover", []),
    ("hier", "--eval", []), ("hier", "--hier-agent", ["agent.npz"]),
    ("hier", "--save-hier-agent", ["agent.npz"]),
    ("hier", "--checkpoint-dir", ["ckpt"]), ("hier", "--resume", []),
]


class TestValidation:
    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig5", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_must_be_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig5", "--jobs", "many"])
        assert "expects an integer" in capsys.readouterr().err

    def test_checkpoint_every_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--checkpoint-every", "-1"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_rejects_missing_dir(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        with pytest.raises(SystemExit):
            main(["train", "--resume", "--checkpoint-dir", missing])
        assert "does not exist" in capsys.readouterr().err

    def test_resume_accepts_existing_dir(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--resume", "--checkpoint-dir", str(tmp_path)]
        )
        cli._validate_resume(parser, args)  # no SystemExit

    @pytest.mark.parametrize("flags", [
        ["--checkpoint-dir", "ckpt"], ["--resume"],
    ])
    def test_experiment_has_no_snapshot_flags(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig5", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_power_cap_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", "-5"])
        assert "must be positive" in capsys.readouterr().err

    def test_power_cap_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", "lots"])
        assert "watts or 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "NaN"])
    def test_power_cap_rejects_nonfinite(self, capsys, bad):
        # float('nan') <= 0 is False, so without an explicit isfinite
        # check these used to sail through and traceback much later.
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", bad])
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_hier_power_budget_rejects_nonfinite(self, capsys, bad):
        # The budget the fleet agent apportions is --power-cap.
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "ddpg", "--power-cap", bad])
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--load", "--chaos", "--retry-backoff"]
    )
    def test_chaos_rates_reject_nonfinite(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1", flag, "nan"])
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["fleet", "--agent"], [*HIER, "--hier-agent"]],
        ids=["agent", "hier-agent"],
    )
    def test_missing_agent_file_is_a_usage_error(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(tmp_path / "missing.npz")])
        assert exc.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_agent_file_arg_accepts_what_the_loader_opens(self, tmp_path):
        # The loader appends a missing .npz extension, so both spellings
        # name the same archive.
        (tmp_path / "agent.npz").write_bytes(b"")
        for value in ("agent.npz", "agent"):
            path = str(tmp_path / value)
            assert cli._agent_file_arg(path) == path

    @pytest.mark.parametrize(
        "flag", [["--shared-replay"], ["--fed-avg-every", "2"]],
        ids=["shared-replay", "fed-avg-every"],
    )
    def test_removed_replay_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([*HIER, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_hier_rejects_unknown_algo(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "dqn", "--power-cap", "auto"])
        assert "invalid choice" in capsys.readouterr().err

    def test_hier_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main([*HIER, "--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_hier_requires_power_cap(self, capsys):
        # A parser error, not ClusterConfig's ValueError traceback.
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "ddpg"])
        assert "--hier requires --power-cap" in capsys.readouterr().err

    def test_resume_requires_hier(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--resume"])
        assert "--resume requires --hier" in capsys.readouterr().err

    @pytest.mark.parametrize("switch,flag,value", SWITCHED_FLAGS)
    def test_group_flag_requires_its_switch(
        self, capsys, monkeypatch, tmp_path, switch, flag, value
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "agent.npz").write_bytes(b"")  # --hier-agent must exist
        with pytest.raises(SystemExit):
            main(["fleet", flag, *value])
        assert f"{flag} requires --{switch}" in capsys.readouterr().err

    @pytest.mark.parametrize("module,callee,argv,want", [
        ("repro.faults", "standard_chaos_plan",
         ["--chaos", "1", "--retry-budget", "3", "--retry-backoff", "0.2",
          "--recovery", "4", "--drop-in-flight"],
         dict(retry_budget=3, retry_backoff=0.2, recovery_time=4.0,
              drop_in_flight=True)),
        ("repro.hier", "HierConfig",
         [*HIER[1:], "--eval", "--hier-agent", "a.npz"],
         dict(algo="ddpg", train=False, agent_path="a.npz")),
    ])
    def test_group_flags_reach_their_callee(
        self, monkeypatch, tmp_path, module, callee, argv, want
    ):
        import importlib

        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.npz").write_bytes(b"")  # --hier-agent must exist

        class Reached(Exception):
            pass

        def record(*args, **kwargs):
            raise Reached(kwargs)

        monkeypatch.setattr(importlib.import_module(module), callee, record)
        with pytest.raises(Reached) as exc:
            main(["fleet", *argv])
        got = exc.value.args[0]
        assert {k: got[k] for k in want} == want
        assert "no_failover" not in got and "save_hier_agent" not in got

    def test_fleet_nodes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--nodes", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_fleet_load_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--load", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_chaos_nodes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1", "--nodes", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_chaos_intensity_must_be_positive(self, capsys):
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit):
                main(["fleet", "--chaos", bad])
            assert "must be > 0" in capsys.readouterr().err

    def test_chaos_retry_budget_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1", "--retry-budget", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_chaos_retry_backoff_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1", "--retry-backoff", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_chaos_recovery_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1", "--recovery", "-0.5"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_chaos_rejects_non_numeric(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "heavy"])
        assert "expected a number" in capsys.readouterr().err


class TestFleetCommand:
    def test_fleet_run_and_group_by_node_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "fleet.trace.jsonl")
        assert main([
            "fleet", "--nodes", "2", "--policy", "baseline",
            "--routing", "power-aware", "--power-cap", "auto",
            "--trace-out", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out
        assert "power cap: budget=" in out and "[ok]" in out
        assert main(["trace", "summarize", trace, "--group-by", "node"]) == 0
        out = capsys.readouterr().out
        assert "node-summary=2" in out
        assert "powercap: budget_w=" in out

    def test_chaos_run_and_group_by_node_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "chaos.trace.jsonl")
        assert main([
            "fleet", "--nodes", "2", "--policy", "retail", "--seed", "2023",
            "--chaos", "1", "--trace-out", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out and "chaos=1, failover=on" in out
        assert "chaos: crashes=" in out and "availability=" in out
        assert main(["trace", "summarize", trace, "--group-by", "node"]) == 0
        out = capsys.readouterr().out
        assert "node-summary=2" in out
        assert "faults: crashes=" in out

    def test_group_by_rejects_unknown_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", "x.jsonl", "--group-by", "core"])
        assert "invalid choice" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_help_imports_no_experiment(self):
        # The registry lists ids and descriptions without importing the
        # experiments, so the help text costs no experiment's compile.
        out, loaded = _run_with_importtime("--help")
        assert "deeppower" in out
        experiments = sorted(m for m in loaded if m.startswith("repro.experiments."))
        assert experiments == ["repro.experiments.registry"]
        # The fleet --policy choices come from parallel.cells, not the fleet.
        fleet = sorted(
            m for m in loaded
            if m == "repro.cluster.node" or m == "repro.server" or m.startswith("repro.server.")
        )
        assert fleet == []

    def test_list_imports_no_experiment(self):
        # Listing reads ids and descriptions; no run, render or check
        # module is imported.
        out, loaded = _run_with_importtime("list")
        assert "fig7" in out
        experiments = sorted(m for m in loaded if m.startswith("repro.experiments."))
        assert experiments == ["repro.experiments.registry"]

    def test_fleet_policy_choices_are_the_node_policies(self):
        from repro.cluster.node import NODE_POLICIES

        fleet = build_parser()._subparsers._group_actions[0].choices["fleet"]
        (policy,) = [a for a in fleet._actions if a.dest == "policy"]
        assert list(policy.choices) == list(NODE_POLICIES)
        assert policy.choices == ("baseline", "retail", "gemini", "deeppower", "controller")

    def test_experiment_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "scaleFunc" in out

    def test_experiment_prints_failed_claims_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(REGISTRY["fig5"], "_check", lambda result: ["scaleFunc stays flat"])
        assert main(["experiment", "fig5"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("\nclaim failed: fig5: scaleFunc stays flat\n")

    def test_experiment_prints_only_the_table_when_claims_hold(self, capsys):
        from repro.experiments.fig5_scalefunc import render_fig5, run_fig5

        assert main(["experiment", "fig5"]) == 0
        assert capsys.readouterr().out == render_fig5(run_fig5()) + "\n"

    def test_experiment_runs_every_id_and_fails_on_any(self, capsys, monkeypatch):
        # Several ids run in order; one failed claim fails the command.
        monkeypatch.setattr(REGISTRY["fig5"], "_check", lambda result: ["flat"])
        assert main(["experiment", "fig5", "table2"]) == 1
        out, err = capsys.readouterr()
        assert out.index("scaleFunc") < out.index("claim failed: fig5: flat") < out.index("DDPG")
        assert "== fig5: " in err and "== table2: " in err

    def test_experiment_full_rejected_without_full_profile(self, capsys):
        assert main(["experiment", "fig5", "--full"]) == 2
        assert "'fig5' has no --full profile" in capsys.readouterr().err

    def _fake_experiments(self, monkeypatch):
        """fig7 as a run with a full profile, fig5 and table2 as runs
        without one; each records the ``full`` its run and check saw."""
        calls = []

        def with_full(full=None):
            calls.append(("fig7", full))
            return "fig7 rows"

        def single(name):
            def run():
                calls.append((name, "run"))
                return f"{name} rows"

            return run

        def check(result, full=None):
            calls.append((result, "check", full))
            return []

        fakes = {
            "fig7": Experiment("fig7", "full", with_full, str, check),
            "fig5": Experiment("fig5", "single", single("fig5"), str, check),
            "table2": Experiment("table2", "single", single("table2"), str),
        }
        monkeypatch.setattr(cli, "get_experiment", fakes.__getitem__)
        return calls

    def test_experiment_full_runs_profileless_ids_at_their_only_one(
        self, monkeypatch, capsys
    ):
        calls = self._fake_experiments(monkeypatch)
        assert main(["experiment", "fig5", "fig7", "table2", "--full", "--no-cache"]) == 0
        assert calls == [
            ("fig5", "run"), ("fig5 rows", "check", None),
            ("fig7", True), ("fig7 rows", "check", True),
            ("table2", "run"),
        ]
        out, err = capsys.readouterr()
        assert out == "fig5 rows\nfig7 rows\ntable2 rows\n"
        (line,) = [l for l in err.splitlines() if "--full" in l]
        assert line == "no --full profile, run at their only one: fig5, table2"

    def test_experiment_full_single_profileless_id_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        calls = self._fake_experiments(monkeypatch)
        assert main(["experiment", "table2", "--full", "--no-cache"]) == 2
        assert calls == []
        assert "'table2' has no --full profile" in capsys.readouterr().err

    @pytest.mark.parametrize("exp_id", ["fig9", "fig10"])
    def test_experiment_full_reaches_freq_traces(self, monkeypatch, exp_id):
        # fig9/fig10 wrap one run function; --full must still reach it.
        from repro.experiments import fig9_10_freq_traces

        class Reached(Exception):
            pass

        def active_profile(full):
            raise Reached(full)

        monkeypatch.setattr(fig9_10_freq_traces, "active_profile", active_profile)
        with pytest.raises(Reached) as exc:
            main(["experiment", exp_id, "--full", "--no-cache"])
        assert exc.value.args == (True,)

    def test_only_profileless_experiments_reject_full(self):
        import inspect

        from repro.experiments.registry import REGISTRY

        rejected = {
            exp_id for exp_id, exp in REGISTRY.items()
            if "full" not in inspect.signature(exp.run).parameters
        }
        assert rejected == {"fig5", "table2", "overhead"}

    def test_experiment_type_error_is_not_retried(self, monkeypatch):
        # A TypeError raised inside a run must surface, not trigger a
        # silent second run at the small profile.
        calls = []

        def run(full=None):
            calls.append(full)
            raise TypeError("deep inside the run")

        fake = Experiment("fake", "raises", run, str)
        monkeypatch.setattr(cli, "get_experiment", lambda _id: fake)
        with pytest.raises(TypeError, match="deep inside"):
            # The parser admits registered ids only; the patched lookup
            # then hands back the fake.
            main(["experiment", "fig7", "--full", "--no-cache"])
        assert calls == [True]

    def test_experiment_unknown_raises(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig99"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fleet", "--policy", "foo"],
        ["compare", "--app", "nope"],
        ["train", "--app", "nope"],
        ["fleet", "--app", "nope"],
        ["soak", "--app", "nope"],
        ["experiment", "nope"],
    ])
    def test_unknown_name_is_a_usage_error(self, capsys, argv):
        # A mistyped policy, app or experiment id is a usage error (exit
        # 2), not a KeyError/ValueError traceback from deep in the run.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_compare_rejects_unknown_policy(self, capsys):
        rc = main(["compare", "--app", "xapian", "--policies", "nonsense"])
        assert rc == 2

    def test_train_parser_defaults(self):
        args = build_parser().parse_args(["train", "--app", "moses"])
        assert args.app == "moses"
        assert args.episodes == 0
        assert args.fn is not None

    def test_train_metrics_hold_steps_and_spans(self, monkeypatch, tmp_path):
        # The traced-training smoke run's facts, on a 3 s trace in place
        # of fig7's calibrated one: the trace holds the steps and spans.
        from types import SimpleNamespace

        import repro.experiments.fig7_main as fig7_main
        from repro.obs import read_trace
        from repro.workload import constant_trace
        from repro.workload.apps import get_app

        rps = get_app("xapian").rps_for_load(0.4, 4)
        monkeypatch.setattr(
            fig7_main, "fig7_calibration",
            lambda app, profile, result_cache=None: SimpleNamespace(
                trace=constant_trace(rps, 3.0)
            ),
        )
        trace = tmp_path / "train.trace.jsonl"
        assert main([
            "train", "--app", "xapian", "--episodes", "2", "--seed", "3",
            "--out", str(tmp_path / "agent.npz"),
            "--trace-out", str(trace), "--profile-spans",
        ]) == 0
        events = list(read_trace(str(trace)))
        assert sum(e["kind"] == "drl-step" for e in events) > 0
        (summary,) = [e for e in events if e["kind"] == "span-summary"]
        assert summary["spans"], "--profile-spans produced no spans"

    def test_profile_spans_requires_trace_out(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "agent.npz"), "--profile-spans"])
        assert exc.value.code == 2
        assert "--profile-spans requires --trace-out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_compare_plays_the_fig7_trace(self, monkeypatch, capsys):
        # ``compare --app moses`` plays fig7's workload: moses's own
        # calibration target (0.85), not the default 0.7.
        from dataclasses import replace

        import numpy as np

        import repro.experiments.runner as runner
        import repro.experiments.scenarios as scenarios
        from repro.experiments.fig7_main import fig7_calibration

        short = replace(scenarios.SMOKE, trace_duration=10.0, trace_segments=5)
        monkeypatch.setattr(scenarios, "SMOKE", short)
        played = []
        real = runner.run_policy

        def recording(factory, app, trace, *args, **kwargs):
            played.append(trace)
            return real(factory, app, trace, *args, **kwargs)

        monkeypatch.setattr(runner, "run_policy", recording)
        assert main(["compare", "--app", "moses", "--policies", "baseline"]) == 0
        assert "baseline" in capsys.readouterr().out
        compared = played[-1]
        want = fig7_calibration("moses", short).trace
        np.testing.assert_array_equal(compared.rates, want.rates)

    def test_train_uses_the_experiment_recipe(self, monkeypatch, tmp_path):
        # ``train`` builds the agent fig7, soak and ``fleet --agent`` use:
        # the app's tuned reward on fig7's calibrated trace.
        from types import SimpleNamespace

        import numpy as np

        import repro.core
        from repro.experiments.fig7_main import fig7_calibration
        from repro.experiments.scenarios import SMOKE

        seen = {}

        def stub(app, trace, **kw):
            seen.update(kw, trace=trace)
            return SimpleNamespace(episodes=[SimpleNamespace(mean_reward=0.0)])

        monkeypatch.setattr(repro.core, "train_deeppower", stub)
        out = str(tmp_path / "agent.npz")
        assert main(["train", "--app", "xapian", "--out", out]) == 0
        assert seen["config"].reward.beta == 26.0
        assert seen["num_workers"] == 4
        want = fig7_calibration("xapian", SMOKE).trace
        np.testing.assert_array_equal(seen["trace"].rates, want.rates)


def _run_with_importtime(*argv):
    """``(stdout, imported module names)`` of ``python -m repro.cli *argv``."""
    import os
    import subprocess
    import sys

    import repro

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *argv],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0])),
    )
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc.stdout, loaded
