"""The A/B pairs tool (``benchmarks/ab_pairs.py``) with a fake runner."""

import contextlib
import importlib.util
import subprocess
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "benchmarks" / "ab_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class FakeRunner:
    """Scripted per-side values of ``metric``; records the order of calls."""

    def __init__(self, base_dir, base, change, energy=(5.0, 5.0), digest=("d", "d"),
                 metric="node_s_per_wall_s"):
        self.base_dir = Path(base_dir)
        self.metric = metric
        self.values = {"base": list(base), "change": list(change)}
        self.energy = dict(zip(("base", "change"), energy))
        self.digest = dict(zip(("base", "change"), digest))
        self.calls = []
        self.dirs = set()

    def __call__(self, checkout, workload, seed):
        side = "base" if Path(checkout) == self.base_dir else "change"
        self.calls.append((side, workload, seed))
        self.dirs.add(Path(checkout))
        metrics = {
            "node_s_per_wall_s": 100.0,
            "setup_s": 0.5,
            "peak_rss_mb": 50.0 if side == "base" else 51.0,
            "sim_energy_j": self.energy[side],
        }
        metrics[self.metric] = self.values[side].pop(0)
        return {"metrics": metrics, "sim_digest": self.digest[side]}


def _main(tool, runner, tmp_path, *extra):
    """Run the tool on copies under ``tmp_path``: ``base`` for the base
    revision, ``change`` for the working tree."""
    revs = []

    @contextlib.contextmanager
    def checkout(rev):
        revs.append(rev)
        yield tmp_path / ("change" if rev is None else "base")

    rc = tool.main(
        ["--base", "HEAD~1", "--workload", "fleet-chaos", "--seed", "2", *extra],
        runner=runner, checkout=checkout,
    )
    assert revs == ["HEAD~1", None]
    return rc


def test_alternates_sides_and_reports_the_pairs(tmp_path, capsys):
    tool = _load()
    runner = FakeRunner(
        tmp_path / "base", base=[80, 82, 84, 79], change=[100, 104, 83, 106]
    )
    assert _main(tool, runner, tmp_path, "--pairs", "4") == 0
    sides = [side for side, _, _ in runner.calls]
    assert sides == ["base", "change", "change", "base"] * 2
    # Both sides run in their copies, never in the repository itself.
    assert runner.dirs == {tmp_path / "base", tmp_path / "change"}
    assert tool.ROOT not in runner.dirs
    assert {(w, s) for _, w, s in runner.calls} == {("fleet-chaos", 2)}
    out = capsys.readouterr().out
    assert "base   node_s_per_wall_s median 81 q1=79.25 q3=83.5 n=4" in out
    assert "change node_s_per_wall_s median 102 " in out
    assert "change/base 1.259x; pairs won 3/4" in out
    assert "median gap 21 > base IQR 4.25: yes" in out
    assert "sim_energy_j equal: yes; sim_digest equal: yes (d)" in out
    assert "peak_rss_mb median base 50 change 51" in out
    assert "sim_energy_j median base 5 change 5" in out


def test_lower_is_better_metric_counts_drops_as_wins(tmp_path, capsys):
    # setup_s is "lower" in BENCHMARK.json: a pair is won when the change
    # is faster, and the gap is the base median minus the change median.
    tool = _load()
    runner = FakeRunner(
        tmp_path / "base", base=[0.50, 0.48, 0.52, 0.49], change=[0.37, 0.36, 0.53, 0.38],
        metric="setup_s",
    )
    assert _main(tool, runner, tmp_path, "--pairs", "4", "--metric", "setup_s") == 0
    out = capsys.readouterr().out
    assert "# pair 1 (base first): base 0.5 change 0.37" in out
    assert "base   setup_s median 0.495 q1=0.4825 q3=0.515 n=4" in out
    assert "change/base 0.758x; pairs won 3/4 (lower is better)" in out
    assert "median gap 0.12 > base IQR 0.0325: yes" in out
    assert "node_s_per_wall_s median base 100 change 100" in out


def test_metric_must_be_an_end_to_end_metric(tmp_path, capsys):
    tool = _load()
    runner = FakeRunner(tmp_path / "base", base=[1.0], change=[1.0])
    with pytest.raises(SystemExit):
        _main(tool, runner, tmp_path, "--metric", "sim.events")
    assert "invalid choice" in capsys.readouterr().err


def test_reports_energy_and_digest_mismatches(tmp_path, capsys):
    tool = _load()
    runner = FakeRunner(
        tmp_path / "base", base=[80, 80], change=[79, 90],
        energy=(5.0, 5.5), digest=("a", "b"),
    )
    assert _main(tool, runner, tmp_path, "--pairs", "2") == 0
    out = capsys.readouterr().out
    assert "pairs won 1/2" in out
    assert "sim_energy_j equal: no; sim_digest equal: no (a, b)" in out


def test_failed_run_exits_one(tmp_path):
    tool = _load()

    def broken(checkout, workload, seed):
        raise RuntimeError("run.py exited 1")

    assert _main(tool, broken, tmp_path, "--pairs", "1") == 1


def test_base_checkout_holds_the_revision(tmp_path, monkeypatch):
    # The base is the committed tree of the revision, outside the repo.
    tool = _load()
    git = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=tool.ROOT,
        capture_output=True, text=True,
    )
    if git.returncode != 0:
        pytest.skip("not a git checkout")
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    with tool.tree_copy("HEAD") as path:
        assert path.is_relative_to(tmp_path)
        assert (path / "benchmarks" / "e2e" / "run.py").is_file()
        assert not (path / ".git").exists()
    assert not path.exists()


def test_change_copy_holds_the_working_tree(tmp_path, monkeypatch):
    # The change side is a copy of the working tree: tracked files as
    # they are on disk and untracked ones git does not ignore.
    tool = _load()
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    for name, text in {
        ".gitignore": "*.log\n", "tracked.py": "edited\n", "gone.py": "",
        "sub/new.py": "new\n", "run.log": "ignored\n",
    }.items():
        (repo / name).write_text(text)
    for cmd in (["git", "init", "-q"], ["git", "add", ".gitignore", "tracked.py", "gone.py"]):
        if subprocess.run(cmd, cwd=repo, capture_output=True).returncode != 0:
            pytest.skip("git is unavailable")
    (repo / "gone.py").unlink()
    monkeypatch.setattr(tool, "ROOT", repo)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    with tool.tree_copy(None) as path:
        assert path.is_relative_to(tmp_path) and not path.is_relative_to(repo)
        files = sorted(str(f.relative_to(path)) for f in path.rglob("*") if f.is_file())
        assert files == [".gitignore", "sub/new.py", "tracked.py"]
        assert (path / "tracked.py").read_text() == "edited\n"
    assert not path.exists()
