"""The verdict of ``tools/bench_pairs.py`` on synthetic paired results, and
the copies each side runs from."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(value, correct=True):
    return {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {"m": {"value": value, "unit": "1/s"}}}


def pairs(parent, change):
    return [(result(p), result(c)) for p, c in zip(parent, change)]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    v = bench_pairs.verdict(pairs(PARENT, [x + 5.0 for x in PARENT]), "m", "higher", 0.25)
    assert (v["wins"], v["ties"], v["losses"]) == (10, 0, 0)
    assert v["parent_median"] == 100.0 and v["change_median"] == 105.0
    assert v["parent_iqr"] == pytest.approx(1.25)  # 100.875 - 99.625
    assert v["gain"] and not v["worse"] and not v["unresolved"]
    eight = [x + 5.0 for x in PARENT[:8]] + [x - 1.0 for x in PARENT[8:]]
    v = bench_pairs.verdict(pairs(PARENT, eight), "m", "higher", 0.25)
    assert (v["wins"], v["losses"]) == (8, 2) and not v["gain"]
    # every pair won, by less than the parent's spread
    v = bench_pairs.verdict(pairs(PARENT, [x + 0.5 for x in PARENT]), "m", "higher", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_fewer_than_ten_pairs_are_no_gain():
    for n in (1, 5, 9):
        v = bench_pairs.verdict(pairs(PARENT[:n], [x + 50.0 for x in PARENT[:n]]), "m",
                                "higher", 0.25)
        assert v["wins"] == n and not v["gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 80.0, 120.0, 100.0]
    v = bench_pairs.verdict(pairs(wide, wide), "m", "lower", 0.25)
    assert v["parent_iqr"] > 0.25 * v["parent_median"]
    assert v["unresolved"] and not v["worse"] and not v["gain"]
    # every change run beats every parent run: resolved, whatever the spread
    v = bench_pairs.verdict(pairs(wide, [x / 10.0 for x in wide]), "m", "lower", 0.25)
    assert not v["unresolved"] and v["gain"]
    v = bench_pairs.verdict(pairs(wide, [x + 81.0 for x in wide]), "m", "higher", 0.25)
    assert not v["unresolved"] and v["gain"]
    v = bench_pairs.verdict(pairs(wide, [x + 79.0 for x in wide]), "m", "higher", 0.25)
    assert v["unresolved"] and v["gain"]


def test_lower_is_better_and_the_bound_marks_worse():
    v = bench_pairs.verdict(pairs(PARENT, [x * 1.2 for x in PARENT]), "m", "lower", 0.25)
    assert v["losses"] == 10 and not v["gain"] and not v["worse"]
    v = bench_pairs.verdict(pairs(PARENT, [x * 1.3 for x in PARENT]), "m", "lower", 0.25)
    assert v["worse"]
    v = bench_pairs.verdict(pairs(PARENT, [x * 0.7 for x in PARENT]), "m", "higher", 0.25)
    assert v["worse"]
    v = bench_pairs.verdict(pairs(PARENT, PARENT), "m", "lower", 0.25)
    assert v["ties"] == 10 and not v["gain"] and not v["worse"]


def test_a_failed_side_is_kept_and_counts_against_a_gain():
    runs = pairs(PARENT, [x + 5.0 for x in PARENT])
    runs[3] = (runs[3][0], None)
    runs[7] = (runs[7][0], result(200.0, correct=False))
    v = bench_pairs.verdict(runs, "m", "higher", 0.25)
    assert (v["wins"], v["failed_pairs"]) == (8, 2)
    assert not v["gain"]
    assert v["parent_median"] == 100.0  # the parent's runs all count
    assert bench_pairs.failed_share([None, result(1.0), {**result(1.0), "failed": 50}]) == 0.25
    v = bench_pairs.verdict([(None, None)], "m", "higher", 0.25)
    assert v["parent_median"] is None and v["worse"] is None and not v["gain"]
    assert v["unresolved"] is None


def test_a_larger_failed_share_marks_the_workload_worse():
    metrics = [{"name": "m", "better": "higher", "bound": 0.25}]
    runs = pairs(PARENT, PARENT)
    record = bench_pairs.summary(runs, metrics)
    assert record["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert record["failed_share_worse"] is False
    assert set(record["verdicts"]) == {"m"} and len(record["runs"]) == 10
    runs[4] = (runs[4][0], {**runs[4][1], "failed": 10})  # 10 of 1000 operations
    record = bench_pairs.summary(runs, metrics)
    assert record["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert record["failed_share_worse"] is True
    runs[4] = ({**runs[4][0], "failed": 20}, runs[4][1])  # fewer failed than the parent
    assert bench_pairs.summary(runs, metrics)["failed_share_worse"] is False
    runs = [(p, None) for p, _ in runs]  # no change run has a result
    record = bench_pairs.summary(runs, metrics)
    assert record["failed_share"]["change"] is None and record["failed_share_worse"] is None


def test_the_environment_names_the_python_the_bytecode_cache_and_the_cpus(monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = bench_pairs.environment()
    assert set(env) == {"python", "dont_write_bytecode", "cpus"}
    assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert env["dont_write_bytecode"] is False
    assert env["cpus"] == len(os.sched_getaffinity(0)) >= 1
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.environment()["dont_write_bytecode"] is True
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")  # empty is unset, as for python
    assert bench_pairs.environment()["dont_write_bytecode"] is False


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, stdout=subprocess.DEVNULL)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repository whose working tree differs from HEAD: one committed
    file edited, one deleted, one untracked and one ignored."""
    root = tmp_path / "repo"
    (root / "sub").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "m", "better": "higher", "bound": 0.25}]}))
    (root / ".gitignore").write_text("*.log\n")
    (root / "sub" / "code.py").write_text("committed\n")
    (root / "gone.txt").write_text("deleted later\n")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "parent")
    (root / "sub" / "code.py").write_text("edited\n")
    (root / "gone.txt").unlink()
    (root / "new.txt").write_text("untracked\n")
    (root / "run.log").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", str(root))
    return root


def test_the_change_side_is_the_working_tree_as_git_would_commit_it(repo, tmp_path):
    copy = tmp_path / "copy"
    bench_pairs.copy_worktree(str(copy))
    files = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert files == [".gitignore", "BENCHMARK.json", "new.txt", "sub/code.py"]
    assert (copy / "sub" / "code.py").read_text() == "edited\n"


@pytest.mark.parametrize("fails", [False, True])
def test_both_sides_run_from_copies_removed_on_every_exit(repo, monkeypatch, fails):
    """Neither side runs from the checkout; the parent's copy holds the
    committed files and the change's the edited ones.  The temporary
    directory is removed whether the runs end or raise."""
    made, seen = [], {}
    real_mkdtemp = bench_pairs.tempfile.mkdtemp
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp",
                        lambda **kw: made.append(real_mkdtemp(**kw)) or made[-1])
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)

    def run_once(checkout, workload, seed, seconds):
        seen[checkout] = (Path(checkout, "sub", "code.py").read_text(),
                          Path(checkout, "new.txt").exists())
        if fails:
            raise KeyboardInterrupt
        return None

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    if fails:
        with pytest.raises(KeyboardInterrupt):
            bench_pairs.main(["--parent", "HEAD"])
    else:
        assert bench_pairs.main(["--parent", "HEAD"]) == 0
    assert len(made) == 1 and not os.path.exists(made[0])
    assert str(repo) not in seen and all(c.startswith(made[0]) for c in seen)
    parent, change = ("committed\n", False), ("edited\n", True)
    assert set(seen.values()) == ({parent} if fails else {parent, change})
