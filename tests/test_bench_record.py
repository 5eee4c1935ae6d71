"""The summary arithmetic of tools/bench_record.py, on synthetic runs."""
import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def runs(values):
    return [{"workload": "w", "end_to_end": {"t_cal": {"value": t}, "rate": {"value": r}}}
            for t, r in values]


def test_quartiles_of_one_and_of_several_runs():
    assert bench_record.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_comparison_counts_wins_in_each_metric_direction():
    base = runs([(1.0, 10.0), (1.1, 11.0), (1.2, 12.0), (1.3, 13.0), (1.4, 14.0)])
    new = runs([(0.5, 10.0), (0.5, 12.0), (1.3, 13.0), (0.5, 12.0), (0.5, 13.0)])
    out = bench_record.comparison(new, base, ["w"], {"t_cal": "lower", "rate": "higher"})["w"]
    # lower is better: pair 2 is lost, the rest won
    assert out["t_cal"]["wins"] == 4 and out["t_cal"]["pairs"] == 5
    assert out["t_cal"]["ratio"] == 0.5 / 1.2
    assert out["t_cal"]["gap_exceeds_baseline_iqr"] is True  # gap 0.7, IQR 0.2
    # higher is better: pairs 1 and 2 won, the tie in pair 0 counts for neither
    assert out["rate"]["wins"] == 2
    assert out["rate"]["ratio"] == 12.0 / 12.0
    assert out["rate"]["gap_exceeds_baseline_iqr"] is False


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                    "-c", "init.defaultBranch=main", *args],
                   cwd=repo, check=True, capture_output=True)


def committed_repo(path):
    (path / "src").mkdir(parents=True)
    (path / "src" / "lib.py").write_text("x = 1\n")
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": [], "run_seconds": 1}))
    git(path, "init", "-q")
    git(path, "add", "-A")
    git(path, "commit", "-qm", "base")
    return path


class Ran(Exception):
    pass


def test_a_library_tree_that_differs_from_head_is_refused_before_any_run(
        tmp_path, monkeypatch):
    change, base = committed_repo(tmp_path / "change"), committed_repo(tmp_path / "base")

    def run_once(*args):
        raise Ran
    monkeypatch.setattr(bench_record, "ROOT", change)
    monkeypatch.setattr(bench_record, "run_once", run_once)
    argv = ["--pr", "t", "--baseline", str(base)]
    with pytest.raises(Ran):  # both sides clean: the runs start
        bench_record.main(argv)
    (change / "src" / "lib.py").write_text("x = 2\n")
    with pytest.raises(SystemExit, match=re.escape(f"refusing to measure {change}")):
        bench_record.main(argv)
    git(change, "checkout", "--", "src")
    (base / "src" / "new.py").write_text("")  # untracked counts too
    with pytest.raises(SystemExit, match=re.escape(f"refusing to measure {base}")):
        bench_record.main(argv)
    # a directory outside any git checkout is refused too
    with pytest.raises(SystemExit, match=re.escape(f"refusing to measure {tmp_path}")):
        bench_record.require_clean_src(tmp_path)
