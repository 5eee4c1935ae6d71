"""Short runs of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs for one second with and without tracing; every
metric BENCHMARK.json names must be printed with its unit, and every
op must pass its check. A run whose reference is deliberately
corrupted must report failed ops, and a directory without the library
must make the benchmark exit non-zero without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc


def _lines(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    report, line = _lines(_run([str(RUN), "--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", str(trace)]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, report["failures"]
    assert line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert report["op_fail_ratio"]["value"] == 0.0
    assert report["environment"]["blas_threads"] == 1


CORRUPT = """
import sys
sys.argv = ["run.py"] + sys.argv[1:]
sys.path.insert(0, "perfbench")
import run
import workloads
for cls in (workloads.ChainRef, workloads.GeneralRef):
    good = cls.jvp
    cls.jvp = lambda self, u, good=good: good(self, u) * (1.0 + 1e-6)
sys.exit(run.main())
"""


@pytest.mark.parametrize("workload", ["chain512", "families"])
def test_corrupted_reference_counts_failed_ops(workload):
    report, line = _lines(_run(["-c", CORRUPT, "--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", "0"]))
    assert not line["correct"]
    assert line["failed"] > 0
    assert report["op_fail_ratio"]["value"] > 0.0
    assert any(f.startswith(("jvp ", "clone ")) for f in report["failures"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "chain512", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
