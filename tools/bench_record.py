"""Record the repository benchmark into a committed BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --baseline ../parent-checkout

Runs the unchanged ``perfbench/run.py`` (``--trace 0``) on every workload
of ``BENCHMARK.json`` at the fixed seeds 1001-1010, each run as long as
its ``run_seconds``, one run at a time, so every BENCH file is
comparable with the others. It keeps each run's ``environment``,
``end_to_end`` and ``wall_clock`` blocks, plus its attempted and failed
op counts. Per workload it writes the median and quartiles of every
end-to-end metric over the seeds.

Each side's ``src/`` must match its checkout's HEAD (``git status
--porcelain -- src`` prints nothing), so that the record names the code
it measured; otherwise the script exits before any run.

With ``--baseline DIR`` (a checkout of the commit to compare against)
the same seeds run there too, in pairs that alternate which side runs
first, and the file gains the baseline's runs and a comparison per
workload and metric: the median ratio (this tree / baseline), the pairs
this tree won (ties count for neither) and whether the gap between the
medians exceeds the baseline's interquartile range.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1001, 1011))
KEPT = ("environment", "end_to_end", "wall_clock")


def require_clean_src(checkout: Path) -> None:
    """Exit unless the checkout's src/, untracked files included, is its
    HEAD's."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode or proc.stdout:
        raise SystemExit(f"refusing to measure {checkout}: its src/ must match its HEAD "
                         f"(git status --porcelain -- src):\n{proc.stdout or proc.stderr}")


def tree_id(checkout: Path) -> dict:
    """The checkout's HEAD, whether its tracked files differ from it, and
    a digest of the library source."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain",
                                                               "--untracked-files=no")),
            "src_sha256": digest.hexdigest()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} on {workload} seed {seed}:\n"
                         f"{proc.stderr[-2000:]}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "attempted": result["attempted"], "failed": result["failed"]}
    run.update({k: report[k] for k in KEPT})
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in runs if r["workload"] == workload]


def summary(runs: list[dict], workloads, metrics) -> dict:
    return {w: {m: quartiles(values_of(runs, w, m)) for m in metrics} for w in workloads}


def comparison(runs: list[dict], base: list[dict], workloads, better: dict) -> dict:
    out = {}
    for w in workloads:
        out[w] = {}
        for m, direction in better.items():
            new, old = values_of(runs, w, m), values_of(base, w, m)
            sign = 1.0 if direction == "higher" else -1.0
            q_new, q_old = quartiles(new), quartiles(old)
            gap = abs(q_new["median"] - q_old["median"])
            out[w][m] = {"ratio": q_new["median"] / q_old["median"],
                         "wins": sum(sign * (a - b) > 0 for a, b in zip(new, old)),
                         "pairs": len(new),
                         "gap_exceeds_baseline_iqr": gap > q_old["q3"] - q_old["q1"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    p.add_argument("--baseline", type=Path, help="checkout to compare against")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()
    for checkout in sides.values():
        require_clean_src(checkout)
    runs = {side: [] for side in sides}
    for i, (workload, seed) in enumerate((w, s) for w in workloads for s in SEEDS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, seconds))
            print(f"{side} {workload} seed {seed}: failed {runs[side][-1]['failed']}",
                  file=sys.stderr)
    doc = {"pr": args.pr, "command": ["python3", "perfbench/run.py", "--trace", "0"],
           "seconds": seconds, "seeds": list(SEEDS), "tree": tree_id(ROOT),
           "end_to_end": summary(runs["change"], workloads, better),
           "runs": runs["change"]}
    if args.baseline is not None:
        doc["baseline"] = {"tree": tree_id(sides["baseline"]),
                           "end_to_end": summary(runs["baseline"], workloads, better),
                           "runs": runs["baseline"]}
        doc["comparison"] = comparison(runs["change"], runs["baseline"], workloads, better)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
