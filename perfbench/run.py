"""The repository benchmark: one closed-loop client, one process.

    python3 perfbench/run.py --workload chain512 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
Every op kind runs on every workload (see workloads.py). The kinds take
turns in short visits until ``--seconds`` of wall time are used, and a
round is sent only after the previous one has been checked against an
independent reference, outside the timed region.

Round times are gated in units of "cal": the time of a fixed
plain-numpy kernel (the Yardstick) measured just before each visit.
Wall-clock medians in ms are reported next to them, but not gated,
because on a shared host they drift with the neighbours' load.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every other cycle runs with spans around the library's public
functions, and the metrics are per layer. The line before it is a JSON
report with every metric, the wall-clock medians, the tails, the
failing ops and the environment.

BLAS is pinned to one thread before numpy loads: at the default thread
count small-row products stall in some processes and not in others.
The traced chain512 run measures that default-thread case separately.
"""
from __future__ import annotations

import os
import sys
import time

_DEFAULT_THREADS = "--default-threads-probe" in sys.argv
if not _DEFAULT_THREADS:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 5
CYCLE_S = 0.45       # one visit of every kind
MIN_CYCLES = 3
BASELINE_REPS = 15
CHAIN_HEADS = ("k1", "k16", "k256")

CAL_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_cal": "1/cal", "forward_cal": "cal",
    "jvp_cal": "cal", "vjp_cal": "cal", "clone_cal": "cal",
    "jvp_weight_cal": "cal", "affine_rop_cal": "cal",
    "mc_samples_per_cal": "1/cal", "eigen_cal": "cal", "svd_cal": "cal",
}

# per-layer metrics every workload produces; the report line adds the
# ones only some workloads have (conv, pooling, the chain512 baselines)
PER_LAYER_TIMED = (
    "network.record_states", "network.validate", "network.shape_infer",
    "network.forward", "clone.jvp_input", "clone.vjp_input",
    "clone.frozen_vjp", "clone.jvp_weight", "bench.strategy_clone",
    "affine.materialize_affine_via_rop", "spectral.rop", "spectral.lop",
    "spectral.top_k_eigen", "spectral.top_k_svd",
    "spectral.frobenius_norm_mc", "spectral.trace_mc",
    "spectral.probe_from_network", "numerics.qr_householder",
)
PRODUCT_SPANS = ("clone.jvp_input", "clone.vjp_input", "clone.jvp_weight",
                 "bench.strategy_clone", "spectral.rop", "spectral.lop")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _import_library():
    try:
        import numpy as np
        import cpajvp
    except ImportError as exc:
        raise BenchError(f"cannot import the library from {ROOT / 'src'}: {exc}")
    src = (ROOT / "src").resolve()
    if src not in Path(cpajvp.__file__).resolve().parents:
        raise BenchError(f"cpajvp was imported from {cpajvp.__file__}, "
                         f"not from this checkout's src/")
    return np, cpajvp


# ---------------------------------------------------------------------------
# environment

def _blas_threads(np) -> int | str:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(np), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_commit": _git_commit()}


# ---------------------------------------------------------------------------
# files: networks and warm-up inputs are written before any clock starts

def write_inputs(np, cpajvp, wl, workload: str, seed: int, workdir: Path) -> None:
    from cpajvp.tenio import save_network, write_tensor
    groups = wl.WORKLOADS[workload]["build"]()
    rng = np.random.default_rng([seed, 999])
    manifest = {}
    written = set()
    for group, entries in groups.items():
        manifest[group] = [name for name, _ in entries]
        for name, net in entries:
            if name in written:
                continue
            written.add(name)
            d = workdir / name
            save_network(net, d)
            inp = wl.draw(rng, "vjp", net)
            inp["u"] = wl.draw(rng, "jvp", net)["u"]
            inp["direction"] = wl.draw(rng, "jvp_weight", net)["direction"]
            for key in ("x", "u", "v", "direction"):
                write_tensor(d / f"{key}.ten", inp[key])
    (workdir / "manifest.json").write_text(json.dumps(manifest))


def load(cpajvp, wl, workdir: Path):
    """Networks and warm-up inputs through tenio, as a user would load them."""
    manifest = json.loads((workdir / "manifest.json").read_text())
    cache = {}
    for name in {n for names in manifest.values() for n in names}:
        d = workdir / name
        net = cpajvp.parse_network(d / "net.json")
        inp = {key: cpajvp.read_tensor(d / f"{key}.ten")
               for key in ("x", "u", "v", "direction")}
        inp["node"] = wl.weight_node(net).id
        cache[name] = (net, inp)
    groups = {g: [(n, cache[n][0]) for n in names] for g, names in manifest.items()}
    return groups, {n: inp for n, (_, inp) in cache.items()}


def warm_up(wl, groups, inputs) -> None:
    """First calls of every kind: cheap kinds on every network, the rest
    on the first network of their group."""
    for kind in wl.KINDS:
        mem = wl.members(kind, groups)
        if kind in ("affine_rop", "eigen", "svd"):
            mem = mem[:1]
        for name, net, est in mem:
            wl.call(kind, net, est, inputs[name], 2, 0)


# ---------------------------------------------------------------------------
# measurement

def _percentile_tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = 1.0 - 10.0 / n
    ordered = sorted(values)
    return {"value": ordered[min(n - 1, int(q * n))] * 1e3, "unit": "ms",
            "percentile": round(100.0 * q, 2), "samples": n}


class Phase:
    """Outcome of the untraced (index 0) or traced (index 1) rounds, with
    one input stream and round counter per kind, so inputs depend on
    the seed and not on how rounds interleave."""

    def __init__(self, np, seed: int, index: int, kinds):
        self.rngs = {k: np.random.default_rng([seed, i, index])
                     for i, k in enumerate(kinds)}
        self.rounds = {k: 0 for k in kinds}
        self.latency = {k: [] for k in kinds}
        self.mc_rate = []
        self.failures = []
        self.norm = {k: [] for k in kinds}
        self.mc_per_cal = []

    @property
    def attempted(self):
        return sum(self.rounds.values())


class Yardstick:
    """A fixed plain-numpy kernel, timed right before every visit: a
    chain of leaky dense layers at the workload's width (see
    workloads.WORKLOADS). On a shared 2-core Xeon VM, speed drifted by
    up to 1.8x within minutes, and interpreter-bound code slowed more
    than BLAS-bound code; dividing a round's time by a yardstick of the
    same character, timed next to it, cancels most of that drift, which
    no statistic of wall time alone can."""

    def __init__(self, np, width: int, layers: int):
        rng = np.random.default_rng(0)
        self.np = np
        self.layers = layers
        self.w = rng.standard_normal((width, width)) / np.sqrt(width)
        self.v = rng.standard_normal(width)

    def measure(self) -> float:
        """Fastest of CAL_REPS timings, in seconds."""
        np, w = self.np, self.w
        best = float("inf")
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            h = self.v
            for _ in range(self.layers):
                pre = w @ h
                h = pre * np.where(pre >= 0, 1.0, 0.1)
            best = min(best, time.perf_counter() - t0)
        return best


def run_visit(wl, kind, groups, cfg, ref_cls, quantum_s, phase, tracer,
              yardstick) -> None:
    """Rounds of one kind for about quantum_s of wall time (at least one),
    each checked before the next is sent."""
    mem = wl.members(kind, groups)
    cal = yardstick.measure()
    n_mc = cfg["mc_samples"]
    root = tracer.span if tracer is not None else (lambda _: contextlib.nullcontext())
    end = time.perf_counter() + quantum_s
    while True:
        idx = phase.rounds[kind]
        phase.rounds[kind] += 1
        inps = [wl.draw(phase.rngs[kind], kind, net) for _, net, _ in mem]
        outs = []
        err = None
        with root("op"):
            t0 = time.perf_counter()
            try:
                for (name, net, est), inp in zip(mem, inps):
                    outs.append(wl.call(kind, net, est, inp, n_mc, idx))
            except Exception as exc:  # a failing call is a failed op, not a crash
                err = f"{kind} round {idx} on {name}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if err is None:
            with root("check"):
                for (name, net, est), inp, out in zip(mem, inps, outs):
                    try:
                        errs = wl.check(kind, net, est, inp, out, ref_cls, n_mc)
                    except Exception as exc:
                        errs = [f"reference raised {type(exc).__name__}: {exc}"]
                    if errs:
                        err = f"{kind} round {idx} on {name}: {errs[0]}"
                        break
        if err is not None:
            phase.failures.append(err)
        else:
            phase.latency[kind].append(dt)
            phase.norm[kind].append(dt / cal)
            if kind == "mc":
                phase.mc_rate.append(n_mc * len(mem) / dt)
                phase.mc_per_cal.append(n_mc * len(mem) * cal / dt)
        if time.perf_counter() >= end:
            return


def measure(np, wl, groups, cfg, ref_cls, seed, seconds, tracer):
    """Cycle through the kinds, a short quantum each, until the time is
    up. Interleaving spreads every kind over the whole run, so a slow
    spell of a shared machine hits all kinds alike. A traced run
    alternates untraced and traced cycles."""
    phases = [Phase(np, seed, i, wl.KINDS) for i in range(2 if tracer else 1)]
    yardstick = Yardstick(np, *cfg["yardstick"])
    quantum = CYCLE_S / len(wl.KINDS)
    end = time.perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES * len(phases) or time.perf_counter() < end:
        phase = phases[cycle % len(phases)]
        traced = tracer if phase is phases[-1] and tracer is not None else None
        if traced is not None:
            traced.install()
        try:
            for kind in wl.KINDS:
                run_visit(wl, kind, groups, cfg, ref_cls, quantum, phase, traced,
                          yardstick)
        finally:
            if traced is not None:
                traced.uninstall()
        cycle += 1
    return phases


def end_to_end(phase, setup_s) -> dict:
    """Gated metrics: per-kind medians over rounds of round time divided
    by the yardstick timed next to it (unit "cal"), and ops_per_cal, the
    rounds per cal of the fixed mix of one round of each kind. Counting
    rounds as they happen instead would weight kinds by how many fit in
    a quantum, which moves with the check cost."""
    medians = {k: statistics.median(v) for k, v in phase.norm.items() if v}
    metrics = {"setup_s": setup_s,
               "ops_per_cal": len(medians) / sum(medians.values()) if medians else 0.0}
    for kind, value in medians.items():
        if kind != "mc":
            metrics[f"{kind}_cal"] = value
    if phase.mc_per_cal:
        metrics["mc_samples_per_cal"] = statistics.median(phase.mc_per_cal)
    return metrics


def wall_clock(phase) -> dict:
    """The same medians in wall time, reported but not gated."""
    out = {f"{k}_ms": {"value": statistics.median(v) * 1e3, "unit": "ms"}
           for k, v in phase.latency.items() if v and k != "mc"}
    if phase.mc_rate:
        out["mc_samples_per_s"] = {"value": statistics.median(phase.mc_rate), "unit": "1/s"}
    return out


def tails(phase) -> dict:
    out = {}
    for kind, values in phase.latency.items():
        tail = _percentile_tail(values)
        if tail is not None:
            out[f"tail.{kind}_ms"] = tail
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the traced half

def per_layer(tracer, traced_seconds: float) -> dict:
    summ = tracer.summary()
    ops = {name: rec for (phase, name), rec in summ.items() if phase == "op"}
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "quantity": 0.0, "parents": {}}
    m = {}
    for name in PER_LAYER_TIMED:
        rec = ops.get(name, zero)
        m[f"{name}.calls"] = (rec["calls"], "count")
        m[f"{name}.self_ms"] = (rec["self_s"] * 1e3, "ms")
    for name in ("spectral.top_k_eigen", "spectral.top_k_svd"):
        rec = ops.get(name, zero)
        m[f"{name}.iterations"] = (rec["quantity"] / max(rec["calls"], 1), "count")
    products = sum(ops.get(n, zero)["calls"] for n in PRODUCT_SPANS) + \
        ops.get("affine.materialize_affine_via_rop", zero)["quantity"]
    m["network.records_per_product"] = (
        ops.get("network.record_states", zero)["calls"] / max(products, 1), "ratio")
    fwd = ops.get("network.forward", zero)
    m["network.dense_gflop_per_s"] = (
        fwd["quantity"] / fwd["total_s"] if fwd["total_s"] > 0 else 0.0, "GFLOP/s")
    probe_calls = sum(ops.get(n, zero)["calls"] for n in ("spectral.rop", "spectral.lop"))
    selfcheck = sum(ops.get(n, zero)["parents"].get("spectral.probe_from_network", 0)
                    for n in ("spectral.rop", "spectral.lop"))
    m["spectral.selfcheck_share"] = (selfcheck / max(probe_calls, 1), "ratio")
    setup = {name: rec for (phase, name), rec in summ.items() if phase == "setup"}
    parse = setup.get("tenio.parse_network", zero)
    m["tenio.parse_network.self_ms"] = (parse["self_s"] * 1e3, "ms")
    rt = setup.get("tenio.read_tensor", zero)
    m["tenio.read_tensor.self_ms"] = (rt["self_s"] * 1e3, "ms")
    m["tenio.read_tensor.mb"] = (rt["quantity"], "MB")
    extra = {}
    for name in ("numerics.conv2d", "numerics.conv2d_input_adjoint",
                 "numerics.maxpool_argmax"):
        if name in ops:
            extra[f"{name}.calls"] = (ops[name]["calls"], "count")
            extra[f"{name}.self_ms"] = (ops[name]["self_s"] * 1e3, "ms")
    if "numerics.conv2d" in ops:
        extra["numerics.conv2d.gflop"] = (ops["numerics.conv2d"]["quantity"], "GFLOP (computed)")
    direct = summ.get(("check", "affine.materialize_affine_direct"))
    if direct is not None:
        extra["affine.materialize_affine_direct.self_ms"] = (direct["self_s"] * 1e3, "ms")
    extra["trace.traced_seconds"] = (traced_seconds, "s")
    return m, extra


# ---------------------------------------------------------------------------
# chain512 strategy baselines and the default-thread pass

def _median_ms(fn, reps):
    for _ in range(3):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def chain_baselines(np, cpajvp, wl, groups, rng, reps) -> tuple[dict, list[str]]:
    heads = dict(groups["products"])
    out, errors = {}, []
    for name in CHAIN_HEADS:
        net = heads[name]
        x = rng.standard_normal(net.input_shape)
        u = rng.standard_normal(net.input_shape)
        want = wl.ChainRef(net, x).jvp(u)
        got = {"clone": cpajvp.strategy_clone(net, x, u)[0],
               "double_vjp": cpajvp.strategy_double_vjp(net, x, u),
               "batch_jacobian": cpajvp.strategy_batch_jacobian(net, x, u)}
        for strat, value in got.items():
            if not wl.rel_err(value, want) <= wl.PRODUCT_TOL:
                errors.append(f"baseline {strat} on {name} disagrees with the reference")
        out[name] = {
            "forward": _median_ms(lambda: cpajvp.forward(net, x), reps),
            "clone": _median_ms(lambda: cpajvp.strategy_clone(net, x, u), reps),
            "double_vjp": _median_ms(lambda: cpajvp.strategy_double_vjp(net, x, u), reps),
            "batch_jacobian": _median_ms(
                lambda: cpajvp.strategy_batch_jacobian(net, x, u), reps),
        }
    return out, errors


def default_threads_pass(workdir: Path, seed: int) -> dict:
    """chain512 clone medians in a fresh process at the default BLAS
    thread count (the pinning variables removed from its environment)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--default-threads-probe", str(workdir),
                           "--seed", str(seed)],
                          env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"default-thread pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def chain512_extras(np, cpajvp, wl, groups, workdir, seed) -> tuple[dict, list[str]]:
    """Strategy baselines per head at one BLAS thread and, in a fresh
    process, clone medians at the default thread count; reported, not
    gated. Each head's agreement check counts as one op per pass."""
    base, errors = chain_baselines(np, cpajvp, wl, groups,
                                   np.random.default_rng([seed, 998]), BASELINE_REPS)
    extra = {}
    for name, v in base.items():
        extra[f"bench.clone_over_forward.{name}"] = (v["clone"] / v["forward"], "ratio")
        for strat in ("clone", "double_vjp", "batch_jacobian"):
            extra[f"bench.strategy_{strat}.{name}_ms"] = (v[strat], "ms")
    clone = [v["clone"] for v in base.values()]
    extra["bench.clone_k_spread"] = (max(clone) / min(clone), "ratio")
    default = default_threads_pass(workdir, seed)
    errors += default["errors"]
    for name, v in default["clone_ms"].items():
        extra[f"bench.clone_ms.default_threads.{name}"] = (v, "ms")
    dclone = list(default["clone_ms"].values())
    extra["bench.clone_k_spread.default_threads"] = (max(dclone) / min(dclone), "ratio")
    extra["bench.blas_threads.default_threads"] = (default["blas_threads"], "count")
    for name, net in groups["products"]:
        for node in net.nodes:
            if hasattr(node.layer, "weights"):
                extra[f"network.dense_mflop.{name}.{node.id}"] = (
                    2.0 * node.layer.weights.size / 1e6, "MFLOP (computed)")
    return extra, errors


def _default_threads_main(workdir: Path, seed: int) -> int:
    np, cpajvp = _import_library()
    import workloads as wl
    groups, _ = load(cpajvp, wl, workdir)
    base, errors = chain_baselines(np, cpajvp, wl, groups,
                                   np.random.default_rng([seed, 997]), BASELINE_REPS)
    print(json.dumps({"blas_threads": _blas_threads(np), "errors": errors,
                      "clone_ms": {k: v["clone"] for k, v in base.items()}}))
    return 0


def _setup_probe_main(workdir: Path) -> int:
    np, cpajvp = _import_library()
    import workloads as wl
    groups, inputs = load(cpajvp, wl, workdir)
    warm_up(wl, groups, inputs)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


def measure_setup(workdir: Path) -> float:
    """Median over fresh processes of import + load through tenio + warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", str(workdir)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# ---------------------------------------------------------------------------

def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    np, cpajvp = _import_library()
    import tracer as tracer_mod
    import workloads as wl
    cfg = wl.WORKLOADS[workload]
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        write_inputs(np, cpajvp, wl, workload, seed, workdir)
        setup_s = measure_setup(workdir)
        tracer = tracer_mod.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        with tracer.span("setup") if tracer is not None else contextlib.nullcontext():
            groups, inputs = load(cpajvp, wl, workdir)
            warm_up(wl, groups, inputs)
        if tracer is not None:
            tracer.uninstall()
        ref_cls = wl.REFS[cfg["ref"]]
        phases = measure(np, wl, groups, cfg, ref_cls, seed, seconds, tracer)
        plain, traced = phases[0], phases[-1]
        attempted = sum(p.attempted for p in phases)
        failures = [f for p in phases for f in p.failures]
        failed = len(failures)
        e2e = end_to_end(plain, setup_s)
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "environment": environment(np),
                  "rounds": {k: len(v) for k, v in plain.latency.items()},
                  "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                 for k, v in e2e.items()},
                  "wall_clock": wall_clock(plain),
                  "tails": tails(plain)}
        if tracer is None:
            metrics = report["end_to_end"]
        else:
            layer, extra = per_layer(tracer, seconds / 2)
            traced_e2e = end_to_end(traced, setup_s)
            ratios = [traced_e2e[k] / e2e[k] if k.endswith("_cal") else e2e[k] / traced_e2e[k]
                      for k in e2e if k != "setup_s" and k in traced_e2e and e2e[k] > 0]
            layer["trace.overhead_pct"] = (
                100.0 * (statistics.geometric_mean(ratios) - 1.0), "%")
            if workload == "chain512":
                more, errors = chain512_extras(np, cpajvp, wl, groups, workdir, seed)
                extra.update(more)
                failures += errors
                failed += len(errors)
                attempted += 2 * len(CHAIN_HEADS)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            report["per_layer"] = metrics
            report["per_layer_extra"] = {k: {"value": v, "unit": u}
                                         for k, (v, u) in extra.items()}
        report["op_fail_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
        report["failures"] = failures[:50]
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
        return line, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    p.add_argument("--default-threads-probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            return _setup_probe_main(Path(args.setup_probe))
        if args.default_threads_probe:
            return _default_threads_main(Path(args.default_threads_probe), args.seed)
        _import_library()
        import workloads as wl
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"--workload must be one of {sorted(wl.WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        line, report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
