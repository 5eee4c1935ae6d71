"""Dump every public output of a checkout, and compare two dumps byte for byte.

    python3 tools/dump_outputs.py --out DIR [--tree CHECKOUT]
    python3 tools/dump_outputs.py --compare DIR_A DIR_B

``--out`` imports the library from ``CHECKOUT/src`` (default: this
checkout) and the benchmark's networks, draws and calls from
``CHECKOUT/perfbench/workloads.py``, which it only reads. It runs every
op kind of the benchmark, plus the recorded decisions, the two other
product strategies and the replay of a recorded state on two copies of
the network (``replay_doubled``: Dense and Conv2D weights doubled;
``replay_leakier``: every activation's leakiness raised by 0.25, which
the library refuses), on the five fixture families at seeds 0-3 and
scales 1-2 and on every benchmark network, each at inputs drawn from a
generator keyed by the network's and the kind's names. Each network's
outputs go to one ``.npz`` file, one array per output field; a call
that raises stores its exception instead. BLAS is pinned to one thread
before numpy loads, so the bits do not depend on the thread count.

``--compare`` lists every file or array that is missing on one side or
differs in dtype, shape or bytes (so a flipped sign of zero counts),
and exits 1 if there is any.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SEEDS = range(4)
FIXTURE_SCALES = (1, 2)
FIXTURE_MC_SAMPLES = 200
EXTRA_KINDS = ("record", "double_vjp", "batch_jacobian", "replay_doubled", "replay_leakier")


def load_workloads(tree: Path):
    """The checkout's perfbench/workloads.py, over the checkout's library."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    lib = Path(workloads.cpajvp.__file__).resolve()
    if not lib.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"cpajvp was imported from {lib}, not from {tree / 'src'}")
    return workloads


def flatten(prefix: str, obj, out: dict) -> None:
    """Every array and scalar in obj, keyed by its path under prefix."""
    if obj is None:
        return
    if isinstance(obj, np.ndarray):
        out[prefix] = obj
    elif isinstance(obj, (bool, int, float, str, np.generic)):
        out[prefix] = np.asarray(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            flatten(f"{prefix}.{f.name}", getattr(obj, f.name), out)
    elif isinstance(obj, (tuple, list)):
        for i, v in enumerate(obj):
            flatten(f"{prefix}.{i}", v, out)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            flatten(f"{prefix}.{k}", obj[k], out)
    else:
        raise TypeError(f"{prefix}: cannot dump a {type(obj).__name__}")


def rng_for(*names) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32("/".join(names).encode()))


def replay_copy(net, kind: str):
    """The copy of net that a replay kind replays a state of net on."""
    import cpajvp
    nodes = []
    for n in net.nodes:
        lay = n.layer
        if kind == "replay_doubled" and isinstance(lay, (cpajvp.Dense, cpajvp.Conv2D)):
            w = lay.weight_field
            lay = dataclasses.replace(lay, **{w: 2.0 * getattr(lay, w)})
        elif kind == "replay_leakier" and isinstance(lay, cpajvp.Activation):
            lay = dataclasses.replace(lay, leakiness=lay.leakiness + 0.25)
        nodes.append(cpajvp.Node(n.id, lay, n.inputs))
    return cpajvp.Network(net.input_shape, nodes, net.output)


def outputs(wl, name: str, net, kinds, mc_samples: int) -> dict:
    """Every output of the given kinds on one network, as flat arrays.
    ``kinds`` holds (kind, estimator) pairs; the estimator names mc's."""
    import cpajvp
    out = {}
    for kind, est in kinds:
        label = kind if est is None else f"{kind}-{est}"
        rng = rng_for(name, label)
        inp = wl.draw(rng, "jvp" if kind in EXTRA_KINDS else kind, net)
        try:
            if kind == "record":
                y, state = cpajvp.record_states(net, inp["x"])
                value = {"output": y, "sign_masks": state.sign_masks,
                         "argmax_indices": state.argmax_indices,
                         "keep_masks": state.keep_masks}
            elif kind == "double_vjp":
                value = cpajvp.strategy_double_vjp(net, inp["x"], inp["u"])
            elif kind == "batch_jacobian":
                value = cpajvp.strategy_batch_jacobian(net, inp["x"], inp["u"])
            elif kind.startswith("replay_"):
                copy, (_, state) = replay_copy(net, kind), cpajvp.record_states(net, inp["x"])
                v = rng.standard_normal(wl.output_shape(net))
                value = {"affine": cpajvp.frozen_forward(copy, state, inp["u"]),
                         "linear": cpajvp.frozen_forward(copy, state, inp["u"], "linear"),
                         "vjp": cpajvp.frozen_vjp(copy, state, v)}
            else:
                value = wl.call(kind, net, est, inp, mc_samples, 0)
        except (ValueError, RuntimeError) as exc:  # the library's errors
            value = f"{type(exc).__name__}: {exc}"
        flatten(label, value, out)
    return out


def fixture_kinds(wl, net) -> list:
    square = wl.output_shape(net) == net.input_shape
    kinds = [(k, None) for k in wl.KINDS + EXTRA_KINDS
             if k != "mc" and (k != "eigen" or square)]
    return kinds + [("mc", "frob")] + ([("mc", "trace")] if square else [])


def workload_kinds(wl, groups: dict, name: str) -> list:
    kinds = [(k, None) for k in wl.KINDS + EXTRA_KINDS
             if k != "mc" and name in dict(groups[wl.GROUP_OF.get(k, "products")])]
    return kinds + [("mc", est) for n, _, est in wl.members("mc", groups) if n == name]


def dump(out_dir: Path, tree: Path = ROOT) -> int:
    """Write one .npz per network; returns the number written."""
    wl = load_workloads(tree)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for arch in wl.fixtures.ARCHITECTURES:
        for seed in FIXTURE_SEEDS:
            for scale in FIXTURE_SCALES:
                net = wl.fixtures.generate(arch, seed, scale)[0]
                jobs.append((f"fixture-{arch}-s{seed}-x{scale}", net,
                             fixture_kinds(wl, net), FIXTURE_MC_SAMPLES))
    for wname, cfg in wl.WORKLOADS.items():
        groups = cfg["build"]()
        nets = {n: net for group in groups.values() for n, net in group}
        for n, net in nets.items():
            jobs.append((f"{wname}-{n}", net, workload_kinds(wl, groups, n),
                         cfg["mc_samples"]))
    for name, net, kinds, mc_samples in jobs:
        np.savez(out_dir / f"{name}.npz", **outputs(wl, name, net, kinds, mc_samples))
    return len(jobs)


def compare(a: Path, b: Path) -> list[str]:
    """Every difference between two dumps, one line each."""
    diffs = []
    files_a = {p.name for p in a.glob("*.npz")}
    files_b = {p.name for p in b.glob("*.npz")}
    diffs += [f"{f}: only in {a}" for f in sorted(files_a - files_b)]
    diffs += [f"{f}: only in {b}" for f in sorted(files_b - files_a)]
    for f in sorted(files_a & files_b):
        with np.load(a / f, allow_pickle=False) as da, np.load(b / f, allow_pickle=False) as db:
            diffs += [f"{f} {k}: only in {a}" for k in sorted(set(da) - set(db))]
            diffs += [f"{f} {k}: only in {b}" for k in sorted(set(db) - set(da))]
            for k in sorted(set(da) & set(db)):
                x, y = da[k], db[k]
                if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                    diffs.append(f"{f} {k}: differs")
    return diffs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="directory to write the dump to")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                      help="two dump directories")
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout whose library is dumped (default: this one)")
    args = p.parse_args(argv)
    if args.out is not None:
        print(f"{dump(args.out, args.tree.resolve())} networks dumped to {args.out}")
        return 0
    diffs = compare(*args.compare)
    print("\n".join(diffs) if diffs else "no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
