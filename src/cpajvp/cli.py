"""Command line front end.

Subcommands: jvp, vjp, jvp-weight, affine, eigen, svd, frobnorm, trace,
bench, gen. Exit codes: 0 on success, 1 for usage errors, 2 for data or
computation errors (bad files, shape mismatches, NaN or inf in inputs or
weights, exceeded budgets, strategy disagreement).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import fixtures
from .affine import BudgetExceeded, materialize_affine_direct, \
    materialize_affine_via_rop
from .clone import jvp_input, jvp_weight, vjp_input
from .network import GraphError, ShapeMismatch
from .spectral import AdjointMismatch, frobenius_norm_mc, probe_from_network, \
    top_k_eigen, top_k_svd, trace_mc
from .tenio import NetworkSchemaError, TensorFormatError, parse_network, \
    read_tensor, save_network, write_tensor

_DATA_ERRORS = (TensorFormatError, NetworkSchemaError, ShapeMismatch,
                GraphError, BudgetExceeded, bench_mod.StrategyMismatch,
                AdjointMismatch, FileNotFoundError, IsADirectoryError,
                PermissionError, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _seeded_input(net, seed: int, role: str) -> np.ndarray:
    return fixtures._rng(seed, role).standard_normal(net.input_shape)


def _build_parser() -> _Parser:
    p = _Parser(prog="cpajvp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--net", required=True, help="network JSON path")
        sp.add_argument("--x", required=True, help="input .ten path")

    sp = sub.add_parser("jvp", help="Jacobian-vector product at x")
    common(sp)
    sp.set_defaults(run=_cmd_product, product=jvp_input)
    sp.add_argument("--u", dest="operand", metavar="U", required=True,
                    help="direction .ten path")
    sp.add_argument("--out", required=True, help="output .ten path")

    sp = sub.add_parser("vjp", help="vector-Jacobian product at x")
    common(sp)
    sp.set_defaults(run=_cmd_product, product=vjp_input)
    sp.add_argument("--v", dest="operand", metavar="V", required=True,
                    help="cotangent .ten path")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("jvp-weight", help="weight-direction derivative")
    common(sp)
    sp.set_defaults(run=_cmd_jvp_weight)
    sp.add_argument("--node", required=True, help="dense or conv2d node id")
    sp.add_argument("--direction", required=True, help="direction .ten path")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("affine", help="materialize the region's slope and offset")
    common(sp)
    sp.set_defaults(run=_cmd_affine)
    sp.add_argument("--out-slope", required=True)
    sp.add_argument("--out-bias", required=True)
    sp.add_argument("--method", choices=("direct", "rop"), default="direct",
                    help="direct: compose per-layer maps; rop: probe the "
                         "engines from the narrow side, rows of the slope "
                         "by one transposed pass when outputs < inputs, "
                         "columns by one forward pass otherwise")
    sp.add_argument("--budget", type=int, default=10 ** 6)

    for name, solver in (("eigen", top_k_eigen), ("svd", top_k_svd)):
        sp = sub.add_parser(name, help=f"top-k {name} via block iteration")
        common(sp)
        sp.set_defaults(run=_cmd_spectral, solver=solver)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--max-iter", type=int, default=500)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-values")
        if name == "eigen":
            sp.add_argument("--out-vectors")
        else:
            sp.add_argument("--out-left")
            sp.add_argument("--out-right")

    for name, estimator in (("frobnorm", frobenius_norm_mc), ("trace", trace_mc)):
        sp = sub.add_parser(name, help=f"Monte Carlo {name} estimate")
        common(sp)
        sp.set_defaults(run=_cmd_estimate, estimator=estimator)
        sp.add_argument("--samples", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("bench", help="time the product strategies")
    sp.set_defaults(run=_cmd_bench)
    sp.add_argument("--net", required=True)
    sp.add_argument("--x", help="input .ten path (seeded random if omitted)")
    sp.add_argument("--u", help="direction .ten path (seeded random if omitted)")
    sp.add_argument("--k-sweep", help="comma-separated output sizes; each gets "
                                      "a seeded dense head")
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--warmup", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", help="CSV destination (stdout if omitted)")
    sp.add_argument("--no-forward", action="store_true",
                    help="skip the forward-pass baseline rows")

    sp = sub.add_parser("gen", help="generate a seeded fixture network")
    sp.set_defaults(run=_cmd_gen)
    sp.add_argument("--arch", required=True, choices=fixtures.ARCHITECTURES)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--scale", type=int, default=1)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--weights", choices=("files", "inline"), default="files")
    return p


def _cmd_product(args) -> int:
    net = parse_network(args.net)
    out = args.product(net, read_tensor(args.x), read_tensor(args.operand))
    write_tensor(args.out, out)
    return 0


def _cmd_jvp_weight(args) -> int:
    net = parse_network(args.net)
    out = jvp_weight(net, read_tensor(args.x), args.node,
                     read_tensor(args.direction))
    write_tensor(args.out, out)
    return 0


def _cmd_affine(args) -> int:
    net = parse_network(args.net)
    x = read_tensor(args.x)
    fn = materialize_affine_direct if args.method == "direct" \
        else materialize_affine_via_rop
    amap = fn(net, x, budget=args.budget)
    write_tensor(args.out_slope, amap.a)
    write_tensor(args.out_bias, amap.b)
    return 0


def _cmd_spectral(args) -> int:
    net = parse_network(args.net)
    probe = probe_from_network(net, read_tensor(args.x))
    res = args.solver(probe, args.k, tol=args.tol, max_iter=args.max_iter,
                      seed=args.seed)
    print("values:", " ".join(repr(float(v)) for v in res.values))
    print(f"iterations: {res.iterations} converged: {res.converged} "
          f"residual: {res.residual!r}")
    print("residuals:", " ".join(repr(r) for r in res.residuals))
    print(f"rop_calls: {res.rop_calls} lop_calls: {res.lop_calls}")
    outputs = (("out_values", res.values), ("out_vectors", res.right_vectors),
               ("out_left", res.left_vectors), ("out_right", res.right_vectors))
    for dest, value in outputs:
        path = getattr(args, dest, None)  # each command has only its own
        if path:
            write_tensor(path, value)
    return 0


def _cmd_estimate(args) -> int:
    net = parse_network(args.net)
    probe = probe_from_network(net, read_tensor(args.x))
    est, se = args.estimator(probe, args.samples, seed=args.seed)
    print(f"estimate {est!r} stderr {se!r}")
    return 0


def _cmd_bench(args) -> int:
    base = parse_network(args.net)
    if args.k_sweep:
        try:
            ks = [int(s) for s in args.k_sweep.split(",") if s.strip()]
        except ValueError:
            raise _UsageError(f"cpajvp bench: --k-sweep must be comma-separated "
                              f"ints, got {args.k_sweep!r}")
        if not ks or any(k < 1 for k in ks):
            raise _UsageError("cpajvp bench: --k-sweep needs positive ints")
        nets = [fixtures.with_dense_head(base, k, args.seed) for k in ks]
    else:
        nets = [base]
    x = read_tensor(args.x) if args.x else _seeded_input(base, args.seed, "bench-x")
    u = read_tensor(args.u) if args.u else _seeded_input(base, args.seed, "bench-u")
    reports = []
    for net in nets:
        reports.extend(bench_mod.run_benchmark(net, x, u,
                                               repetitions=args.reps,
                                               warmup=args.warmup))
        if not args.no_forward:
            reports.append(bench_mod.benchmark_forward(net, x,
                                                       repetitions=args.reps,
                                                       warmup=args.warmup))
    print("cpajvp bench: timed at " + ("1 BLAS thread" if bench_mod._openblas() else
                                       "the default BLAS thread count (no OpenBLAS found)"),
          file=sys.stderr)
    if args.csv:
        bench_mod.reports_to_csv(reports, args.csv)
    else:
        bench_mod.reports_to_csv(reports, sys.stdout)
    return 0


def _cmd_gen(args) -> int:
    net, x = fixtures.generate(args.arch, args.seed, args.scale)
    out = Path(args.out)
    path = save_network(net, out, weights=args.weights)
    write_tensor(out / "x.ten", x)
    print(f"{path} input {net.input_shape} output {net.plan.out_shape}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
