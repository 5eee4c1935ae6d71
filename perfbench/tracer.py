"""Spans around calls into the library's public functions.

``install`` rebinds every name under which a target function is
reachable in the package, so a call made from inside the library (for
example ``spectral.qr_householder``, imported by name) is traced as well
as a call through ``cpajvp.<name>``. Each span keeps its name, start,
end, parent span and an optional measured quantity; spans stay in
memory until the run ends. Self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("cpajvp", "cpajvp.network", "cpajvp.clone", "cpajvp.bench",
           "cpajvp.affine", "cpajvp.spectral", "cpajvp.numerics",
           "cpajvp.tenio", "cpajvp.fixtures", "cpajvp.cli")


def _dense_gflop(args, kwargs, out):
    """FLOPs of the dense products in one forward pass, computed from shapes."""
    from cpajvp.network import Dense, Recurrent
    flops = 0.0
    for node in args[0].nodes:
        lay = node.layer
        if isinstance(lay, Dense):
            flops += 2.0 * lay.weights.size
        elif isinstance(lay, Recurrent):
            flops += 2.0 * lay.steps * (lay.w_hidden.size + lay.w_input.size)
    return flops / 1e9


def _conv_gflop(args, kwargs, out):
    kh, kw, c, _ = np.shape(args[1])
    return 2.0 * out.size * kh * kw * c / 1e9


# (module, attribute, span name, quantity measured from (args, kwargs, result))
TARGETS = (
    ("cpajvp.network", "validate", "network.validate", None),
    ("cpajvp.network", "shape_infer", "network.shape_infer", None),
    ("cpajvp.network", "forward", "network.forward", _dense_gflop),
    ("cpajvp.network", "record_states", "network.record_states", None),
    ("cpajvp.clone", "jvp_input", "clone.jvp_input", None),
    ("cpajvp.clone", "vjp_input", "clone.vjp_input", None),
    ("cpajvp.clone", "frozen_vjp", "clone.frozen_vjp", None),
    ("cpajvp.clone", "jvp_weight", "clone.jvp_weight", None),
    ("cpajvp.bench", "strategy_clone", "bench.strategy_clone", None),
    ("cpajvp.affine", "materialize_affine_via_rop",
     "affine.materialize_affine_via_rop", lambda a, k, out: out.a.shape[1] + 1),
    ("cpajvp.affine", "materialize_affine_direct",
     "affine.materialize_affine_direct", None),
    ("cpajvp.spectral", "LinearProbe.rop", "spectral.rop", None),
    ("cpajvp.spectral", "LinearProbe.lop", "spectral.lop", None),
    ("cpajvp.spectral", "probe_from_network", "spectral.probe_from_network", None),
    ("cpajvp.spectral", "top_k_eigen", "spectral.top_k_eigen",
     lambda a, k, out: out.iterations),
    ("cpajvp.spectral", "top_k_svd", "spectral.top_k_svd",
     lambda a, k, out: out.iterations),
    ("cpajvp.spectral", "frobenius_norm_mc", "spectral.frobenius_norm_mc", None),
    ("cpajvp.spectral", "trace_mc", "spectral.trace_mc", None),
    ("cpajvp.numerics", "conv2d", "numerics.conv2d", _conv_gflop),
    ("cpajvp.numerics", "conv2d_input_adjoint", "numerics.conv2d_input_adjoint", None),
    ("cpajvp.numerics", "maxpool_argmax", "numerics.maxpool_argmax", None),
    ("cpajvp.numerics", "qr_householder", "numerics.qr_householder", None),
    ("cpajvp.tenio", "parse_network", "tenio.parse_network", None),
    ("cpajvp.tenio", "read_tensor", "tenio.read_tensor",
     lambda a, k, out: out.nbytes / 1e6),
)


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent,
    quantity]; parents precede children in ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, quantity=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if quantity is not None:
                    span[4] = quantity(args, kwargs, out)
                return out
            finally:
                self._close(span)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for mod_name, attr, name, quantity in TARGETS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, quantity))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, quantity)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self) -> dict[tuple[str, str], dict]:
        """Per (root span name, span name): calls, total and self seconds,
        summed quantity, and how many calls had a parent of each name."""
        child_time = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict[tuple[str, str], dict] = {}
        for i, (name, t0, t1, parent, qty) in enumerate(self.spans):
            if parent < 0:
                continue
            rec = out.setdefault((self.spans[root[i]][0], name), {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "quantity": 0.0,
                "parents": {}})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time[i]
            rec["quantity"] += qty or 0.0
            pname = self.spans[parent][0]
            rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
        return out
