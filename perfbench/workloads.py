"""Networks, op kinds and independent references for the benchmark.

Each workload is a set of networks; every op kind runs on every
workload, so each end-to-end metric exists on each of them. An op is
one round: one call of a single kind on every network of the kind's
group, each at freshly drawn inputs. Results are checked against
references that never call the replay engine:

* ChainRef composes a Dense/Activation chain with plain numpy.
* GeneralRef uses ``materialize_affine_direct``, which builds (A, b)
  from index arithmetic and the fixed-order matmul, and gets weight
  directions from a finite difference of two such maps.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import cpajvp
from cpajvp import fixtures
from cpajvp.network import Activation, Conv2D, Dense, Network, Node

KINDS = ("forward", "jvp", "vjp", "clone", "jvp_weight", "affine_rop",
         "mc", "eigen", "svd")

# which network group each kind runs on
GROUP_OF = {"forward": "products", "jvp": "products", "vjp": "products",
            "clone": "products", "jvp_weight": "products",
            "affine_rop": "products", "eigen": "eigen", "svd": "svd"}

PRODUCT_TOL = 1e-9      # engine vs reference, relative to the reference's max
FD_TOL = 1e-6           # weight directions checked by finite difference
SPECTRAL_TOL = 1e-6     # eigen/singular values, relative
MC_SE_BOUND = 6.0       # |estimate - exact| in standard errors; 3 SE would
                        # flag one correct estimate in 370, and a run makes
                        # hundreds of them


# ---------------------------------------------------------------------------
# networks

def dense_relu_chain(seed: int, dims, leakiness: float = 0.0) -> Network:
    """Dense -> Activation stack, drawn exactly like the acceptance nets."""
    rng = np.random.default_rng(seed)
    nodes = []
    prev = "input"
    for i in range(1, len(dims)):
        w = rng.standard_normal((dims[i], dims[i - 1])) / np.sqrt(dims[i - 1])
        b = rng.standard_normal(dims[i]) * 0.1
        nodes.append(Node(f"fc{i}", Dense(w, b), (prev,)))
        nodes.append(Node(f"act{i}", Activation(leakiness), (f"fc{i}",)))
        prev = f"act{i}"
    return Network((dims[0],), nodes, prev)


def designed_net(seed: int, rows: int, cols: int, values) -> Network:
    """Dense -> ReLU whose region slope is a matrix with the given
    leading singular values (symmetric, so also eigenvalues, when
    rows == cols). The bias keeps every unit active for any input with
    norm below 3 sqrt(cols) + 3, so the slope is the same at every
    drawn x and iteration counts do not depend on the seed."""
    rng = np.random.default_rng(seed)
    r = min(rows, cols)
    vals = np.zeros(r)
    vals[:len(values)] = values[:r]
    qu, _ = np.linalg.qr(rng.standard_normal((rows, r)))
    if rows == cols:
        w = qu @ np.diag(vals) @ qu.T
        w = (w + w.T) / 2.0
    else:
        qv, _ = np.linalg.qr(rng.standard_normal((cols, r)))
        w = qu @ np.diag(vals) @ qv.T
    b = 1.0 + np.linalg.norm(w, axis=1) * (3.0 * np.sqrt(cols) + 3.0)
    return Network((cols,), [Node("fc", Dense(w, b), ("input",)),
                             Node("act", Activation(0.0), ("fc",))], "act")


def _eigen_spectrum(d):
    return 10.0 * 0.55 ** np.arange(d)


def _svd_spectrum(d):
    return 5.0 * 0.5 ** np.arange(d)


def _small_spectral_groups():
    eig = [(f"sym{d}", designed_net(100 + i, d, d, _eigen_spectrum(d)))
           for i, d in enumerate((16, 24, 32))]
    svd = [(f"rect{m}x{n}", designed_net(200 + i, m, n, _svd_spectrum(min(m, n))))
           for i, (m, n) in enumerate(((32, 20), (20, 32), (28, 14)))]
    return eig, svd


def build_chain512():
    body = dense_relu_chain(50, [512, 512, 512], 0.1)
    heads = [(f"k{k}", fixtures.with_dense_head(body, k, seed=51))
             for k in (1, 16, 256)]
    sym = [("sym512", designed_net(300, 512, 512, _eigen_spectrum(512)))]
    rect = [("rect256x512", designed_net(301, 256, 512, _svd_spectrum(256)))]
    return {"products": heads, "frob": heads, "trace": sym,
            "eigen": sym, "svd": rect}


def build_families():
    nets = [(arch, fixtures.generate(arch, 0, scale=2)[0])
            for arch in fixtures.ARCHITECTURES]
    eig, svd = _small_spectral_groups()
    return {"products": nets, "frob": nets, "trace": eig,
            "eigen": eig, "svd": svd}


def build_probe_reuse():
    frob = [(f"frob{s}", dense_relu_chain(s, [6, 8, 5], 0.1)) for s in range(10)]
    trace = [(f"square{s}", dense_relu_chain(s, [6, 6, 6], 0.1)) for s in range(10)]
    eig, svd = _small_spectral_groups()
    return {"products": frob + trace + eig, "frob": frob, "trace": trace,
            "eigen": eig, "svd": svd}


# mc_samples: samples per estimator call; probe-reuse keeps n = 1000 on
# d = 6 nets, the wide workloads use fewer so a round stays short.
# yardstick: (width, layers) of the plain-numpy chain that round times
# are divided by; BLAS-bound at width 512, interpreter-bound at 64.
WORKLOADS = {
    "chain512": {"build": build_chain512, "mc_samples": 200, "ref": "chain",
                 "yardstick": (512, 8)},
    "families": {"build": build_families, "mc_samples": 200, "ref": "general",
                 "yardstick": (64, 100)},
    "probe-reuse": {"build": build_probe_reuse, "mc_samples": 1000,
                    "ref": "general", "yardstick": (64, 100)},
}


def weight_node(net: Network) -> Node:
    """First Dense or Conv2D node: the target of weight directions."""
    return next(n for n in net.nodes if isinstance(n.layer, (Dense, Conv2D)))


def weight_array(node: Node) -> np.ndarray:
    return node.layer.weights if isinstance(node.layer, Dense) else node.layer.filters


_out_shapes: dict[int, tuple[Network, tuple]] = {}


def output_shape(net: Network):
    """Output shape, inferred once per network object (the entry keeps
    the object alive, so its id is not reused)."""
    entry = _out_shapes.get(id(net))
    if entry is None or entry[0] is not net:
        entry = _out_shapes[id(net)] = (net, cpajvp.shape_infer(net)[net.output])
    return entry[1]


# ---------------------------------------------------------------------------
# references

def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return np.inf
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


class ChainRef:
    """Plain-numpy masked composition of a Dense/Activation chain."""

    def __init__(self, net: Network, x: np.ndarray):
        self.layers = []
        prev = "input"
        for node in net.nodes:
            if tuple(node.inputs) != (prev,):
                raise ValueError(f"{node.id!r} does not continue the chain")
            self.layers.append(node)
            prev = node.id
        if net.output != prev:
            raise ValueError(f"output {net.output!r} is not the end of the chain")
        self.inputs = {}
        self.factors = {}
        h = np.asarray(x, dtype=np.float64)
        for node in self.layers:
            self.inputs[node.id] = h
            lay = node.layer
            if isinstance(lay, Dense):
                h = lay.weights @ h + lay.bias
            elif isinstance(lay, Activation):
                f = np.where(h >= 0, 1.0, lay.leakiness)
                self.factors[node.id] = f
                h = h * f
            else:
                raise ValueError(f"{node.id!r}: chain reference handles "
                                 f"Dense and Activation only")
        self.out = h

    def _linear(self, u, start=0):
        for node in self.layers[start:]:
            u = (node.layer.weights @ u if isinstance(node.layer, Dense)
                 else u * self.factors[node.id])
        return u

    def forward(self):
        return self.out

    def jvp(self, u):
        return self._linear(np.asarray(u, dtype=np.float64))

    def vjp(self, v):
        g = np.asarray(v, dtype=np.float64)
        for node in reversed(self.layers):
            g = (node.layer.weights.T @ g if isinstance(node.layer, Dense)
                 else g * self.factors[node.id])
        return g

    def jvp_weight(self, node_id, direction):
        idx = next(i for i, n in enumerate(self.layers) if n.id == node_id)
        return self._linear(direction @ self.inputs[node_id], idx + 1)

    def affine(self):
        """(A, b), composed from the output side so a narrow head stays cheap."""
        a = None
        for node in reversed(self.layers):
            if isinstance(node.layer, Dense):
                a = node.layer.weights if a is None else a @ node.layer.weights
            else:
                f = self.factors[node.id]
                a = np.diag(f) if a is None else a * f[None, :]
        b = np.zeros(a.shape[1])
        for node in self.layers:
            lay = node.layer
            if isinstance(lay, Dense):
                b = lay.weights @ b + lay.bias
            else:
                b = b * self.factors[node.id]
        return a, b


def _same_region(net_a, net_b, x) -> bool:
    _, sa = cpajvp.record_states(net_a, x)
    _, sb = cpajvp.record_states(net_b, x)
    for store in ("sign_masks", "argmax_indices", "keep_masks"):
        da, db = getattr(sa, store), getattr(sb, store)
        if da.keys() != db.keys() or any(not np.array_equal(da[k], db[k]) for k in da):
            return False
    return True


class GeneralRef:
    """(A, b) from materialize_affine_direct, for any graph."""

    def __init__(self, net: Network, x: np.ndarray):
        self.net = net
        self.x = np.asarray(x, dtype=np.float64)
        self.out_shape = output_shape(net)
        amap = cpajvp.materialize_affine_direct(net, x)
        self.a, self.b = amap.a, amap.b

    def forward(self):
        return (self.a @ self.x.reshape(-1) + self.b).reshape(self.out_shape)

    def jvp(self, u):
        return (self.a @ np.asarray(u).reshape(-1)).reshape(self.out_shape)

    def vjp(self, v):
        return (self.a.T @ np.asarray(v).reshape(-1)).reshape(self.x.shape)

    def jvp_weight(self, node_id, direction):
        """Finite difference of two direct maps; exact up to rounding
        while the perturbed weights keep x in the same region."""
        node = next(n for n in self.net.nodes if n.id == node_id)
        w = weight_array(node)
        base = self.forward().reshape(-1)
        scale = float(np.max(np.abs(w))) / max(float(np.max(np.abs(direction))), 1e-300)
        for t in (1e-6 * scale, 1e-8 * scale):
            field = "weights" if isinstance(node.layer, Dense) else "filters"
            lay = dataclasses.replace(node.layer, **{field: w + t * direction})
            moved = Network(self.net.input_shape,
                            [Node(n.id, lay, n.inputs) if n.id == node_id else n
                             for n in self.net.nodes], self.net.output)
            if _same_region(self.net, moved, self.x):
                amap = cpajvp.materialize_affine_direct(moved, self.x)
                out = amap.a @ self.x.reshape(-1) + amap.b
                return ((out - base) / t).reshape(self.out_shape)
        raise RuntimeError("weight perturbation left the region at every step")

    def affine(self):
        return self.a, self.b


REFS = {"chain": ChainRef, "general": GeneralRef}


_spectra: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def reference_spectra(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues (symmetric part) and singular values of a,
    from numpy LAPACK; cached by content since designed nets repeat
    their slope at every x."""
    key = hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()
    if key not in _spectra:
        eig = (np.sort(np.linalg.eigvalsh((a + a.T) / 2.0))[::-1]
               if a.shape[0] == a.shape[1] else np.empty(0))
        _spectra[key] = (eig, np.linalg.svd(a, compute_uv=False))
    return _spectra[key]


# ---------------------------------------------------------------------------
# op kinds: draw inputs, call the library (the timed part), check


def draw(rng: np.random.Generator, kind: str, net: Network) -> dict:
    """Fresh inputs for one network in one round of a kind."""
    inp = {"x": rng.standard_normal(net.input_shape)}
    if kind in ("jvp", "clone"):
        inp["u"] = rng.standard_normal(net.input_shape)
    elif kind == "vjp":
        inp["v"] = rng.standard_normal(output_shape(net))
    elif kind == "jvp_weight":
        node = weight_node(net)
        inp["node"] = node.id
        inp["direction"] = rng.standard_normal(weight_array(node).shape)
    return inp


def members(kind: str, groups: dict) -> list:
    """(name, net, estimator) triples a round of kind runs over."""
    if kind == "mc":
        return ([(n, net, "frob") for n, net in groups["frob"]]
                + [(n, net, "trace") for n, net in groups["trace"]])
    return [(n, net, None) for n, net in groups[GROUP_OF[kind]]]


def call(kind: str, net: Network, est, inp: dict, mc_samples: int, round_idx: int):
    """One library call; every name is looked up on the package at call
    time, so a traced run sees rebound functions."""
    x = inp["x"]
    if kind == "forward":
        return cpajvp.forward(net, x)
    if kind == "jvp":
        return cpajvp.jvp_input(net, x, inp["u"])
    if kind == "vjp":
        return cpajvp.vjp_input(net, x, inp["v"])
    if kind == "clone":
        return cpajvp.strategy_clone(net, x, inp["u"])
    if kind == "jvp_weight":
        return cpajvp.jvp_weight(net, x, inp["node"], inp["direction"])
    if kind == "affine_rop":
        return cpajvp.materialize_affine_via_rop(net, x)
    probe = cpajvp.probe_from_network(net, x)
    if kind == "mc":
        fn = cpajvp.frobenius_norm_mc if est == "frob" else cpajvp.trace_mc
        value = fn(probe, mc_samples, seed=round_idx)
    elif kind == "eigen":
        value = cpajvp.top_k_eigen(probe, 3, tol=1e-9, max_iter=200, seed=0)
    else:
        value = cpajvp.top_k_svd(probe, 3, tol=1e-9, max_iter=300, seed=0)
    return value, probe.rop_calls, probe.lop_calls


def _spectral_errors(kind, net, x, got, rop, lop, ref) -> list[str]:
    errs = []
    a, _ = ref.affine()
    eig, sing = reference_spectra(a)
    want = (eig if kind == "eigen" else sing)[:3]
    it = got.iterations
    law = ((3 * (it + 1), 0) if kind == "eigen" else (3 * it + 3, 3 * it))
    if not got.converged:
        errs.append(f"did not converge (residual {got.residual:.3e})")
    if np.any(np.abs(got.values - want) > SPECTRAL_TOL * np.abs(want)):
        errs.append(f"values {got.values} vs numpy {want}")
    if (got.rop_calls, got.lop_calls) != law or (rop, lop) != law:
        errs.append(f"calls rop={got.rop_calls} lop={got.lop_calls} "
                    f"(probe {rop}/{lop}) break the law {law} at {it} iterations")
    again, rop2, lop2 = call(kind, net, None, {"x": x}, 0, 0)
    if (again.iterations, again.rop_calls, again.lop_calls, rop2, lop2) != \
            (it, got.rop_calls, got.lop_calls, rop, lop) \
            or not np.array_equal(again.values, got.values):
        errs.append("iterations, counts or values differ on a repeat")
    return errs


def check(kind: str, net: Network, est, inp: dict, out, ref_cls,
          mc_samples: int) -> list[str]:
    """Mismatches between one call's output and the reference."""
    ref = ref_cls(net, inp["x"])
    if kind == "forward":
        pairs = [(out, ref.forward(), PRODUCT_TOL)]
    elif kind == "jvp":
        pairs = [(out, ref.jvp(inp["u"]), PRODUCT_TOL)]
    elif kind == "vjp":
        pairs = [(out, ref.vjp(inp["v"]), PRODUCT_TOL)]
    elif kind == "clone":
        ju, fx = out
        pairs = [(ju, ref.jvp(inp["u"]), PRODUCT_TOL),
                 (fx, ref.forward(), PRODUCT_TOL)]
    elif kind == "jvp_weight":
        tol = PRODUCT_TOL if isinstance(ref, ChainRef) else FD_TOL
        pairs = [(out, ref.jvp_weight(inp["node"], inp["direction"]), tol)]
    elif kind == "affine_rop":
        a, b = ref.affine()
        pairs = [(out.a, a, PRODUCT_TOL), (out.b, b, PRODUCT_TOL)]
    elif kind == "mc":
        (value, se), rop, lop = out
        a, _ = ref.affine()
        exact = float(np.linalg.norm(a, "fro") if est == "frob" else np.trace(a))
        errs = []
        if abs(value - exact) > MC_SE_BOUND * se + 1e-12 * abs(exact):
            errs.append(f"{est} estimate {value!r} is {abs(value - exact) / max(se, 1e-300):.1f} "
                        f"standard errors from exact {exact!r}")
        if (rop, lop) != (mc_samples, 0):
            errs.append(f"{est} made rop={rop} lop={lop}, expected {mc_samples}/0")
        return errs
    else:
        got, rop, lop = out
        return _spectral_errors(kind, net, inp["x"], got, rop, lop, ref)
    return [f"relative error {e:.3e} > {tol:g}"
            for got, want, tol in pairs for e in [rel_err(got, want)] if not e <= tol]

