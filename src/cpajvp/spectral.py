"""Matrix-free spectral algorithms on top of the frozen-replay products.

Nothing here ever sees the region matrix A itself. A LinearProbe wraps
the two products u -> A u and v -> A^T v; block subspace iteration,
block SVD, and the Monte Carlo estimators consume probes and count
every product call, so the per-iteration call complexity is checkable.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import (BLOCK_WIDTH, Network, ShapeMismatch, _forward_pass,
                      _transposed_pass, record_states)
from .numerics import qr_householder


class AdjointMismatch(RuntimeError):
    """Raised when a probe's two products fail the adjoint identity."""


def _keyed_rng(*parts) -> np.random.Generator:
    digest = hashlib.blake2s("/".join(str(p) for p in parts).encode()).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


class LinearProbe:
    """Counted access to u -> A u (rop) and v -> A^T v (lop).

    Each product takes a vector or a (dim, k) block whose columns are k
    vectors, and counts as k calls, so call counts do not depend on how
    a caller groups its products. With blocks set, the wrapped callables
    receive a block as is and must return a (dim_out, k) block;
    otherwise they are called once per column. The two callables must be adjoint to
    each other; construction spot checks <A u, v> == <u, A^T v> on
    three seeded random pairs and raises AdjointMismatch when the gap
    exceeds 1e-11 of the Cauchy-Schwarz scale ||A u|| ||v|| +
    ||u|| ||A^T v||.
    """

    def __init__(self, dim_in: int, dim_out: int,
                 rop: Callable[[np.ndarray], np.ndarray],
                 lop: Callable[[np.ndarray], np.ndarray],
                 check_adjoint: bool = True, blocks: bool = False):
        if dim_in < 1 or dim_out < 1:
            raise ShapeMismatch(f"probe dims must be positive, got "
                                f"({dim_in}, {dim_out})")
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self._rop = rop
        self._lop = lop
        self.blocks = blocks
        self.rop_calls = 0
        self.lop_calls = 0
        if check_adjoint:
            rng = _keyed_rng("probe-adjoint-check", dim_in, dim_out)
            pairs = [(rng.standard_normal(self.dim_in), rng.standard_normal(self.dim_out))
                     for _ in range(3)]
            u, v = (np.stack(side, axis=1) for side in zip(*pairs))
            au, atv = self.rop(u), self.lop(v)
            left, right = np.sum(au * v, axis=0), np.sum(u * atv, axis=0)
            norm = np.linalg.norm
            scale = norm(au, axis=0) * norm(v, axis=0) + norm(u, axis=0) * norm(atv, axis=0)
            for lt, rt, sc in zip(left, right, scale):
                if abs(lt - rt) > 1e-11 * sc:
                    raise AdjointMismatch(f"<A u, v> = {lt!r} but <u, A^T v> = {rt!r}, "
                                          f"beyond 1e-11 of the scale {sc!r}")
            # the self-check is not user work
            self.rop_calls = 0
            self.lop_calls = 0

    def _product(self, fn, a, n_in: int, n_out: int, name: str) -> tuple[np.ndarray, int]:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim not in (1, 2) or a.shape[0] != n_in or a.ndim == 2 and a.shape[1] < 1:
            raise ShapeMismatch(f"{name} takes a length-{n_in} vector or an "
                                f"({n_in}, k) block with k >= 1, got {a.shape}")
        if a.ndim == 1 or self.blocks:
            out = np.asarray(fn(a), dtype=np.float64)
        else:
            out = np.stack([self._product(fn, c, n_in, n_out, name)[0] for c in a.T], axis=1)
        if a.ndim == 1 and out.size == n_out:
            out = out.reshape(n_out)
        if out.shape != (n_out,) + a.shape[1:]:
            raise ShapeMismatch(f"{name} returned shape {out.shape}, "
                                f"expected {(n_out,) + a.shape[1:]}")
        return out, a.shape[1] if a.ndim == 2 else 1

    def rop(self, u: np.ndarray) -> np.ndarray:
        out, k = self._product(self._rop, u, self.dim_in, self.dim_out, "rop")
        self.rop_calls += k
        return out

    def lop(self, v: np.ndarray) -> np.ndarray:
        out, k = self._product(self._lop, v, self.dim_out, self.dim_in, "lop")
        self.lop_calls += k
        return out


def _as_batch(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A vector or the columns of a block as an engine batch."""
    return a.T.reshape((-1,) + shape) if a.ndim == 2 else a.reshape((1,) + shape)


def _as_columns(batch: np.ndarray, like: np.ndarray) -> np.ndarray:
    flat = batch.reshape(len(batch), -1)
    return flat.T if like.ndim == 2 else flat[0]


def probe_from_network(net: Network, x: np.ndarray,
                       check_adjoint: bool = True) -> LinearProbe:
    """Probe for the region at x: one state recording shared by every
    subsequent product call, each a single engine pass per block."""
    _, state = record_states(net, x)
    in_shape = tuple(net.input_shape)
    out_shape = state.outputs[net.output].shape

    def rop(u: np.ndarray) -> np.ndarray:
        out, _ = _forward_pass(net, _as_batch(u, in_shape), 0, state)
        return _as_columns(out, u)

    def lop(v: np.ndarray) -> np.ndarray:
        return _as_columns(_transposed_pass(net, state, _as_batch(v, out_shape)), v)

    return LinearProbe(int(np.prod(in_shape)), int(np.prod(out_shape)), rop, lop,
                       check_adjoint=check_adjoint, blocks=True)


@dataclass
class SpectralResult:
    """Outcome of a block iteration: values descending, the subspace
    bases, and exact product-call counts for the run."""
    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    iterations: int
    converged: bool
    residual: float
    rop_calls: int
    lop_calls: int


def _orthonormal_init(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    q, _ = qr_householder(rng.standard_normal((dim, k)))
    return q


def top_k_eigen(probe: LinearProbe, k: int, tol: float = 1e-8,
                max_iter: int = 500, seed: int = 0) -> SpectralResult:
    """Top-k eigenpairs by block subspace iteration.

    Per iteration: QR of the current image block, then k fresh rop
    calls on the orthonormalized columns. Stops when the image block
    is reproduced by the subspace, ||C - V Sigma||_F <= tol. Exactly
    k * (iterations + 1) rop calls and no lop calls.
    """
    if probe.dim_in != probe.dim_out:
        raise ShapeMismatch(f"eigen needs a square map, got "
                            f"({probe.dim_out}, {probe.dim_in})")
    dim = probe.dim_in
    if not 1 <= k <= dim:
        raise ShapeMismatch(f"k must be in [1, {dim}], got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rop0, lop0 = probe.rop_calls, probe.lop_calls
    rng = _keyed_rng("eigen-init", seed)
    v = _orthonormal_init(rng, dim, k)
    c = probe.rop(v)
    iterations = 0
    converged = False
    residual = np.inf
    while iterations < max_iter:
        v, sigma = qr_householder(c)
        c = probe.rop(v)
        residual = float(np.linalg.norm(c - v @ sigma, "fro"))
        iterations += 1
        if residual <= tol:
            converged = True
            break
    return SpectralResult(values=np.diag(sigma).copy(), left_vectors=v,
                          right_vectors=v, iterations=iterations,
                          converged=converged, residual=residual,
                          rop_calls=probe.rop_calls - rop0,
                          lop_calls=probe.lop_calls - lop0)


def top_k_svd(probe: LinearProbe, k: int, tol: float = 1e-8,
              max_iter: int = 500, seed: int = 0) -> SpectralResult:
    """Top-k singular triplets by alternating block iteration.

    Per iteration: QR of the image block gives U, k lop calls pull it
    back, QR of that gives V and Sigma, then k rop calls refresh the
    image block. Stops on ||C - U Sigma||_F <= tol. Exactly
    k * iterations + k rop calls and k * iterations lop calls.
    """
    if not 1 <= k <= min(probe.dim_in, probe.dim_out):
        raise ShapeMismatch(f"k must be in [1, {min(probe.dim_in, probe.dim_out)}], "
                            f"got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rop0, lop0 = probe.rop_calls, probe.lop_calls
    rng = _keyed_rng("svd-init", seed)
    v = _orthonormal_init(rng, probe.dim_in, k)
    u = _orthonormal_init(rng, probe.dim_out, k)
    sigma = rng.standard_normal((k, k))
    c = probe.rop(v)
    iterations = 0
    residual = float(np.linalg.norm(c - u @ sigma, "fro"))
    converged = residual <= tol
    while not converged and iterations < max_iter:
        u, _ = qr_householder(c)
        v, sigma = qr_householder(probe.lop(u))
        c = probe.rop(v)
        residual = float(np.linalg.norm(c - u @ sigma, "fro"))
        iterations += 1
        converged = residual <= tol
    return SpectralResult(values=np.diag(sigma).copy(), left_vectors=u,
                          right_vectors=v, iterations=iterations,
                          converged=converged, residual=residual,
                          rop_calls=probe.rop_calls - rop0,
                          lop_calls=probe.lop_calls - lop0)


def frobenius_norm_mc(probe: LinearProbe, n_samples: int,
                      seed: int = 0) -> tuple[float, float]:
    """Monte Carlo Frobenius norm: E ||A u||^2 = ||A||_F^2 for standard
    Gaussian u. Returns (estimate, stderr), the stderr mapped through
    the square root by the delta method."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    rng = _keyed_rng("frobenius-mc", seed)
    samples = np.empty(n_samples)
    for start in range(0, n_samples, BLOCK_WIDTH):
        k = min(BLOCK_WIDTH, n_samples - start)
        out = probe.rop(rng.standard_normal((k, probe.dim_in)).T)
        samples[start:start + k] = np.einsum("ij,ij->j", out, out)
    mean = float(np.mean(samples))
    se_mean = float(np.sqrt(np.sum((samples - mean) ** 2)
                            / (n_samples * (n_samples - 1))))
    if mean <= 0.0:
        return 0.0, 0.0
    est = float(np.sqrt(mean))
    return est, se_mean / (2.0 * est)


def trace_mc(probe: LinearProbe, n_samples: int,
             seed: int = 0) -> tuple[float, float]:
    """Hutchinson trace estimate with Rademacher probes:
    E u^T A u = tr A for u uniform on {-1, +1}^d. Returns
    (estimate, stderr)."""
    if probe.dim_in != probe.dim_out:
        raise ShapeMismatch(f"trace needs a square map, got "
                            f"({probe.dim_out}, {probe.dim_in})")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    rng = _keyed_rng("trace-mc", seed)
    samples = np.empty(n_samples)
    for start in range(0, n_samples, BLOCK_WIDTH):
        k = min(BLOCK_WIDTH, n_samples - start)
        u = rng.integers(0, 2, (k, probe.dim_in)).astype(np.float64) * 2.0 - 1.0
        samples[start:start + k] = np.einsum("ij,ji->i", u, probe.rop(u.T))
    mean = float(np.mean(samples))
    se_mean = float(np.sqrt(np.sum((samples - mean) ** 2)
                            / (n_samples * (n_samples - 1))))
    return mean, se_mean
