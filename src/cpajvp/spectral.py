"""Matrix-free spectral algorithms on top of the frozen-replay products.

A LinearProbe wraps the two products u -> A u and v -> A^T v; block
Lanczos (eigen), block Golub-Kahan (SVD) and the Monte Carlo estimators
consume probes and count every product call, so the per-iteration call
complexity is checkable. The algorithms never see A itself; a network
probe builds it only to answer rop blocks wider than the map's narrow
side.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine import narrow_side_slope
from .network import (_F64, BLOCK_WIDTH, Network, ShapeMismatch, _forward_pass,
                      _single, _transposed_pass)
from .numerics import check_finite, keyed_rng, qr_householder, read_only


class AdjointMismatch(RuntimeError):
    """Raised when a probe's two products fail the adjoint identity."""


@functools.lru_cache(maxsize=64)
def _adjoint_check_pairs(dim_in: int, dim_out: int):
    """The three keyed pairs of the adjoint self-check at these dims, as
    columns of u (dim_in, 3) and v (dim_out, 3), with their column
    norms; drawn once per dims and shared read-only."""
    rng = keyed_rng("probe-adjoint-check", dim_in, dim_out)
    pairs = [(rng.standard_normal(dim_in), rng.standard_normal(dim_out))
             for _ in range(3)]
    u, v = (np.stack(side, axis=1) for side in zip(*pairs))
    return read_only(u, v, np.linalg.norm(u, axis=0), np.linalg.norm(v, axis=0))


def _check_adjoint(pairs, au: np.ndarray, atv: np.ndarray) -> None:
    """Raise AdjointMismatch unless <A u, v> == <u, A^T v> on each check
    pair to 1e-11 of the Cauchy-Schwarz scale ||A u|| ||v|| +
    ||u|| ||A^T v||, and that scale is finite; au and atv are the
    products of the pairs' columns."""
    u, v, u_norm, v_norm = pairs
    # column norms as np.linalg.norm takes them, without its dispatch
    au_norm, atv_norm = np.sqrt((au * au).sum(axis=0)), np.sqrt((atv * atv).sum(axis=0))
    scale = au_norm * v_norm + u_norm * atv_norm
    if not np.isfinite(scale).all():  # a NaN or inf gap compares false
        raise AdjointMismatch(f"the check's scale is not finite: {scale!r}")
    left, right = (au * v).sum(axis=0), (u * atv).sum(axis=0)
    bad = np.abs(left - right) > 1e-11 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise AdjointMismatch(f"<A u, v> = {left[i]!r} but <u, A^T v> = "
                              f"{right[i]!r}, beyond 1e-11 of the scale "
                              f"{scale[i]!r}")


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
    ||u|| ||A^T v||, or that scale is NaN or inf. The pairs depend only
    on (dim_in, dim_out) and are drawn once per dims, then cached
    read-only.
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
            pairs = _adjoint_check_pairs(self.dim_in, self.dim_out)
            _check_adjoint(pairs, self.rop(pairs[0]), self.lop(pairs[1]))
            # the self-check is not user work
            self.rop_calls = 0
            self.lop_calls = 0

    def _product(self, fn, a, n_in: int, n_out: int, name: str) -> tuple[np.ndarray, int]:
        if getattr(a, "dtype", None) is not _F64 and np.iscomplexobj(a):
            raise ValueError(f"{name} input is complex; only real arrays are accepted")
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
    subsequent product call.

    Construction is one recording pass and, with the self-check, one
    transposed pass. The three check columns u ride behind x in the
    recording pass, linear (the additive terms reach x alone), and come
    out as A u; the transposed pass over the check's v gives A^T v. So
    the check still compares the forward engine with the transposed
    engine, on the pairs and bound of ``LinearProbe``. The region is the
    one slice 0 of the recording batch decides, as for ``jvp_weight``
    and ``materialize_affine_via_rop``: where a pre-activation at x is
    within rounding of 0 it can be the neighbouring region of the one
    ``record_states`` takes. Without the check x is recorded alone.

    The product path follows from shapes alone. Every lop, every vector
    and every rop block of at most min(d_in, d_out) columns takes one
    engine pass. A wider rop block is answered as A U from the region's
    map A when d_in * d_out is at most the weight multiplies of one
    engine slice (``plan.slice_mults``). A is built on the first such
    block from the recorded state, by ``affine.narrow_side_slope``
    (min(d_in, d_out) slices of one pass, which in reverse mode starts
    past a Dense output node on its weights), and kept on the probe. It
    holds fewer entries than the block and its answer together. Counted
    in weight multiplies, the first wide block of a probe costs less
    than twice an engine pass over it (the build, then A U) and every
    later one no more than that pass; the count leaves out elementwise
    work, so where it puts the crossover in time is not measured.
    Columns of either path equal single calls to rounding, so estimates
    from wide blocks differ from engine ones in the last bits,
    reproducibly per seed.
    """
    plan = net.plan
    in_shape, out_shape = net.input_shape, plan.out_shape
    batch = _single(net, x)
    if check_adjoint:
        pairs = _adjoint_check_pairs(plan.d_in, plan.d_out)
        batch = np.concatenate([batch, _as_batch(pairs[0], in_shape)])
    out, state = _forward_pass(net, batch, 1)
    if check_adjoint:
        atv = _transposed_pass(net, state, _as_batch(pairs[1], out_shape))
        _check_adjoint(pairs, _as_columns(out[1:], pairs[0]), _as_columns(atv, pairs[1]))
    kept = []  # the region's map A, once built
    wide = math.inf  # rop blocks wider than this read A
    if plan.d_in * plan.d_out <= plan.slice_mults:
        wide = min(plan.d_in, plan.d_out)

    def rop(u: np.ndarray) -> np.ndarray:
        check_finite(u, "input")
        if u.ndim == 2 and u.shape[1] > wide:
            if not kept:
                kept.append(read_only(narrow_side_slope(net, state))[0])
            return kept[0] @ u
        out, _ = _forward_pass(net, _as_batch(u, in_shape), 0, state)
        return _as_columns(out, u)

    def lop(v: np.ndarray) -> np.ndarray:
        check_finite(v, "cotangent")
        return _as_columns(_transposed_pass(net, state, _as_batch(v, out_shape)), v)

    return LinearProbe(plan.d_in, plan.d_out, rop, lop, check_adjoint=False, blocks=True)


@dataclass
class SpectralResult:
    """Outcome of a block Krylov run: values descending, the Ritz
    vectors, exact product-call counts, and the residual of every
    Rayleigh-Ritz check in order (the last one is ``residual``)."""
    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    iterations: int
    converged: bool
    residual: float
    rop_calls: int
    lop_calls: int
    residuals: tuple[float, ...]


@functools.lru_cache(maxsize=64, typed=True)
def _start_block(name: str, seed, dim: int, k: int) -> np.ndarray:
    """The seeded orthonormal (dim, k) block a Krylov run starts from;
    drawn once per key and shared read-only."""
    q, _ = qr_householder(keyed_rng(name, seed).standard_normal((dim, k)))
    return read_only(q)[0]


# A Krylov basis holds at most this many k-column blocks; past that a
# thick restart keeps only the k Ritz vectors.
_MAX_BLOCKS = 10
# A direction is new when its part outside the basis exceeds this share
# of the norm of the columns it came from; rounding leaves ~1e-15.
_NEW_DIRECTION_TOL = 1e-12


def _frobenius(a: np.ndarray) -> float:
    """||a||_F the way np.linalg.norm takes it, bit for bit, without its
    dispatch."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _new_directions(basis: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of span(columns) outside
    span(basis), which has orthonormal columns: two Gram-Schmidt passes,
    then the SVD keeps only the directions that are really new."""
    scale = _frobenius(columns)
    for _ in range(2):
        columns = columns - basis @ (basis.T @ columns)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, s > _NEW_DIRECTION_TOL * scale]


class _KrylovBasis:
    """Orthonormal columns and their images under one product, grown a
    block at a time. The newest block's images seed the next block."""

    def __init__(self, dim: int, image_dim: int, k: int):
        self.k = k
        self.vectors = np.empty((dim, _MAX_BLOCKS * k))
        self.images = np.empty((image_dim, _MAX_BLOCKS * k))
        self.size = 0
        self.newest = slice(0, 0)

    @property
    def q(self) -> np.ndarray:
        return self.vectors[:, :self.size]

    @property
    def aq(self) -> np.ndarray:
        return self.images[:, :self.size]

    @property
    def seeds(self) -> np.ndarray:
        return self.images[:, self.newest]

    def full(self) -> bool:
        return self.size + self.k > self.vectors.shape[1]

    def append(self, new: np.ndarray, product) -> None:
        """Add new orthonormal directions and their images from one
        k-column product; zero columns pad the block to k, so every call
        counts k whatever the number of new directions."""
        r = new.shape[1]
        block = np.zeros((self.vectors.shape[0], self.k))
        block[:, :r] = new
        self.newest = slice(self.size, self.size + r)
        self.vectors[:, self.newest] = new
        self.images[:, self.newest] = product(block)[:, :r]
        self.size += r

    def restart(self, ritz: np.ndarray) -> None:
        """Shrink to the Ritz vectors Q ritz, ritz holding orthonormal
        coefficient columns, and seed the next block from their images:
        outside the basis these are the Ritz residuals, the directions
        the next block would add. No product is needed."""
        vectors, images = self.q @ ritz, self.aq @ ritz
        self.size = ritz.shape[1]
        self.vectors[:, :self.size] = vectors
        self.images[:, :self.size] = images
        self.newest = slice(0, self.size)


def _check_iteration_args(k: int, k_max: int, max_iter: int) -> None:
    if not 1 <= k <= k_max:
        raise ShapeMismatch(f"k must be in [1, {k_max}], got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def top_k_eigen(probe: LinearProbe, k: int, tol: float = 1e-8,
                max_iter: int = 500, seed: int = 0) -> SpectralResult:
    """Top-k eigenpairs of a symmetric map by block Lanczos.

    Starts from one seeded orthonormal k-column block. Each iteration
    orthonormalizes the newest images against the whole basis and rops
    the new directions as one k-column block. Rayleigh-Ritz over the
    basis, with the projected matrix symmetrized, gives the k largest
    Ritz values (algebraic, descending; negative ones included) and
    the residual ||A Y - Y Theta||_F from the stored images, so a check
    costs no product. The run stops when the residual is <= tol, after
    max_iter iterations, or when no new direction is left: Rayleigh-
    Ritz on an invariant or full basis is exact for a symmetric map.
    For a map that is not symmetric the residual stays large and
    converged says so. Past a fixed basis size a thick restart keeps
    only the k Ritz vectors, and the next block comes from their
    residuals. The call law is unchanged: exactly k * (iterations + 1)
    rop calls and no lop calls.
    """
    if probe.dim_in != probe.dim_out:
        raise ShapeMismatch(f"eigen needs a square map, got "
                            f"({probe.dim_out}, {probe.dim_in})")
    _check_iteration_args(k, probe.dim_in, max_iter)
    rop0, lop0 = probe.rop_calls, probe.lop_calls
    basis = _KrylovBasis(probe.dim_in, probe.dim_in, k)
    basis.append(_start_block("eigen-init", seed, probe.dim_in, k), probe.rop)
    iterations = 0
    residuals = []
    while True:
        t = basis.q.T @ basis.aq
        theta, s = np.linalg.eigh((t + t.T) / 2.0)
        theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
        y, ay = basis.q @ s, basis.aq @ s
        residuals.append(_frobenius(ay - y * theta))
        if residuals[-1] <= tol or iterations == max_iter:
            break
        if basis.full():
            basis.restart(s)
        new = _new_directions(basis.q, basis.seeds)
        if new.shape[1] == 0:
            break
        basis.append(new, probe.rop)
        iterations += 1
    return SpectralResult(values=theta.copy(), left_vectors=y, right_vectors=y,
                          iterations=iterations, converged=residuals[-1] <= tol,
                          residual=residuals[-1], rop_calls=probe.rop_calls - rop0,
                          lop_calls=probe.lop_calls - lop0,
                          residuals=tuple(residuals))


def top_k_svd(probe: LinearProbe, k: int, tol: float = 1e-8,
              max_iter: int = 500, seed: int = 0) -> SpectralResult:
    """Top-k singular triplets by block Golub-Kahan bidiagonalization.

    Starts from one seeded orthonormal k-column right block V and its
    images A V. Each iteration turns the newest right images into new
    left directions and lops them as one k-column block, then turns
    those images into new right directions and rops them as one
    k-column block. The triplets come from the SVD of
    U^T A V = (A^T U)^T V. The residual is taken from both sides,
    sqrt(||A X - Y S||_F^2 + ||A^T Y - X S||_F^2), from stored images:
    one side alone is zero by construction whenever one basis spans the
    other's images, whether or not the values are right. The stopping
    rules and the thick restart are those of top_k_eigen. When
    the map has rank r < k, the trailing triplets have value 0 and a
    zero left vector, since no left direction is left to find. The call
    law is unchanged: exactly k * iterations + k rop calls and
    k * iterations lop calls.
    """
    _check_iteration_args(k, min(probe.dim_in, probe.dim_out), max_iter)
    rop0, lop0 = probe.rop_calls, probe.lop_calls
    left = _KrylovBasis(probe.dim_out, probe.dim_in, k)
    right = _KrylovBasis(probe.dim_in, probe.dim_out, k)
    right.append(_start_block("svd-init", seed, probe.dim_in, k), probe.rop)
    iterations = 0
    residuals = []
    while True:
        p, sigma, rt = np.linalg.svd(left.aq.T @ right.q, full_matrices=left.size < k)
        if len(sigma) < k:  # rank below k: zero values, zero left vectors
            p = np.hstack([p, np.zeros((left.size, k - len(sigma)))])
            sigma = np.concatenate([sigma, np.zeros(k - len(sigma))])
        p, sigma, r = p[:, :k], sigma[:k], rt[:k].T
        y, aty = left.q @ p, left.aq @ p
        x, ax = right.q @ r, right.aq @ r
        residuals.append(float(np.hypot(_frobenius(ax - y * sigma),
                                        _frobenius(aty - x * sigma))))
        if residuals[-1] <= tol or iterations == max_iter:
            break
        if right.full():  # each left block adds at most what a right one did
            left.restart(p)
            right.restart(r)
        new = _new_directions(left.q, right.seeds)
        if new.shape[1] == 0:
            break
        left.append(new, probe.lop)
        right.append(_new_directions(right.q, left.seeds), probe.rop)
        iterations += 1
    return SpectralResult(values=sigma, left_vectors=y, right_vectors=x,
                          iterations=iterations, converged=residuals[-1] <= tol,
                          residual=residuals[-1], rop_calls=probe.rop_calls - rop0,
                          lop_calls=probe.lop_calls - lop0,
                          residuals=tuple(residuals))


def _mc_estimate(probe: LinearProbe, n_samples: int, draw, form) -> tuple[float, float]:
    """Mean and stderr, by np.mean's formulas, of n_samples samples form(u, A u)
    from blocks u = draw(k) of k <= BLOCK_WIDTH directions as rows."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    samples = np.empty(n_samples)
    for start in range(0, n_samples, BLOCK_WIDTH):
        k = min(BLOCK_WIDTH, n_samples - start)
        u = draw(k)
        samples[start:start + k] = form(u, probe.rop(u.T))
    mean = float(samples.sum() / n_samples)
    se_mean = float(np.sqrt(np.sum((samples - mean) ** 2)
                            / (n_samples * (n_samples - 1))))
    return mean, se_mean


def frobenius_norm_mc(probe: LinearProbe, n_samples: int,
                      seed: int = 0) -> tuple[float, float]:
    """Monte Carlo Frobenius norm: E ||A u||^2 = ||A||_F^2 for standard
    Gaussian u. Returns (estimate, stderr), the stderr mapped through
    the square root by the delta method."""
    rng = keyed_rng("frobenius-mc", seed)
    mean, se_mean = _mc_estimate(probe, n_samples,
                                 lambda k: rng.standard_normal((k, probe.dim_in)),
                                 lambda u, au: np.einsum("ij,ij->j", au, au))
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
    rng = keyed_rng("trace-mc", seed)
    return _mc_estimate(probe, n_samples,
                        lambda k: 2.0 * rng.integers(0, 2, (k, probe.dim_in)) - 1.0,
                        lambda u, au: np.einsum("ij,ji->i", u, au))
