"""Dense float64 kernels and small-matrix factorizations.

Everything here works on C-contiguous float64 numpy arrays. Summation
orders are fixed where results feed exactness checks, so repeated runs
give bitwise-identical output regardless of BLAS threading.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class NonFiniteInput(ValueError):
    """Raised when an input, direction, cotangent or weight holds NaN or inf."""


def as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def check_finite(a, what: str) -> None:
    # one BLAS dot is the fast test: NaN or inf anywhere makes it non-finite;
    # entries above ~1e154 overflow it, so only then are entries tested
    flat = a.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(flat).all():
        raise NonFiniteInput(f"{what} contains NaN or inf")


def _pair(v, name: str) -> tuple[int, int]:
    # accept a scalar or a length-2 sequence
    if np.isscalar(v):
        v = (int(v), int(v))
    v = tuple(int(s) for s in v)
    if len(v) != 2 or v[0] < 1 or v[1] < 1:
        raise ShapeMismatch(f"{name} must be a positive int or pair, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# matmul

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed summation order.

    Accumulates rank-1 terms in ascending k, so each output element sees
    exactly the same floating-point operation sequence as the naive
    i,j,k triple loop. No FMA, no blocking, hence reproducible to the
    last bit across machines and thread counts.
    """
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions disagree: {a.shape} vs {b.shape}")
    m, n = a.shape
    p = b.shape[1]
    out = np.zeros((m, p))
    for k in range(n):
        out += a[:, k, None] * b[None, k, :]
    return out


# ---------------------------------------------------------------------------
# convolution

def _conv_geometry(size: int, k: int, s: int, padding: str) -> tuple[int, int, int]:
    """Output length and (before, after) zero padding for one spatial axis."""
    if padding == "valid":
        if k > size:
            raise ShapeMismatch(f"window {k} exceeds input extent {size} (valid padding)")
        return (size - k) // s + 1, 0, 0
    if padding == "same":
        out = -(-size // s)  # ceil
        total = max((out - 1) * s + k - size, 0)
        return out, total // 2, total - total // 2
    raise ShapeMismatch(f"padding must be 'same' or 'valid', got {padding!r}")


def conv2d_output_shape(input_shape, filter_shape, stride, padding) -> tuple[int, ...]:
    n, h, w, c = input_shape
    kh, kw, cf, f = filter_shape
    if c != cf:
        raise ShapeMismatch(
            f"input channels {c} do not match filter channels {cf} "
            f"(input {tuple(input_shape)}, filters {tuple(filter_shape)})")
    sh, sw = _pair(stride, "stride")
    ho, _, _ = _conv_geometry(h, kh, sh, padding)
    wo, _, _ = _conv_geometry(w, kw, sw, padding)
    return (n, ho, wo, f)


def conv2d(x: np.ndarray, filters: np.ndarray, stride=(1, 1),
           padding: str = "valid") -> np.ndarray:
    """Cross-correlation of an NHWC tensor with [kh, kw, C, F] filters."""
    x = as_f64(x)
    filters = as_f64(filters)
    if x.ndim != 4:
        raise ShapeMismatch(f"conv2d input must be 4-d NHWC, got {x.shape}")
    if filters.ndim != 4:
        raise ShapeMismatch(f"filters must be 4-d [kh,kw,C,F], got {filters.shape}")
    n, ho, wo, f = conv2d_output_shape(x.shape, filters.shape, stride, padding)
    kh, kw = filters.shape[0], filters.shape[1]
    sh, sw = _pair(stride, "stride")
    _, pt, pb = _conv_geometry(x.shape[1], kh, sh, padding)
    _, pl, pr = _conv_geometry(x.shape[2], kw, sw, padding)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    s0, s1, s2, s3 = xp.strides
    win = as_strided(xp, (n, ho, wo, kh, kw, x.shape[3]),
                     (s0, s1 * sh, s2 * sw, s1, s2, s3))
    return np.tensordot(win, filters, axes=([3, 4, 5], [0, 1, 2]))


def conv2d_input_adjoint(g: np.ndarray, filters: np.ndarray, stride,
                         padding: str, input_shape) -> np.ndarray:
    """Adjoint of x -> conv2d(x, filters) applied to cotangent g.

    The input geometry cannot be recovered from g alone (stride and
    padding are lossy), so the caller passes it explicitly.
    """
    g = as_f64(g)
    filters = as_f64(filters)
    input_shape = tuple(int(d) for d in input_shape)
    expected = conv2d_output_shape(input_shape, filters.shape, stride, padding)
    if g.shape != expected:
        raise ShapeMismatch(
            f"cotangent shape {g.shape} does not match conv output {expected} "
            f"for input {input_shape}")
    n, h, w, c = input_shape
    kh, kw = filters.shape[0], filters.shape[1]
    sh, sw = _pair(stride, "stride")
    ho, pt, pb = _conv_geometry(h, kh, sh, padding)
    wo, pl, pr = _conv_geometry(w, kw, sw, padding)
    xp = np.zeros((n, h + pt + pb, w + pl + pr, c))
    for ki in range(kh):
        for kj in range(kw):
            # g: (N,Ho,Wo,F) x filters[ki,kj]: (C,F) -> (N,Ho,Wo,C)
            contrib = np.tensordot(g, filters[ki, kj], axes=([3], [1]))
            xp[:, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw, :] += contrib
    return xp[:, pt:pt + h, pl:pl + w, :]


# ---------------------------------------------------------------------------
# max pooling

def maxpool_output_shape(input_shape, ksize, stride, padding) -> tuple[int, ...]:
    n, h, w, c = input_shape
    kh, kw = _pair(ksize, "ksize")
    sh, sw = _pair(stride, "stride")
    ho, _, _ = _conv_geometry(h, kh, sh, padding)
    wo, _, _ = _conv_geometry(w, kw, sw, padding)
    return (n, ho, wo, c)


def maxpool_argmax(x: np.ndarray, ksize, stride=None,
                   padding: str = "valid") -> tuple[np.ndarray, np.ndarray]:
    """Windowed max over an NHWC tensor, returning values and flat argmax.

    Indices are row-major offsets into the unpadded input, batch
    dimension included, so ``x.flat[idx]`` reproduces the pooled values.
    Ties go to the smallest offset; padded positions hold -inf and can
    never win because every window overlaps the real input.
    """
    x = as_f64(x)
    if x.ndim != 4:
        raise ShapeMismatch(f"maxpool input must be 4-d NHWC, got {x.shape}")
    kh, kw = _pair(ksize, "ksize")
    if stride is None:
        stride = (kh, kw)
    sh, sw = _pair(stride, "stride")
    n, h, w, c = x.shape
    ho, pt, _pb = _conv_geometry(h, kh, sh, padding)
    wo, pl, _pr = _conv_geometry(w, kw, sw, padding)
    xp = np.pad(x, ((0, 0), (pt, _pb), (pl, _pr), (0, 0)),
                constant_values=-np.inf)
    s0, s1, s2, s3 = xp.strides
    win = as_strided(xp, (n, ho, wo, c, kh, kw),
                     (s0, s1 * sh, s2 * sw, s3, s1, s2))
    flat = win.reshape(n, ho, wo, c, kh * kw)
    # argmax returns the first maximum; window scan order (ki, kj) is
    # lexicographic, which is ascending flat offset, so ties resolve to
    # the smallest offset automatically.
    warg = np.argmax(flat, axis=4)
    values = np.take_along_axis(flat, warg[..., None], axis=4)[..., 0]
    ki, kj = warg // kw, warg % kw
    ii = np.arange(ho).reshape(1, ho, 1, 1) * sh - pt + ki
    jj = np.arange(wo).reshape(1, 1, wo, 1) * sw - pl + kj
    nn = np.arange(n).reshape(n, 1, 1, 1)
    cc = np.arange(c).reshape(1, 1, 1, c)
    indices = ((nn * h + ii) * w + jj) * c + cc
    return values, indices.astype(np.int64)


# ---------------------------------------------------------------------------
# QR

def qr_householder(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of an m x n matrix (m >= n) by Householder reflections.

    Returns (q, r) with q orthonormal columns (m x n) and r upper
    triangular (n x n) whose diagonal is >= 0. Rank-deficient columns
    leave zeros on the diagonal.
    """
    a = as_f64(m)
    if a.ndim != 2:
        raise ShapeMismatch(f"qr needs a 2-d matrix, got {a.shape}")
    rows, cols = a.shape
    if rows < cols:
        raise ShapeMismatch(f"qr needs rows >= cols, got {a.shape}")
    r = a.copy()
    vs: list[np.ndarray | None] = []
    for j in range(cols):
        x = r[j:, j]
        normx = np.sqrt(np.dot(x, x))
        if normx == 0.0:
            vs.append(None)
            continue
        alpha = -normx if x[0] >= 0 else normx
        v = x.copy()
        v[0] -= alpha
        v /= np.sqrt(np.dot(v, v))
        r[j:, j:] -= np.outer(2.0 * v, v @ r[j:, j:])
        vs.append(v)
    q = np.zeros((rows, cols))
    q[:cols, :cols] = np.eye(cols)
    for j in range(cols - 1, -1, -1):
        v = vs[j]
        if v is not None:
            q[j:, :] -= np.outer(2.0 * v, v @ q[j:, :])
    # sign convention: non-negative diagonal of r
    for j in range(cols):
        if r[j, j] < 0:
            r[j, j:] = -r[j, j:]
            q[:, j] = -q[:, j]
    r = np.triu(r[:cols, :])
    return q, r


# ---------------------------------------------------------------------------
# symmetric eigendecomposition (classical Jacobi)

def dense_eig_symmetric(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by classical Jacobi rotations.

    Each step annihilates the largest off-diagonal element. Returns
    (values, vectors) with values descending and m @ vectors ==
    vectors @ diag(values) to tight tolerance.
    """
    a = as_f64(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"eig needs a square matrix, got {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if a.size and np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ShapeMismatch("matrix is not symmetric within tolerance")
    n = a.shape[0]
    a = (a + a.T) / 2.0
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    off = np.abs(a - np.diag(a.diagonal()))
    stop = 1e-14 * max(1.0, np.linalg.norm(a, "fro"))
    for _ in range(40 * n * n):
        p, q = divmod(int(np.argmax(off)), n)
        if p > q:
            p, q = q, p
        # off[p, p] is always 0, so this also breaks when the whole
        # off-diagonal is exactly zero and argmax lands on the diagonal
        if off[p, q] <= stop:
            break
        apq = a[p, q]
        tau = (a[q, q] - a[p, p]) / (2.0 * apq)
        t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        rp, rq = a[:, p].copy(), a[:, q].copy()
        a[:, p] = c * rp - s * rq
        a[:, q] = s * rp + c * rq
        rp, rq = a[p, :].copy(), a[q, :].copy()
        a[p, :] = c * rp - s * rq
        a[q, :] = s * rp + c * rq
        a[p, q] = a[q, p] = 0.0
        vp, vq = v[:, p].copy(), v[:, q].copy()
        v[:, p] = c * vp - s * vq
        v[:, q] = s * vp + c * vq
        off[p, :] = np.abs(a[p, :]); off[:, p] = off[p, :]
        off[q, :] = np.abs(a[q, :]); off[:, q] = off[q, :]
        off[p, p] = off[q, q] = off[p, q] = off[q, p] = 0.0
    vals = a.diagonal().copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


# ---------------------------------------------------------------------------
# SVD (one-sided Jacobi)

def dense_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD by one-sided Jacobi column orthogonalization.

    Returns (u, s, v) with u: m x r, s: r descending non-negative,
    v: n x r, r = min(m, n), and u @ diag(s) @ v.T == m to tight
    tolerance.
    """
    a = as_f64(m)
    if a.ndim != 2:
        raise ShapeMismatch(f"svd needs a 2-d matrix, got {a.shape}")
    if a.shape[0] < a.shape[1]:
        u, s, v = dense_svd(a.T)
        return v, s, u
    rows, cols = a.shape
    u = a.copy()
    v = np.eye(cols)
    eps = 1e-15
    for _ in range(60):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                app = np.dot(u[:, p], u[:, p])
                aqq = np.dot(u[:, q], u[:, q])
                apq = np.dot(u[:, p], u[:, q])
                if abs(apq) <= eps * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta)) \
                    if zeta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up, uq = u[:, p].copy(), u[:, q].copy()
                u[:, p] = c * up - s * uq
                u[:, q] = s * up + c * uq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if not rotated:
            break
    sig = np.sqrt(np.sum(u * u, axis=0))
    null_cols = []
    for j in range(cols):
        if sig[j] > 1e-300:
            u[:, j] /= sig[j]
        else:
            null_cols.append(j)
    for j in null_cols:
        # fill with the basis vector farthest from the span of the other
        # columns so u keeps orthonormal columns; s[j] = 0 leaves the
        # reconstruction u @ diag(s) @ v.T unchanged
        others = [i for i in range(cols) if i != j and
                  (sig[i] > 1e-300 or i < j)]
        best, best_norm = None, -1.0
        for cand in range(rows):
            w = np.zeros(rows)
            w[cand] = 1.0
            for i in others:
                w -= np.dot(u[:, i], w) * u[:, i]
            wn = float(np.sqrt(np.dot(w, w)))
            if wn > best_norm:
                best, best_norm = w, wn
        u[:, j] = best / best_norm
    order = np.argsort(-sig, kind="stable")
    return u[:, order], sig[order], v[:, order]
