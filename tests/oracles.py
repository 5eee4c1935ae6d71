"""Reference eigen and SVD solvers for the tests, independent of LAPACK.

Classical and one-sided Jacobi rotations written out in numpy, used as
oracles for the matrix-free spectral iterations. The library itself
needs neither.
"""
import numpy as np

from cpajvp.numerics import ShapeMismatch, as_f64


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
