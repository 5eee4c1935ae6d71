import hashlib
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpajvp.numerics import (NonFiniteInput, ShapeMismatch, check_finite, conv2d,
                             conv2d_input_adjoint, conv2d_output_shape, keyed_rng,
                             matmul, maxpool_argmax, maxpool_output_shape,
                             qr_householder)
from oracles import dense_eig_symmetric, dense_svd


# ---------------------------------------------------------------------------
# independent oracles

def matmul_oracle(a, b):
    # literal triple loop, ascending k
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv_geometry_oracle(size, k, s, padding):
    if padding == "valid":
        return (size - k) // s + 1, 0
    out = -(-size // s)
    total = max((out - 1) * s + k - size, 0)
    return out, total // 2


def conv2d_oracle(x, filters, stride, padding):
    # six nested index loops, bounds checks instead of padding
    n, h, w, c = x.shape
    kh, kw, _, f = filters.shape
    sh, sw = stride
    ho, pt = conv_geometry_oracle(h, kh, sh, padding)
    wo, pl = conv_geometry_oracle(w, kw, sw, padding)
    out = np.zeros((n, ho, wo, f))
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                for ff in range(f):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            ii = i * sh - pt + ki
                            jj = j * sw - pl + kj
                            if 0 <= ii < h and 0 <= jj < w:
                                for cc in range(c):
                                    acc += x[nn, ii, jj, cc] * filters[ki, kj, cc, ff]
                    out[nn, i, j, ff] = acc
    return out


def conv2d_adjoint_oracle(g, filters, stride, padding, input_shape):
    # six nested index loops scattering each cotangent entry back onto
    # the inputs its window read, bounds checks instead of padding
    n, h, w, c = input_shape
    kh, kw, _, f = filters.shape
    sh, sw = stride
    ho, pt = conv_geometry_oracle(h, kh, sh, padding)
    wo, pl = conv_geometry_oracle(w, kw, sw, padding)
    out = np.zeros(input_shape)
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        ii = i * sh - pt + ki
                        jj = j * sw - pl + kj
                        if not (0 <= ii < h and 0 <= jj < w):
                            continue
                        for cc in range(c):
                            out[nn, ii, jj, cc] += sum(
                                g[nn, i, j, ff] * filters[ki, kj, cc, ff]
                                for ff in range(f))
    return out


def maxpool_oracle(x, ksize, stride, padding):
    # explicit window enumeration; ties to the smallest flat offset
    n, h, w, c = x.shape
    kh, kw = ksize
    sh, sw = stride
    ho, pt = conv_geometry_oracle(h, kh, sh, padding)
    wo, pl = conv_geometry_oracle(w, kw, sw, padding)
    values = np.zeros((n, ho, wo, c))
    indices = np.zeros((n, ho, wo, c), dtype=np.int64)
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                for cc in range(c):
                    best_val, best_off = None, None
                    for ki in range(kh):
                        for kj in range(kw):
                            ii = i * sh - pt + ki
                            jj = j * sw - pl + kj
                            if not (0 <= ii < h and 0 <= jj < w):
                                continue
                            off = ((nn * h + ii) * w + jj) * c + cc
                            v = x[nn, ii, jj, cc]
                            if best_val is None or v > best_val or \
                                    (v == best_val and off < best_off):
                                best_val, best_off = v, off
                    values[nn, i, j, cc] = best_val
                    indices[nn, i, j, cc] = best_off
    return values, indices


# ---------------------------------------------------------------------------
# matmul

def test_matmul_matches_triple_loop_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = matmul(a, b)
        want = matmul_oracle(a, b)
        # identical accumulation order, so identical bits
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_matmul_shape_checks():
    with pytest.raises(ShapeMismatch):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeMismatch):
        matmul(np.zeros(3), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# convolution

def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for stride in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for padding in ["valid", "same"]:
            x = rng.standard_normal((2, 6, 5, 3))
            filters = rng.standard_normal((3, 2, 3, 4))
            got = conv2d(x, filters, stride, padding)
            want = conv2d_oracle(x, filters, stride, padding)
            assert got.shape == want.shape
            scale = np.max(np.abs(want)) + 1.0
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (stride, padding)


def test_conv2d_output_shape_same_is_ceil():
    # same padding: out = ceil(size / stride), independent of kernel
    assert conv2d_output_shape((1, 7, 5, 2), (3, 3, 2, 4), (2, 2), "same") == (1, 4, 3, 4)
    assert conv2d_output_shape((1, 7, 5, 2), (3, 3, 2, 4), (1, 1), "valid") == (1, 5, 3, 4)


def test_conv2d_rejects_bad_ranks():
    with pytest.raises(ShapeMismatch):
        conv2d(np.zeros((6, 5, 3)), np.zeros((3, 3, 3, 4)))
    with pytest.raises(ShapeMismatch):
        conv2d(np.zeros((1, 6, 5, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ShapeMismatch):
        # channel mismatch
        conv2d(np.zeros((1, 6, 5, 2)), np.zeros((3, 3, 3, 4)))


def test_conv2d_input_adjoint_inner_product_identity():
    # <conv(x), g> == <x, adjoint(g)> for every geometry
    rng = np.random.default_rng(2)
    for stride in [(1, 1), (2, 2), (2, 1)]:
        for padding in ["valid", "same"]:
            x = rng.standard_normal((2, 7, 6, 3))
            filters = rng.standard_normal((3, 3, 3, 5))
            y = conv2d(x, filters, stride, padding)
            g = rng.standard_normal(y.shape)
            back = conv2d_input_adjoint(g, filters, stride, padding, x.shape)
            assert back.shape == x.shape
            lhs = float(np.sum(y * g))
            rhs = float(np.sum(x * back))
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs) + abs(rhs))


def test_conv2d_input_adjoint_matches_scatter_oracle():
    rng = np.random.default_rng(6)
    for stride in [(1, 1), (2, 2), (2, 1), (3, 3)]:
        for padding in ["valid", "same"]:
            filters = rng.standard_normal((3, 2, 3, 4))
            shape = (2, 7, 6, 3)
            g = rng.standard_normal(conv2d_output_shape(shape, filters.shape,
                                                        stride, padding))
            got = conv2d_input_adjoint(g, filters, stride, padding, shape)
            want = conv2d_adjoint_oracle(g, filters, stride, padding, shape)
            assert got.shape == want.shape
            scale = np.max(np.abs(want)) + 1.0
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (stride, padding)


# (input shape, kernel, stride, padding): stride above the kernel, 1x1
# kernels, a kernel spanning the whole extent (one output), even kernels
# under same padding (asymmetric pads), batch 3, list and int strides
GEOMETRIES = [
    ((1, 7, 8, 2), (2, 2), (3, 3), "valid"),
    ((2, 7, 8, 2), (2, 1), (3, 4), "same"),
    ((1, 5, 4, 3), (1, 1), (1, 1), "valid"),
    ((2, 5, 4, 3), (1, 1), (2, 2), "same"),
    ((1, 5, 4, 2), (5, 4), (1, 1), "valid"),
    ((2, 5, 4, 2), (5, 4), (2, 3), "valid"),
    ((1, 6, 7, 2), (2, 2), (1, 1), "same"),
    ((1, 6, 7, 1), (4, 2), (1, 2), "same"),
    ((3, 5, 6, 2), (3, 3), (2, 1), "same"),
    ((3, 5, 6, 2), (3, 3), [2, 1], "valid"),
    ((1, 6, 5, 2), (3, 2), 2, "same"),
]


@pytest.mark.parametrize("shape,kernel,stride,padding", GEOMETRIES)
def test_window_kernels_on_edge_geometries(shape, kernel, stride, padding):
    rng = np.random.default_rng(7)
    pair = (stride, stride) if np.isscalar(stride) else tuple(stride)
    x = rng.standard_normal(shape)
    filters = rng.standard_normal(kernel + (shape[3], 3))
    y = conv2d(x, filters, stride, padding)
    want = conv2d_oracle(x, filters, pair, padding)
    assert y.shape == want.shape == conv2d_output_shape(shape, filters.shape,
                                                        stride, padding)
    assert np.max(np.abs(y - want)) <= 1e-13 * (np.max(np.abs(want)) + 1.0)
    g = rng.standard_normal(y.shape)
    back = conv2d_input_adjoint(g, filters, stride, padding, shape)
    want = conv2d_adjoint_oracle(g, filters, pair, padding, shape)
    assert np.max(np.abs(back - want)) <= 1e-13 * (np.max(np.abs(want)) + 1.0)
    xq = np.round(x * 2.0) / 2.0  # coarse values, so windows hold ties
    got_v, got_i = maxpool_argmax(xq, kernel, stride, padding)
    want_v, want_i = maxpool_oracle(xq, kernel, pair, padding)
    assert np.array_equal(got_v, want_v) and np.array_equal(got_i, want_i)
    assert maxpool_output_shape(shape, kernel, stride, padding) == got_v.shape


def test_window_kernels_keyed_beyond_geometry():
    # back-to-back calls share (h, w, kernel, stride) but not channels or
    # batch, so anything cached per geometry must not leak between them
    rng = np.random.default_rng(8)
    for n, c in [(1, 2), (1, 3), (3, 3), (2, 1), (1, 2)]:
        x = rng.standard_normal((n, 6, 5, c))
        filters = rng.standard_normal((3, 3, c, 2))
        y = conv2d(x, filters, (2, 1), "same")
        want = conv2d_oracle(x, filters, (2, 1), "same")
        assert np.max(np.abs(y - want)) <= 1e-13 * (np.max(np.abs(want)) + 1.0)
        g = rng.standard_normal(y.shape)
        back = conv2d_input_adjoint(g, filters, (2, 1), "same", x.shape)
        want = conv2d_adjoint_oracle(g, filters, (2, 1), "same", x.shape)
        assert np.max(np.abs(back - want)) <= 1e-13 * (np.max(np.abs(want)) + 1.0)
        got_v, got_i = maxpool_argmax(x, (3, 3), (2, 1), "same")
        want_v, want_i = maxpool_oracle(x, (3, 3), (2, 1), "same")
        assert np.array_equal(got_v, want_v) and np.array_equal(got_i, want_i)


def test_channel_mismatch_raises_after_a_cached_geometry():
    filters = np.zeros((3, 3, 2, 4))
    conv2d(np.zeros((1, 6, 6, 2)), filters, (1, 1), "same")
    conv2d_input_adjoint(np.zeros((1, 6, 6, 4)), filters, (1, 1), "same", (1, 6, 6, 2))
    with pytest.raises(ShapeMismatch):
        conv2d(np.zeros((1, 6, 6, 3)), filters, (1, 1), "same")
    with pytest.raises(ShapeMismatch):
        conv2d_input_adjoint(np.zeros((1, 6, 6, 4)), filters, (1, 1), "same",
                             (1, 6, 6, 3))
    with pytest.raises(ShapeMismatch):
        conv2d_output_shape((1, 6, 6, 3), filters.shape, (1, 1), "same")


def test_conv2d_input_adjoint_checks_cotangent_shape():
    filters = np.zeros((3, 3, 2, 4))
    with pytest.raises(ShapeMismatch):
        conv2d_input_adjoint(np.zeros((1, 9, 9, 4)), filters, (1, 1), "valid",
                             (1, 6, 6, 2))


# ---------------------------------------------------------------------------
# max pooling

def test_maxpool_matches_window_enumeration():
    rng = np.random.default_rng(3)
    for ksize, stride, padding in [((2, 2), (2, 2), "valid"),
                                   ((3, 3), (1, 1), "valid"),
                                   ((2, 2), (1, 1), "same"),
                                   ((3, 2), (2, 2), "same")]:
        x = rng.standard_normal((2, 5, 6, 3))
        got_v, got_i = maxpool_argmax(x, ksize, stride, padding)
        want_v, want_i = maxpool_oracle(x, ksize, stride, padding)
        assert np.array_equal(got_v, want_v), (ksize, stride, padding)
        assert np.array_equal(got_i, want_i), (ksize, stride, padding)


def test_maxpool_flat_indices_gather_back():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 4, 2))
    values, idx = maxpool_argmax(x, (2, 2))
    assert values.shape == (2, 2, 2, 2)
    assert np.array_equal(x.reshape(-1)[idx], values)


def test_maxpool_hand_case_4x4():
    # single channel, known maxima positions
    x = np.zeros((1, 4, 4, 1))
    x[0, 1, 0, 0] = 5.0   # window (0,0) -> offset (1*4+0)*1 = 4
    x[0, 0, 3, 0] = 2.0   # window (0,1) -> offset 3
    x[0, 3, 1, 0] = 1.0   # window (1,0) -> offset 13
    x[0, 2, 2, 0] = 7.0   # window (1,1) -> offset 10
    values, idx = maxpool_argmax(x, (2, 2))
    assert np.array_equal(values.reshape(-1), [5.0, 2.0, 1.0, 7.0])
    assert np.array_equal(idx.reshape(-1), [4, 3, 13, 10])


def test_maxpool_ties_take_smallest_offset():
    x = np.ones((1, 4, 4, 1))
    _, idx = maxpool_argmax(x, (2, 2))
    # all-equal windows: winner is the top-left corner of each window
    assert np.array_equal(idx.reshape(-1), [0, 2, 8, 10])


def test_maxpool_same_padding_never_selects_padding():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 5, 5, 2)) - 10.0  # all negative
    values, idx = maxpool_argmax(x, (3, 3), (2, 2), "same")
    assert np.all(np.isfinite(values))
    assert np.all(idx >= 0)
    assert np.all(idx < x.size)
    assert maxpool_output_shape(x.shape, (3, 3), (2, 2), "same") == values.shape


# ---------------------------------------------------------------------------
# QR

def test_qr_single_column_3_4():
    q, r = qr_householder(np.array([[3.0], [4.0]]))
    assert q.shape == (2, 1) and r.shape == (1, 1)
    assert abs(r[0, 0] - 5.0) <= 1e-14
    assert np.max(np.abs(q[:, 0] - [0.6, 0.8])) <= 1e-15


def test_qr_reconstruction_and_orthonormality():
    rng = np.random.default_rng(6)
    for _ in range(15):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        q, r = qr_householder(a)
        assert q.shape == (m, n) and r.shape == (n, n)
        scale = np.max(np.abs(a)) + 1.0
        assert np.max(np.abs(q @ r - a)) <= 1e-13 * scale
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
        assert np.all(np.diag(r) >= 0.0)
        assert np.array_equal(r, np.triu(r))


def test_qr_rank_deficient_zero_diagonal():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    q, r = qr_householder(a)
    assert abs(r[1, 1]) <= 1e-13
    assert np.max(np.abs(q @ r - a)) <= 1e-13
    assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-13


def test_qr_exact_zero_column():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 3))
    a[:, 1] = 0.0
    q, r = qr_householder(a)
    assert r[1, 1] == 0.0
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-13
    assert np.max(np.abs(q @ r - a)) <= 1e-13 * (1.0 + np.max(np.abs(a)))
    assert np.all(np.diag(r) >= 0.0)


def test_qr_rejects_wide_and_non_2d():
    with pytest.raises(ShapeMismatch):
        qr_householder(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        qr_householder(np.zeros(3))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition

def test_eig_hand_2x2():
    vals, vecs = dense_eig_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.max(np.abs(vals - [3.0, 1.0])) <= 1e-13
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # eigenvectors up to sign
    assert min(np.max(np.abs(vecs[:, 0] - s * np.array([inv_sqrt2, inv_sqrt2])))
               for s in (1.0, -1.0)) <= 1e-13


def test_eig_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(7)
    for n in [1, 2, 5, 9, 16]:
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2.0
        vals, vecs = dense_eig_symmetric(a)
        assert np.all(np.diff(vals) <= 1e-12)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(vals - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-11 * (1.0 + np.max(np.abs(vals)))
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12


def test_eig_rejects_asymmetric():
    with pytest.raises(ShapeMismatch):
        dense_eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        dense_eig_symmetric(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# SVD

def test_svd_hand_diagonal():
    u, s, v = dense_svd(np.array([[3.0, 0.0], [0.0, -4.0]]))
    assert np.max(np.abs(s - [4.0, 3.0])) <= 1e-13
    recon = u @ np.diag(s) @ v.T
    assert np.max(np.abs(recon - [[3.0, 0.0], [0.0, -4.0]])) <= 1e-13


def test_svd_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(8)
    for shape in [(1, 1), (4, 4), (7, 3), (3, 7), (10, 6)]:
        a = rng.standard_normal(shape)
        u, s, v = dense_svd(a)
        r = min(shape)
        assert u.shape == (shape[0], r) and v.shape == (shape[1], r)
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 1e-12)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s - ref)) <= 1e-10 * (1.0 + ref[0])
        assert np.max(np.abs(u @ np.diag(s) @ v.T - a)) <= 1e-12 * (1.0 + ref[0])
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(r))) <= 1e-12


def test_svd_rank_deficient_and_zero():
    rng = np.random.default_rng(9)
    a = np.outer(rng.standard_normal(5), rng.standard_normal(3))
    u, s, v = dense_svd(a)
    assert s[0] > 0 and np.all(s[1:] <= 1e-12 * s[0])
    assert np.max(np.abs(u @ np.diag(s) @ v.T - a)) <= 1e-13
    assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-11
    # exact zero column keeps orthonormal factors
    b = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    u, s, v = dense_svd(b)
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-12
    assert np.max(np.abs(u @ np.diag(s) @ v.T - b)) <= 1e-13


# ---------------------------------------------------------------------------
# keyed generators and the finite check

KEYS = [("frobenius-mc", 3), ("trace-mc", 0), ("dropout", 7, "drop1"),
        ("probe-adjoint-check", 6, 5), ("eigen-init", 0), ("svd-init", 2),
        (1, "mlp"), (0, "cnn", "sample-input"), (51, "sweep-head", 16)]


@pytest.mark.parametrize("parts", KEYS, ids=["/".join(map(str, k)) for k in KEYS])
def test_keyed_streams_equal_philox_keyed_by_the_digest(parts):
    digest = hashlib.blake2s("/".join(str(p) for p in parts).encode()).digest()
    want = np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))
    got = keyed_rng(*parts)
    assert got.standard_normal(37).tobytes() == want.standard_normal(37).tobytes()
    assert np.array_equal(got.integers(0, 2, (5, 7)), want.integers(0, 2, (5, 7)))
    assert got.random((3, 4)).tobytes() == want.random((3, 4)).tobytes()
    # the key words are the seed sequence: no OS entropy is drawn
    assert not isinstance(got.bit_generator.seed_seq, np.random.SeedSequence)


def test_keyed_seed_sequence_gives_only_the_key():
    rng = keyed_rng("frobenius-mc", 3)
    seq = rng.bit_generator.seed_seq
    assert seq.generate_state(2, np.uint64).dtype == np.uint64
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (3, np.uint64)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            seq.generate_state(n_words, dtype)
    # a keyed generator still pickles, and resumes its stream
    rng.random(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.random(4).tobytes() == rng.random(4).tobytes()


def test_importing_cpajvp_loads_no_numpy_random():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = "import sys, cpajvp, cpajvp.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_rejects_non_finite_entries_of_a_transposed_block(bad):
    # the (d, k) layout both MC estimators hand to rop
    block = np.random.default_rng(10).standard_normal((7, 5)).T
    assert block.flags.f_contiguous and not block.flags.c_contiguous
    block[3, 1] = bad
    with pytest.raises(NonFiniteInput, match="input"):
        check_finite(block, "input")


def test_finite_check_passes_a_transposed_block_whose_dot_overflows():
    block = np.full((4, 6), 1e200).T
    block[2, 3] = -3e200
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(block * block))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the fast test's overflow stays silent
        check_finite(block, "input")  # finite entries: the exact test passes them
        block[5, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            check_finite(block, "input")
