"""Dense float64 kernels: matmul, convolution, max pooling and QR.

Everything here works on C-contiguous float64 numpy arrays. ``matmul``
fixes its summation order, so its output is bitwise identical whatever
the BLAS library or its threading. The convolution kernels go through
BLAS products and the QR through LAPACK instead, which sum in the
library's own order: the bits can differ between BLAS builds, kernels
or thread counts.
"""
from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

_vdot = getattr(np.vdot, "_implementation", np.vdot)  # np.vdot without the dispatch


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class NonFiniteInput(ValueError):
    """Raised when an input, direction, cotangent or weight holds NaN or inf."""


class _KeyWords:
    """Philox's two uint64 key words as a seed sequence that hands them
    over as given, the only state Philox asks for; any other request
    raises. It reads no OS entropy."""
    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} "
                             f"{np.dtype(dtype)} words")
        return self.words


@functools.cache
def _key_words_type() -> type:
    """_KeyWords, registered as numpy's ISeedSequence on first use, so
    that importing the package loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_KeyWords)
    return _KeyWords


def keyed_rng(*parts) -> np.random.Generator:
    """Counter-based generator keyed by the "/"-joined parts, so a draw
    does not depend on the order of draws anywhere else.

    The Philox key is the first 16 bytes of the parts' blake2s digest,
    read as two little-endian uint64 words, with the counter at 0: the
    stream of ``Philox(key=int.from_bytes(digest[:16], "little"))``. The
    words go to Philox as its seed sequence, so no OS entropy is read.
    """
    digest = hashlib.blake2s("/".join(str(p) for p in parts).encode()).digest()
    words = np.frombuffer(digest, dtype="<u8", count=2)
    return np.random.Generator(np.random.Philox(_key_words_type()(words)))


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, for caches that share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def check_finite(a, what: str) -> None:
    # one BLAS dot is the fast test: NaN or inf anywhere makes it non-finite;
    # entries above ~1e154 overflow it (vdot, unlike dot, does not warn of
    # that), so only then are entries tested.
    # Memory order keeps the ravel of a transposed block a view.
    flat = a.ravel(order="K")
    if not math.isfinite(_vdot(flat, flat)) and not np.isfinite(flat).all():
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
# convolution and pooling windows
#
# A kernel call does only the work that depends on the data: the window
# geometry and the pooling index base come from bounded caches keyed by
# shapes, the input is padded only when the padding is non-zero, the
# windows are one strided view of the (padded) input, and each conv is
# one BLAS product over the im2col matrix of that view.

_GEOMETRY_CACHE_SIZE = 256


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


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _cached_geometry(h, w, kh, kw, stride, padding):
    sh, sw = (kh, kw) if stride is None else _pair(stride, "stride")
    ho, pt, pb = _conv_geometry(h, kh, sh, padding)
    wo, pl, pr = _conv_geometry(w, kw, sw, padding)
    return ho, wo, sh, sw, (pt, pb, pl, pr)


def _geometry(h: int, w: int, kh: int, kw: int, stride, padding: str):
    """(ho, wo, sh, sw, (top, bottom, left, right) pads) of a window
    scan; stride None means the window size."""
    if not (stride is None or isinstance(stride, tuple) or np.isscalar(stride)):
        stride = tuple(stride)  # a list or an array is not hashable
    return _cached_geometry(h, w, kh, kw, stride, padding)


def _windows(x: np.ndarray, pads, fill: float, ho: int, wo: int, kh: int,
             kw: int, sh: int, sw: int) -> np.ndarray:
    """(n, ho, wo, kh, kw, c) view of the windows of an NHWC tensor,
    padded with ``fill`` only when some pad is non-zero."""
    n, h, w, c = x.shape
    pt, pb, pl, pr = pads
    if pt or pb or pl or pr:
        xp = np.full((n, h + pt + pb, w + pl + pr, c), fill)
        xp[:, pt:pt + h, pl:pl + w] = x
        x = xp
    s0, s1, s2, s3 = x.strides
    return np.ndarray((n, ho, wo, kh, kw, c), x.dtype, x,
                      strides=(s0, s1 * sh, s2 * sw, s1, s2, s3))


def _conv_plan(input_shape, filter_shape, stride, padding):
    n, h, w, c = input_shape
    kh, kw, cf, f = filter_shape
    if c != cf:
        raise ShapeMismatch(
            f"input channels {c} do not match filter channels {cf} "
            f"(input {tuple(input_shape)}, filters {tuple(filter_shape)})")
    return _geometry(h, w, kh, kw, stride, padding)


def conv2d_output_shape(input_shape, filter_shape, stride, padding) -> tuple[int, ...]:
    ho, wo = _conv_plan(input_shape, filter_shape, stride, padding)[:2]
    return (input_shape[0], ho, wo, filter_shape[3])


def conv2d(x: np.ndarray, filters: np.ndarray, stride=(1, 1),
           padding: str = "valid") -> np.ndarray:
    """Cross-correlation of an NHWC tensor with [kh, kw, C, F] filters.

    One BLAS product of the (n·ho·wo, kh·kw·C) window matrix with the
    (kh·kw·C, F) filter matrix, so the summation order within each
    output is whatever that product uses.
    """
    x = as_f64(x)
    filters = as_f64(filters)
    if x.ndim != 4:
        raise ShapeMismatch(f"conv2d input must be 4-d NHWC, got {x.shape}")
    if filters.ndim != 4:
        raise ShapeMismatch(f"filters must be 4-d [kh,kw,C,F], got {filters.shape}")
    ho, wo, sh, sw, pads = _conv_plan(x.shape, filters.shape, stride, padding)
    kh, kw, c, f = filters.shape
    n = x.shape[0]
    win = _windows(x, pads, 0.0, ho, wo, kh, kw, sh, sw)
    out = win.reshape(n * ho * wo, kh * kw * c).dot(filters.reshape(kh * kw * c, f))
    return out.reshape(n, ho, wo, f)


def conv2d_input_adjoint(g: np.ndarray, filters: np.ndarray, stride,
                         padding: str, input_shape) -> np.ndarray:
    """Adjoint of x -> conv2d(x, filters) applied to cotangent g.

    The input geometry cannot be recovered from g alone (stride and
    padding are lossy), so the caller passes it explicitly. The adjoint
    is one stride-1 correlation: g is spread onto every stride-th
    position of a zero buffer of shape (n, h+kh-1, w+kw-1, F) at offset
    (kh-1-top pad, kw-1-left pad), and its windows meet the spatially
    flipped filters with C and F swapped in one BLAS product, as in
    ``conv2d``.
    """
    g = as_f64(g)
    filters = as_f64(filters)
    input_shape = tuple(int(d) for d in input_shape)
    ho, wo, sh, sw, pads = _conv_plan(input_shape, filters.shape, stride, padding)
    n, h, w, c = input_shape
    kh, kw, _, f = filters.shape
    if g.shape != (n, ho, wo, f):
        raise ShapeMismatch(
            f"cotangent shape {g.shape} does not match conv output {(n, ho, wo, f)} "
            f"for input {input_shape}")
    top, left = kh - 1 - pads[0], kw - 1 - pads[2]
    buf = np.zeros((n, h + kh - 1, w + kw - 1, f))
    buf[:, top:top + sh * ho:sh, left:left + sw * wo:sw] = g
    win = _windows(buf, (0, 0, 0, 0), 0.0, h, w, kh, kw, 1, 1)
    flipped = filters[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * f, c)
    out = win.reshape(n * h * w, kh * kw * f).dot(flipped)
    return out.reshape(n, h, w, c)


# ---------------------------------------------------------------------------
# max pooling

def maxpool_output_shape(input_shape, ksize, stride, padding) -> tuple[int, ...]:
    n, h, w, c = input_shape
    ho, wo = _geometry(h, w, *_pair(ksize, "ksize"), stride, padding)[:2]
    return (n, ho, wo, c)


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _pool_index_base(n, h, w, c, kh, kw, ho, wo, sh, sw, pt, pl):
    """Flat input offset of each window's top-left tap, shape (n, ho, wo,
    c), and the offset (ki·w + kj)·c of each tap; both read-only."""
    nn = np.arange(n).reshape(n, 1, 1, 1) * h
    ii = np.arange(ho).reshape(1, ho, 1, 1) * sh - pt
    jj = np.arange(wo).reshape(1, 1, wo, 1) * sw - pl
    cc = np.arange(c, dtype=np.int64).reshape(1, 1, 1, c)
    base = ((nn + ii) * w + jj) * c + cc
    taps = ((np.arange(kh).reshape(kh, 1) * w + np.arange(kw)) * c).reshape(-1)
    base.flags.writeable = taps.flags.writeable = False
    return base, taps


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
    n, h, w, c = x.shape
    kh, kw = _pair(ksize, "ksize")
    ho, wo, sh, sw, pads = _geometry(h, w, kh, kw, stride, padding)
    win = _windows(x, pads, -np.inf, ho, wo, kh, kw, sh, sw)
    # argmax returns the first maximum; the taps are scanned in (ki, kj)
    # order, which is ascending flat offset, so ties go to the smallest
    # offset automatically
    warg = win.transpose(0, 1, 2, 5, 3, 4).reshape(n, ho, wo, c, kh * kw).argmax(axis=4)
    base, taps = _pool_index_base(n, h, w, c, kh, kw, ho, wo, sh, sw, pads[0], pads[2])
    indices = base + taps[warg]
    return x.reshape(-1)[indices], indices


# ---------------------------------------------------------------------------
# QR

def qr_householder(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of an m x n matrix (m >= n) by Householder reflections.

    LAPACK's reduced QR (``geqrf``, itself Householder) with the signs
    fixed afterwards. Returns (q, r) with q orthonormal columns (m x n)
    and r upper triangular (n x n) whose diagonal is >= 0.
    Rank-deficient columns leave zeros on the diagonal.
    """
    a = as_f64(m)
    if a.ndim != 2:
        raise ShapeMismatch(f"qr needs a 2-d matrix, got {a.shape}")
    if a.shape[0] < a.shape[1]:
        raise ShapeMismatch(f"qr needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a)
    # sign convention: non-negative diagonal of r
    s = np.where(r.diagonal() < 0, -1.0, 1.0)
    return q * s, r * s[:, None]
