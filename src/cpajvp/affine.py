"""Materialized affine maps for a frozen region, and region comparison.

On one activation region the whole network is f(v) = A v + b. This
module builds A and b two independent ways: direct composition of
per-layer dense expansions (index arithmetic only, no shared kernels
with the evaluation engine), and probing the engines from the narrow
side of the map: rows of A through the transposed engine when
d_out < d_in, columns through the forward engine otherwise, so a probe
costs min(d_in, d_out) slices. The two agreeing is the main exactness
check for the product machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .network import (
    Activation, Add, BatchNormInference, Concat, Conv2D, Dense, Dropout,
    Flatten, FrozenState, GraphError, INPUT_ID, MaxPool, Network, Recurrent,
    _forward_pass, _single, _transposed_pass, record_states, shape_infer,
)


class BudgetExceeded(ValueError):
    """Raised when a materialized matrix would exceed the entry budget."""


@dataclass
class AffineMap:
    """Flat-index affine map: slope (d_out, d_in) and offset (d_out,)."""
    a: np.ndarray
    b: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.a @ np.asarray(v, dtype=np.float64).reshape(-1) + self.b


def _checked_zeros(shape: tuple[int, int], budget: int, what: str) -> np.ndarray:
    if shape[0] * shape[1] > budget:
        raise BudgetExceeded(f"{what} needs {shape[0] * shape[1]} entries, "
                             f"budget is {budget}")
    return np.zeros(shape)


def _conv_dense_expansion(lay: Conv2D, in_shape, out_shape, budget: int,
                          nid: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of one conv layer, built entirely from index
    arithmetic so it shares nothing with the strided engine kernel."""
    n, h, w, c = in_shape
    _, ho, wo, f = out_shape
    kh, kw = lay.filters.shape[0], lay.filters.shape[1]
    sh, sw = (lay.stride, lay.stride) if np.isscalar(lay.stride) else lay.stride
    if lay.padding == "same":
        th = max((ho - 1) * sh + kh - h, 0)
        tw = max((wo - 1) * sw + kw - w, 0)
        pt, pl = th // 2, tw // 2
    else:
        pt = pl = 0
    m = _checked_zeros((n * ho * wo * f, n * h * w * c), budget,
                       f"conv expansion at node {nid!r}")
    cvec = np.zeros(n * ho * wo * f)
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                obase = ((nn * ho + i) * wo + j) * f
                cvec[obase:obase + f] = lay.bias
                for ki in range(kh):
                    ih = i * sh - pt + ki
                    if not 0 <= ih < h:
                        continue
                    for kj in range(kw):
                        iw = j * sw - pl + kj
                        if not 0 <= iw < w:
                            continue
                        ibase = ((nn * h + ih) * w + iw) * c
                        for ch in range(c):
                            m[obase:obase + f, ibase + ch] = lay.filters[ki, kj, ch, :]
    return m, cvec


def _scale_and_shift(lay, nid: str, state: FrozenState,
                     shape) -> tuple[np.ndarray, np.ndarray]:
    """Flat elementwise factor and additive term of an activation, dropout
    or batch-norm layer."""
    size = int(np.prod(shape))
    if isinstance(lay, Activation):
        mask = state.sign_masks[nid]
        return np.where(mask, 1.0, lay.leakiness).reshape(-1), np.zeros(size)
    if isinstance(lay, Dropout):
        if not lay.training:
            return np.ones(size), np.zeros(size)
        keep = state.keep_masks[nid]
        return (keep / (1.0 - lay.rate)).reshape(-1), np.zeros(size)
    scale = lay.gamma / np.sqrt(lay.running_var + lay.epsilon)  # batch norm
    shift = lay.beta - lay.running_mean * scale
    return (np.broadcast_to(scale, shape).reshape(-1).copy(),
            np.broadcast_to(shift, shape).reshape(-1).copy())


def materialize_affine_direct(net: Network, x: np.ndarray,
                              budget: int = 10 ** 6) -> AffineMap:
    """A and b of the region at x by composing per-layer dense expansions.

    Conv and recurrent layers are expanded by explicit index loops and
    composed with the fixed-order matmul; the evaluation engine's
    kernels are never called, which keeps this usable as an oracle
    against the replay-based products.
    """
    shapes = shape_infer(net)
    _, state = record_states(net, x)
    d_in = int(np.prod(net.input_shape))
    if d_in * d_in > budget:
        raise BudgetExceeded(f"input identity needs {d_in * d_in} entries, "
                             f"budget is {budget}")
    acc: dict[str, tuple[np.ndarray, np.ndarray]] = {
        INPUT_ID: (np.eye(d_in), np.zeros(d_in))}
    for node in net.nodes:
        lay = node.layer
        nid = node.id
        out_flat = int(np.prod(shapes[nid]))
        if out_flat * d_in > budget:
            raise BudgetExceeded(f"node {nid!r} slope needs {out_flat * d_in} "
                                 f"entries, budget is {budget}")
        if isinstance(lay, Dense):
            a_in, b_in = acc[node.inputs[0]]
            acc[nid] = (numerics.matmul(lay.weights, a_in),
                        lay.weights @ b_in + lay.bias)
        elif isinstance(lay, Conv2D):
            a_in, b_in = acc[node.inputs[0]]
            m, cvec = _conv_dense_expansion(lay, shapes[node.inputs[0]],
                                            shapes[nid], budget, nid)
            acc[nid] = (numerics.matmul(m, a_in), m @ b_in + cvec)
        elif isinstance(lay, (Activation, Dropout, BatchNormInference)):
            a_in, b_in = acc[node.inputs[0]]
            factor, shift = _scale_and_shift(lay, nid, state, shapes[node.inputs[0]])
            acc[nid] = (factor[:, None] * a_in, factor * b_in + shift)
        elif isinstance(lay, Flatten):
            acc[nid] = acc[node.inputs[0]]
        elif isinstance(lay, MaxPool):
            a_in, b_in = acc[node.inputs[0]]
            sel = state.argmax_indices[nid].reshape(-1)
            acc[nid] = (a_in[sel, :], b_in[sel])
        elif isinstance(lay, Add):
            a_sum, b_sum = acc[node.inputs[0]]
            a_sum, b_sum = a_sum.copy(), b_sum.copy()
            for ref in node.inputs[1:]:
                a_i, b_i = acc[ref]
                a_sum += a_i
                b_sum += b_i
            acc[nid] = (a_sum, b_sum)
        elif isinstance(lay, Concat):
            out_shape = shapes[nid]
            ax = lay.axis % len(out_shape)
            a = np.zeros((out_flat, d_in))
            b = np.zeros(out_flat)
            out_idx = np.arange(out_flat).reshape(out_shape)
            offset = 0
            for ref in node.inputs:
                span = shapes[ref][ax]
                block = [slice(None)] * len(out_shape)
                block[ax] = slice(offset, offset + span)
                rows = out_idx[tuple(block)].reshape(-1)
                a_i, b_i = acc[ref]
                a[rows, :] = a_i
                b[rows] = b_i
                offset += span
            acc[nid] = (a, b)
        elif isinstance(lay, Recurrent):
            a_in, b_in = acc[node.inputs[0]]
            hid = lay.w_hidden.shape[0]
            d_step = shapes[node.inputs[0]][1]
            masks = state.sign_masks[nid]
            a_h = np.zeros((hid, d_in))
            b_h = np.zeros(hid)
            for t in range(lay.steps):
                rows = slice(t * d_step, (t + 1) * d_step)
                pre_a = numerics.matmul(lay.w_hidden, a_h) + \
                    numerics.matmul(lay.w_input, a_in[rows, :])
                pre_b = lay.w_hidden @ b_h + lay.w_input @ b_in[rows] + lay.bias
                factor = np.where(masks[t], 1.0, lay.leakiness)
                a_h = factor[:, None] * pre_a
                b_h = factor * pre_b
            acc[nid] = (a_h, b_h)
        else:
            raise GraphError(f"node {nid!r}: unknown layer {type(lay).__name__}")
    a, b = acc[net.output]
    return AffineMap(a=a.copy(), b=b.copy())


def narrow_side_slope(net: Network, state: FrozenState) -> np.ndarray:
    """The slope A (d_out, d_in) of the region recorded in state, from the
    narrow side of the map.

    When d_out < d_in one transposed pass gives the rows of A (reverse
    mode). Its seed is I_{d_out}, or a Dense output node's weights W,
    which a hook passes on past the node's step: that saves d_out² ·
    (W's d_in) multiply-adds and, for finite W, keeps the bits of I W
    but for a -0.0 of W, which I W makes +0.0. A never shares memory
    with W. Otherwise one linear forward pass over the rows of I_{d_in}
    gives the columns of A (forward mode). Either way the seed holds at
    most min(d_in, d_out) rows, and A is never the difference of two
    affine outputs.
    """
    plan = net.plan
    d_in, d_out = plan.d_in, plan.d_out
    if d_out < d_in:
        head = plan.by_id[net.output].layer
        if isinstance(head, Dense):  # skip the head: its step makes W of I_{d_out}
            seed, hook = head.weights, lambda nid, spec, g: [g] if nid == net.output else None
        else:
            seed, hook = np.eye(d_out).reshape((d_out,) + plan.out_shape), None
        rows = _transposed_pass(net, state, seed, hook).reshape(d_out, d_in)
        return rows.copy() if np.may_share_memory(rows, seed) else rows
    out, _ = _forward_pass(net, np.eye(d_in).reshape((d_in,) + net.input_shape), 0, state)
    return np.ascontiguousarray(out.reshape(d_in, d_out).T)


def materialize_affine_via_rop(net: Network, x: np.ndarray,
                               budget: int = 10 ** 6) -> AffineMap:
    """A and b of the region at x, built from the narrow side of the map.

    One recording pass carries x as slice 0, which decides the region,
    and a zero input as slice 1; the additive terms reach these two
    slices only, so slice 1 comes out as b. When d_out < d_in A comes
    from ``narrow_side_slope`` on that pass's state. Otherwise the rows
    of I_{d_in} ride behind [x; 0] in the recording pass, linear, and
    come out as the columns of A.

    The region is the one slice 0 of that batch decides: where a
    pre-activation at x is within rounding of 0 it can be the
    neighbouring region of the one ``record_states`` takes.
    """
    plan = net.plan
    d_in, d_out = plan.d_in, plan.d_out
    if d_in * d_out > budget:
        raise BudgetExceeded(f"slope needs {d_in * d_out} entries, "
                             f"budget is {budget}")
    x = _single(net, x)
    if d_out < d_in:
        out, state = _forward_pass(net, np.concatenate([x, np.zeros_like(x)]), 2)
        a = narrow_side_slope(net, state)
    else:
        rows = np.eye(d_in + 1, d_in, -1).reshape((d_in + 1,) + net.input_shape)
        out, _ = _forward_pass(net, np.concatenate([x, rows]), 2)
        a = np.ascontiguousarray(out[2:].reshape(d_in, d_out).T)
    return AffineMap(a=a, b=out[1].reshape(-1).copy())


def region_equal(net: Network, x: np.ndarray, y: np.ndarray) -> bool:
    """True when x and y produce identical nonlinearity states: same
    sign masks, same pooling winners, same dropout keep masks."""
    _, sx = record_states(net, x)
    _, sy = record_states(net, y)
    for store in ("sign_masks", "argmax_indices", "keep_masks"):
        dx, dy = getattr(sx, store), getattr(sy, store)
        for key in dx:
            if not np.array_equal(dx[key], dy[key]):
                return False
    return True
