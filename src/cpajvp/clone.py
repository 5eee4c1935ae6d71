"""Frozen-state passes: the autodiff-free product machinery.

On the activation region of a recording input x the network is exactly
affine, f(v) = A v + b. Replaying the recorded states in affine mode
evaluates that map; replaying with every additive term left out (linear
mode) evaluates v -> A v, which is the Jacobian-vector product. The
transposed replay walks the graph backwards and evaluates v -> A^T v.
None of this touches derivatives symbolically: each pass is an ordinary
forward or reverse sweep of the batched engine with the nonlinearity
decisions pinned.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .network import (
    FrozenState, GraphError, Network, ShapeMismatch, _checked, _forward_pass,
    _single, _transposed_pass, record_states,
)


def _check_state(net: Network, state: FrozenState) -> None:
    """The one check of a caller's state (weight arrays may differ): see ``frozen_forward``."""
    plan, rec = net.plan, state.plan
    if rec is plan:
        return
    ours, theirs = ({(i, type(n.layer)) for i, n in p.by_id.items()} for p in (plan, rec))
    if ours != theirs:
        raise GraphError(f"frozen state does not belong to this network (mismatched "
                         f"nodes: {sorted({i for i, _ in ours ^ theirs})[:3]})")
    if state.input.shape != net.input_shape:
        raise ShapeMismatch(f"state was recorded on input {state.input.shape}, "
                            f"network expects {net.input_shape}")
    if shapes := [i for i in plan.by_id if rec.shapes[i] != plan.shapes[i]]:
        raise ShapeMismatch(f"state was recorded on other shapes at nodes {shapes[:3]}")

    def params(layer):  # the non-array fields by value; a list equals its tuple
        return [tuple(v) if isinstance(v, list) else v for v in vars(layer).values()
                if not isinstance(v, np.ndarray)]
    if other := [i for i, n in plan.by_id.items()
                 if params(n.layer) != params(rec.by_id[i].layer)]:
        raise GraphError(f"frozen state does not belong to this network (other "
                         f"parameters at nodes {other[:3]})")


def frozen_forward(net: Network, state: FrozenState, v: np.ndarray,
                   mode: str = "affine") -> np.ndarray:
    """Replay the recorded region on a new input.

    mode "affine" evaluates A v + b (all biases kept); mode "linear"
    leaves every additive term out and evaluates A v. At v = state.input
    in affine mode this reproduces the recorded forward bitwise.
    The state may come from any network with the same node ids and, per
    node, the same layer kind, shape and non-array fields: weight arrays
    may differ; else GraphError or ShapeMismatch. v is checked as "input".
    """
    if mode not in ("affine", "linear"):
        raise ValueError(f"mode must be 'affine' or 'linear', got {mode!r}")
    _check_state(net, state)
    out, _ = _forward_pass(net, _single(net, v), int(mode == "affine"), state)
    return out[0]


def jvp_input(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jacobian-vector product J_f(x) u via one frozen linear replay."""
    _, state = record_states(net, x)
    out, _ = _forward_pass(net, _single(net, u, "direction"), 0, state)
    return out[0]


def _vjp(net: Network, state: FrozenState, v) -> np.ndarray:
    v = _checked(v, net.plan.out_shape, "cotangent", "output")
    return _transposed_pass(net, state, v[None])[0]


def frozen_vjp(net: Network, state: FrozenState, v: np.ndarray) -> np.ndarray:
    """Transposed frozen replay: A^T v for the recorded region; the state
    is checked as in ``frozen_forward``."""
    _check_state(net, state)
    return _vjp(net, state, v)


def vjp_input(net: Network, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product J_f(x)^T v via one transposed frozen replay."""
    _, state = record_states(net, x)
    return _vjp(net, state, v)


# ---------------------------------------------------------------------------
# weight directions

def jvp_weight(net: Network, x: np.ndarray, node_id: str,
               direction: np.ndarray) -> np.ndarray:
    """Derivative of the output in a weight direction U at one node.

    With the region frozen, the output is linear in the node's weight,
    so the product is one clone pass over [x, 0]: slice 0 records the
    region, and at the target node slice 1 becomes U applied, with no
    bias, to the node's input on slice 0. Downstream, slice 1 is linear,
    and branches that bypass the target carry zeros. The region is slice
    0's; at a pre-activation within rounding of 0 it may differ from
    record_states' region at x alone.
    """
    target = net.plan.by_id.get(node_id)
    if target is None:
        raise GraphError(f"no node named {node_id!r}")
    name = getattr(target.layer, "weight_field", None)
    if name is None:
        raise GraphError(f"node {node_id!r} is {type(target.layer).__name__}, "
                         f"weight directions need a Dense or Conv2D node")
    direction = _checked(direction, getattr(target.layer, name).shape, "direction",
                         f"node {node_id!r} weights")
    tangent = replace(target.layer, **{name: direction})

    def add_tangent(out, ins):
        out[1:] = tangent.apply(node_id, [ins[0][:1]], 0, None, False)
        return out

    x = _single(net, x)
    out, _ = _forward_pass(net, np.concatenate([x, np.zeros_like(x)]), 1,
                           patch={node_id: add_tangent})
    return out[1]

