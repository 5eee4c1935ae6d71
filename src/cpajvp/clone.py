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

import math
from dataclasses import replace

import numpy as np

from .network import (
    Dense, FrozenState, GraphError, Network, ShapeMismatch, _checked, _forward_pass,
    _shaped, _single, _transposed_pass, record_states,
)
from .numerics import _vdot, check_finite


def _check_state(net: Network, state: FrozenState) -> None:
    """The one check of a caller's state (weight arrays may differ): see ``frozen_forward``."""
    plan, rec = net.plan, state.plan
    if rec is plan:
        return
    ours, theirs = ({(i, type(n.layer)) for i, n in p.by_id.items()} for p in (plan, rec))
    if ours != theirs:
        raise GraphError(f"frozen state does not belong to this network (mismatched "
                         f"nodes: {sorted({i for i, _ in ours ^ theirs})[:3]})")
    if shapes := [i for i in plan.shapes if rec.shapes[i] != plan.shapes[i]]:  # input's too
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
    leaves every additive term out and evaluates A v. Affine mode at the
    recording input reproduces the recorded forward bitwise. The state
    may come from any network with the same node ids, input shape and,
    per node, layer kind, shape and non-array fields: weight arrays may
    differ; else GraphError or ShapeMismatch. v is checked as "input".
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

# as a decorator, errstate sets the error state faster than a `with`
@np.errstate(invalid="ignore")
def _dense_tangent(x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x0 U^T as Dense.apply takes it, U checked for NaN and inf: with no 0
    in x0 such an entry makes the product non-finite on any BLAS, so U is
    read only where x0 holds a 0 or the product is not finite."""
    t = x0.dot(u.T)
    if np.count_nonzero(x0) < x0.size or not math.isfinite(_vdot(t, t)):
        check_finite(u, "direction")
    return t


def jvp_weight(net: Network, x: np.ndarray, node_id: str,
               direction: np.ndarray) -> np.ndarray:
    """Derivative of the output in a weight direction U at one node.

    With the region frozen, the output is linear in the node's weight,
    so the product is one clone pass over [x, 0]: slice 0 records the
    region, and the engine's hook runs the target's own step (Dense and
    Conv2D read no state), then sets slice 1 to U applied, with no bias,
    to the node's input on slice 0. Downstream, slice 1 is linear, and
    branches that bypass the target carry zeros. The region is slice
    0's; at a pre-activation within rounding of 0 it may differ from
    record_states' region at x alone. A NaN or inf in U raises
    NonFiniteInput: a Conv2D U is checked before the pass, a Dense one by
    its product at the target (``_dense_tangent``); a finite U whose
    product overflows goes through.
    """
    target = net.plan.by_id.get(node_id)
    if target is None:
        raise GraphError(f"no node named {node_id!r}")
    name = getattr(target.layer, "weight_field", None)
    if name is None:
        raise GraphError(f"node {node_id!r} is {type(target.layer).__name__}, "
                         f"weight directions need a Dense or Conv2D node")
    direction = _shaped(direction, getattr(target.layer, name).shape, "direction",
                        f"node {node_id!r} weights")
    if not (dense := isinstance(target.layer, Dense)):
        check_finite(direction, "direction")
        tangent = replace(target.layer, **{name: direction})

    def add_tangent(nid, spec, ins):
        if nid == node_id:
            out = spec.apply(nid, ins, 1, None, False)
            x0 = ins[0][:1]
            out[1:] = (_dense_tangent(x0, direction) if dense
                       else tangent.apply(nid, [x0], 0, None, False))
            return out

    x = _single(net, x)
    out, _ = _forward_pass(net, np.concatenate([x, np.zeros_like(x)]), 1, hook=add_tangent)
    return out[1]
