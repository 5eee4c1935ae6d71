"""Layer graph definition, the batched pass engine, and state recording.

A Network is a DAG of layer nodes listed in topological order. The
reserved id "input" names the network input. Layers come in two kinds:
affine (dense, conv, batch-norm inference, flatten, add, concat) and
state-driven nonlinearities (leaky activation, max pool, training-mode
dropout). Recording the nonlinearity states at an input freezes the
piecewise-affine region, which is what every frozen pass replays.

Each layer kind is defined once, by methods on its spec that work on a
leading batch axis: ``infer`` (output shape), ``apply`` (forward step)
and ``transpose`` (adjoint step on a frozen region). On a region every
layer is diag(q) W plus an additive term, which ``apply`` adds to the
first ``n_aff`` slices only; a nonlinearity without a frozen state takes
its decision from slice 0 and applies it to every slice. A recording
stores each elementwise nonlinearity's q in ``FrozenState.factors``, so
its replay and transposed steps are one multiply by q. One forward and
one transposed engine over these methods serve every pass, and all of
them read the network's Plan, built once on first use. The engines
check nothing: a public entry checks each caller array once, with
``_checked``, and a caller's state once, in ``clone._check_state``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import numerics
from .numerics import ShapeMismatch, as_f64, check_finite, keyed_rng, read_only

INPUT_ID = "input"

_where = getattr(np.where, "_implementation", np.where)  # np.where without the dispatch
_F64 = np.dtype(np.float64)

BLOCK_WIDTH = 1024
"""Most slices one engine pass carries; wider blocks run in several
passes, so memory stays bounded for large d_in or sample counts."""


class GraphError(ValueError):
    """Raised for structural problems in a network graph."""


# ---------------------------------------------------------------------------
# layer specs
#
# check(nid, n_inputs) raises GraphError for bad wiring or parameters.
# infer(nid, shapes) gives the output shape from per-sample input shapes.
# apply(nid, ins, n_aff, state, record) maps input batches to an output
# batch; with record it stores its decisions, taken from slice 0, in state.
# transpose(nid, g, state, shapes) gives the cotangent batch of each input.
# mults(out_shape) counts the weight multiplies apply makes per slice.

def _add_affine(out: np.ndarray, term, n_aff: int) -> np.ndarray:
    """out, a fresh product the step owns, with an additive term added in
    place on its first n_aff slices."""
    if n_aff >= len(out):
        out += term
    elif n_aff:
        out[:n_aff] += term
    return out


class _Layer:
    """Spec defaults: one input (two or more when ``merges``), no
    parameter to check, no weight multiplies."""
    merges = False

    def mults(self, out_shape):
        return 0

    def check(self, nid, n_inputs):
        if self.merges and n_inputs < 2:
            raise GraphError(f"node {nid!r} needs at least two inputs")
        if not self.merges and n_inputs != 1:
            raise GraphError(f"node {nid!r}: {type(self).__name__} takes exactly "
                             f"one input, got {n_inputs}")


class _Elementwise(_Layer):
    """Layers that scale each entry on a region: the frozen map is a
    diagonal, so the transpose is the linear apply itself."""

    def infer(self, nid, shapes):
        return shapes[0]

    def transpose(self, nid, g, state, shapes):
        return [self.apply(nid, [g], 0, state, False)]


@dataclass(frozen=True)
class Dense(_Layer):
    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray     # (d_out,)
    weight_field = "weights"

    def infer(self, nid, shapes):
        (s,) = shapes
        w = self.weights
        if len(s) != 1 or w.ndim != 2 or w.shape[1] != s[0]:
            raise ShapeMismatch(
                f"node {nid!r}: dense weights {w.shape} cannot consume input {s}")
        if self.bias.shape != (w.shape[0],):
            raise ShapeMismatch(
                f"node {nid!r}: bias {self.bias.shape} does not match {w.shape[0]} outputs")
        return (w.shape[0],)

    def mults(self, out_shape):
        return self.weights.size

    def apply(self, nid, ins, n_aff, state, record):
        (v,) = ins
        return _add_affine(v.dot(self.weights.T), self.bias, n_aff)

    def transpose(self, nid, g, state, shapes):
        return [g.dot(self.weights)]


def _merge(a: np.ndarray) -> np.ndarray:
    """Fold the batch axis into an NHWC tensor's own leading axis."""
    return a.reshape((-1,) + a.shape[2:])


@dataclass(frozen=True)
class Conv2D(_Layer):
    filters: np.ndarray  # (kh, kw, C, F)
    bias: np.ndarray     # (F,)
    stride: tuple[int, int] = (1, 1)
    padding: str = "valid"
    weight_field = "filters"

    def infer(self, nid, shapes):
        (s,) = shapes
        if len(s) != 4:
            raise ShapeMismatch(f"node {nid!r}: conv input must be NHWC, got {s}")
        out = numerics.conv2d_output_shape(s, self.filters.shape, self.stride,
                                           self.padding)
        if self.bias.shape != (self.filters.shape[3],):
            raise ShapeMismatch(
                f"node {nid!r}: bias {self.bias.shape} does not match "
                f"{self.filters.shape[3]} filters")
        return out

    def mults(self, out_shape):
        return self.filters.size * math.prod(out_shape[:-1])

    def apply(self, nid, ins, n_aff, state, record):
        (v,) = ins
        out = numerics.conv2d(_merge(v), self.filters, self.stride, self.padding)
        return _add_affine(out.reshape(v.shape[:2] + out.shape[1:]), self.bias, n_aff)

    def transpose(self, nid, g, state, shapes):
        (s,) = shapes
        gi = numerics.conv2d_input_adjoint(_merge(g), self.filters, self.stride,
                                           self.padding, (len(g) * s[0],) + s[1:])
        return [gi.reshape((len(g),) + s)]


@dataclass(frozen=True)
class Activation(_Elementwise):
    """Elementwise max(h, leakiness * h); leakiness 0 is relu, -1 is abs."""
    leakiness: float = 0.0

    def apply(self, nid, ins, n_aff, state, record):
        (h,) = ins
        if record:
            mask = state.sign_masks[nid] = h[0] >= 0
            state.factors[nid] = _where(mask, 1.0, self.leakiness)
        return h * state.factors[nid]


@dataclass(frozen=True)
class MaxPool(_Layer):
    ksize: tuple[int, int]
    stride: Optional[tuple[int, int]] = None  # defaults to ksize
    padding: str = "valid"

    def infer(self, nid, shapes):
        (s,) = shapes
        if len(s) != 4:
            raise ShapeMismatch(f"node {nid!r}: maxpool input must be NHWC, got {s}")
        stride = self.ksize if self.stride is None else self.stride
        return numerics.maxpool_output_shape(s, self.ksize, stride, self.padding)

    def apply(self, nid, ins, n_aff, state, record):
        (v,) = ins
        if record:
            _, state.argmax_indices[nid] = numerics.maxpool_argmax(
                v[0], self.ksize, self.stride, self.padding)
        idx = state.argmax_indices[nid]
        return v.reshape(len(v), -1)[:, idx.reshape(-1)].reshape((len(v),) + idx.shape)

    def transpose(self, nid, g, state, shapes):
        (s,) = shapes
        size = math.prod(s)
        rows = state.argmax_indices[nid].reshape(-1)
        if len(g) > 1:  # row r's winners sit r input sizes further on
            rows = (rows + size * np.arange(len(g))[:, None]).reshape(-1)
        buf = np.bincount(rows, weights=g.reshape(-1), minlength=len(g) * size)
        return [buf.reshape((len(g),) + s)]


@dataclass(frozen=True)
class Dropout(_Elementwise):
    """Inference mode is the identity; training mode applies a fixed
    keep mask drawn from a counter-based generator keyed by (seed,
    node id), so the mask is reproducible across passes."""
    rate: float
    training: bool = False
    seed: int = 0

    def check(self, nid, n_inputs):
        super().check(nid, n_inputs)
        if not 0.0 <= self.rate < 1.0:
            raise GraphError(f"node {nid!r}: dropout rate must be in [0, 1), "
                             f"got {self.rate}")

    def apply(self, nid, ins, n_aff, state, record):
        (v,) = ins
        if not self.training:
            return v
        if record:
            state.keep_masks[nid], state.factors[nid] = _shared_dropout(
                self.seed, nid, v.shape[1:], self.rate)
        return v * state.factors[nid]


@dataclass(frozen=True)
class BatchNormInference(_Elementwise):
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def infer(self, nid, shapes):
        (s,) = shapes
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = getattr(self, name)
            if arr.shape != (s[-1],):
                raise ShapeMismatch(
                    f"node {nid!r}: {name} {arr.shape} does not match "
                    f"feature axis of length {s[-1]}")
        if not np.all(self.running_var + self.epsilon > 0):
            raise GraphError(f"node {nid!r}: running_var + epsilon must be positive")
        return s

    def apply(self, nid, ins, n_aff, state, record):
        (v,) = ins
        root = np.sqrt(self.running_var + self.epsilon)
        if n_aff >= len(v):
            return self.gamma * (v - self.running_mean) / root + self.beta
        out = v * (self.gamma / root)
        if n_aff:
            # affine slices keep the plain formula's rounding, as in forward
            out[:n_aff] = self.gamma * (v[:n_aff] - self.running_mean) / root + self.beta
        return out


@dataclass(frozen=True)
class Flatten(_Layer):
    def infer(self, nid, shapes):
        return (int(np.prod(shapes[0])),)

    def apply(self, nid, ins, n_aff, state, record):
        return ins[0].reshape(len(ins[0]), -1)

    def transpose(self, nid, g, state, shapes):
        return [g.reshape((len(g),) + shapes[0])]


@dataclass(frozen=True)
class Add(_Layer):
    merges = True

    def infer(self, nid, shapes):
        for s in shapes[1:]:
            if s != shapes[0]:
                raise ShapeMismatch(f"node {nid!r}: add inputs {shapes[0]} vs {s}")
        return shapes[0]

    def apply(self, nid, ins, n_aff, state, record):
        out = ins[0]
        for v in ins[1:]:
            out = out + v
        return out

    def transpose(self, nid, g, state, shapes):
        return [g] * len(shapes)


@dataclass(frozen=True)
class Concat(_Layer):
    axis: int
    merges = True

    def infer(self, nid, shapes):
        first = shapes[0]
        if not -len(first) <= self.axis < len(first):
            raise ShapeMismatch(f"node {nid!r}: concat axis {self.axis} out of "
                                f"range for {first}")
        ax = self.axis % len(first)
        for s in shapes:
            if len(s) != len(first) or s[:ax] != first[:ax] or s[ax + 1:] != first[ax + 1:]:
                raise ShapeMismatch(f"node {nid!r}: concat inputs {first} vs {s} "
                                    f"disagree off axis {ax}")
        return first[:ax] + (sum(s[ax] for s in shapes),) + first[ax + 1:]

    def apply(self, nid, ins, n_aff, state, record):
        return np.concatenate(ins, axis=self.axis % (ins[0].ndim - 1) + 1)

    def transpose(self, nid, g, state, shapes):
        ax = self.axis % len(shapes[0])
        lead, parts, start = (slice(None),) * (ax + 1), [], 0
        for s in shapes:
            parts.append(g[lead + (slice(start, start + s[ax]),)])
            start += s[ax]
        return parts


@dataclass(frozen=True)
class Recurrent(_Layer):
    """Elman-style cell unrolled over the leading input axis.

    h_t = act(w_hidden @ h_{t-1} + w_input @ x_t + bias), h_0 = 0,
    with the same leaky activation as Activation. Output is h_T.
    """
    w_hidden: np.ndarray  # (hidden, hidden)
    w_input: np.ndarray   # (hidden, d_in)
    bias: np.ndarray      # (hidden,)
    leakiness: float
    steps: int

    def check(self, nid, n_inputs):
        super().check(nid, n_inputs)
        if self.steps < 1:
            raise GraphError(f"node {nid!r}: steps must be >= 1")

    def infer(self, nid, shapes):
        (s,) = shapes
        hid = self.w_hidden.shape[0]
        if self.w_hidden.shape != (hid, hid):
            raise ShapeMismatch(f"node {nid!r}: w_hidden {self.w_hidden.shape} not square")
        if len(s) != 2 or s[0] != self.steps or self.w_input.shape != (hid, s[1]):
            raise ShapeMismatch(
                f"node {nid!r}: recurrent expects input ({self.steps}, "
                f"{self.w_input.shape[1] if self.w_input.ndim == 2 else '?'}), got {s}")
        if self.bias.shape != (hid,):
            raise ShapeMismatch(f"node {nid!r}: bias {self.bias.shape} vs hidden {hid}")
        return (hid,)

    def mults(self, out_shape):
        return (self.w_hidden.size + self.w_input.size) * self.steps

    def apply(self, nid, ins, n_aff, state, record):
        (x,) = ins
        hid = self.w_hidden.shape[0]
        # input drive w_input @ x_t (+ bias) for every step in one product
        drive = x.reshape(-1, x.shape[2]).dot(self.w_input.T).reshape(x.shape[:2] + (hid,))
        drive = _add_affine(drive, self.bias, n_aff)
        if record:  # each step takes the masked formula, bit for bit h * q[t];
            # q is built in one piece after the loop
            masks = state.sign_masks[nid] = np.empty((self.steps, hid), dtype=bool)
        else:
            q = state.factors[nid]
        h = np.zeros((len(x), hid))
        for t in range(self.steps):
            h = h.dot(self.w_hidden.T)
            h += drive[:, t]
            if record:
                masks[t] = h[0] >= 0
                h = _where(masks[t], h, h * self.leakiness)
            else:
                h *= q[t]
        if record:
            state.factors[nid] = _where(masks, 1.0, self.leakiness)
        return h

    def transpose(self, nid, g, state, shapes):
        q = state.factors[nid]
        b = len(g)
        drive = np.empty((b, self.steps, self.w_hidden.shape[0]))
        for t in range(self.steps - 1, -1, -1):
            g = np.multiply(g, q[t], out=drive[:, t]).dot(self.w_hidden)
        gx = drive.reshape(b * self.steps, -1).dot(self.w_input)
        return [gx.reshape((b,) + shapes[0])]


@dataclass(frozen=True)
class Node:
    id: str
    layer: object
    inputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class Plan:
    """What the graph alone decides, derived once per network, with the
    engines' step programs over slots (0 is the input, i the i-th node):
    ``forward`` steps (node id, spec, input slots) in graph order, and
    ``transposed`` steps (slot, node id, spec, input slots, input
    shapes) of the nodes that feed the output, in reverse. Steps hold
    specs, not bound methods, so a patch on a spec class takes effect."""
    shapes: dict[str, tuple[int, ...]]  # per-sample output shapes, input's too
    by_id: dict[str, Node]
    out_shape: tuple[int, ...]
    d_in: int   # flat input and output sizes
    d_out: int
    slice_mults: int  # weight multiplies one slice costs in an engine pass
    forward: tuple[tuple, ...]
    transposed: tuple[tuple, ...]
    out_slot: int

    @functools.cached_property
    def past_head(self) -> Plan:
        """This plan with its transposed walk one step past the output node."""
        head = self.transposed[0]
        return replace(self, transposed=self.transposed[1:], out_slot=head[3][0])


@dataclass(frozen=True)
class Network:
    """A layer graph, immutable: nodes and their inputs are stored as
    tuples (lists are accepted). The graph is validated, every weight
    array and float field (a leakiness, an epsilon) checked for NaN and
    inf, and its shapes inferred once, on first use, into ``plan``; a
    bad graph constructs and raises there."""
    input_shape: tuple[int, ...]
    nodes: tuple[Node, ...]
    output: str

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @functools.cached_property
    def plan(self) -> Plan:
        validate(self)
        shapes: dict[str, tuple[int, ...]] = {INPUT_ID: self.input_shape}
        steps, slot = [], {INPUT_ID: 0}
        for i, node in enumerate(self.nodes, 1):
            for f in fields(node.layer):  # weight arrays and float scalars
                v = getattr(node.layer, f.name)
                if isinstance(v, (np.ndarray, float, np.floating)):
                    check_finite(np.asarray(v), f"node {node.id!r}: {f.name}")
            ins = tuple(shapes[r] for r in node.inputs)
            shapes[node.id], slot[node.id] = node.layer.infer(node.id, ins), i
            steps.append((i, node.id, node.layer, tuple(slot[r] for r in node.inputs), ins))
        live = {slot[self.output]}  # the slots that feed the output
        for step in reversed(steps):
            if step[0] in live:
                live.update(step[3])
        out_shape = shapes[self.output]
        by_id = {node.id: node for node in self.nodes}
        return Plan(shapes=shapes, by_id=by_id,
                    out_shape=out_shape, d_in=int(np.prod(self.input_shape)),
                    d_out=int(np.prod(out_shape)),
                    slice_mults=sum(node.layer.mults(shapes[node.id])
                                    for node in self.nodes),
                    forward=tuple(step[1:4] for step in steps), out_slot=slot[self.output],
                    transposed=tuple(step for step in reversed(steps) if step[0] in live))


# ---------------------------------------------------------------------------
# validation and shape inference

def validate(net: Network) -> None:
    """Structural checks: unique ids, inputs precede consumers, output
    exists, and each spec's own arity and parameter checks. Raises
    GraphError naming the offending node."""
    if not net.nodes:
        raise GraphError("network has no nodes")
    if any(d < 1 for d in net.input_shape) or not net.input_shape:
        raise GraphError(f"input_shape must be positive dims, got {net.input_shape}")
    seen = {INPUT_ID}
    for node in net.nodes:
        if node.id == INPUT_ID:
            raise GraphError(f"node id {INPUT_ID!r} is reserved for the network input")
        if node.id in seen:
            raise GraphError(f"duplicate node id {node.id!r}")
        if not isinstance(node.layer, _Layer):
            raise GraphError(f"node {node.id!r}: unknown layer {type(node.layer).__name__}")
        node.layer.check(node.id, len(node.inputs))
        for ref in node.inputs:
            if ref not in seen:
                raise GraphError(
                    f"node {node.id!r} references {ref!r}, which is undefined "
                    f"or appears later (nodes must be in topological order)")
        seen.add(node.id)
    if net.output not in seen or net.output == INPUT_ID:
        raise GraphError(f"output node {net.output!r} does not exist")


def shape_infer(net: Network) -> dict[str, tuple[int, ...]]:
    """Shapes of every node output, keyed by node id: a fresh copy of
    the network's plan, so it validates the graph on first use."""
    return dict(net.plan.shapes)


# ---------------------------------------------------------------------------
# dropout masks

def dropout_mask(seed: int, node_id: str, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Reproducible keep mask: counter-based generator keyed by (seed,
    node id), independent of draw order anywhere else."""
    return keyed_rng("dropout", seed, node_id).random(shape) >= rate


@functools.lru_cache(maxsize=256)
def _shared_dropout(seed, node_id, shape, rate) -> tuple[np.ndarray, np.ndarray]:
    """dropout_mask and its replay factor keep / (1 - rate), made once
    per key and shared, read-only, by every recording of that node."""
    keep = dropout_mask(seed, node_id, shape, rate)
    return read_only(keep, keep / (1.0 - rate))


# ---------------------------------------------------------------------------
# recorded state

@dataclass
class FrozenState:
    """Nonlinearity states recorded at one input; no feature maps.

    input: the recording input;
    plan: the recording network's plan, which ties the state to the
          networks it may replay on (``clone.frozen_forward``);
    sign_masks: activation nodes, True where pre-activation >= 0
                (recurrent nodes store a (steps, hidden) stack);
    argmax_indices: max-pool winners as flat offsets into the node input;
    keep_masks: training-mode dropout keep masks;
    factors: per activation, recurrent and training-mode dropout node,
             the diagonal q that its replay multiplies by: where(mask, 1,
             leakiness), or keep / (1 - rate), shared like the keep mask.
    """
    input: np.ndarray
    plan: Plan = field(repr=False)
    sign_masks: dict[str, np.ndarray] = field(default_factory=dict)
    argmax_indices: dict[str, np.ndarray] = field(default_factory=dict)
    keep_masks: dict[str, np.ndarray] = field(default_factory=dict)
    factors: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the two engines

def _forward_block(plan, batch, n_aff, state, patch):
    record = state is None
    if record:
        state = FrozenState(batch[0], plan)
    values = [batch]
    for nid, spec, slots in plan.forward:
        ins = [values[slots[0]]] if len(slots) == 1 else [values[s] for s in slots]
        out = spec.apply(nid, ins, n_aff, state, record)
        values.append(patch[nid](out, ins) if patch and nid in patch else out)
    return values[plan.out_slot], state


def _forward_pass(net: Network, batch: np.ndarray, n_aff: int,
                  state: FrozenState | None = None,
                  patch: dict | None = None) -> tuple[np.ndarray, FrozenState]:
    """The forward engine: push a (B, *input_shape) batch through the graph.

    Additive terms reach the first n_aff slices only, so a slice outside
    them comes out as the frozen linear map of its input. With state
    None the nonlinearity decisions are taken from slice 0 and recorded
    into the returned state; otherwise the given state is replayed.
    ``patch`` maps node ids to functions (output batch, input batches)
    -> output batch, run right after the node's layer; callers that
    patch pass at most BLOCK_WIDTH slices. Returns the
    (B, *output_shape) batch and the state. Nothing is checked here.
    """
    if len(batch) <= BLOCK_WIDTH:
        return _forward_block(net.plan, batch, n_aff, state, patch)
    outs = []
    for start in range(0, len(batch), BLOCK_WIDTH):
        out, state = _forward_block(net.plan, batch[start:start + BLOCK_WIDTH],
                                    max(n_aff - start, 0), state, patch)
        outs.append(out)
    return np.concatenate(outs), state


def _transposed_block(plan, state, g):
    cot = [None] * (len(plan.forward) + 1)
    cot[plan.out_slot] = g
    for slot, nid, spec, slots, shapes in plan.transposed:
        gn, cot[slot] = cot[slot], None
        for s, part in zip(slots, spec.transpose(nid, gn, state, shapes)):
            cot[s] = part if cot[s] is None else cot[s] + part
    return cot[0]  # every node's inputs lead back to the input


def _transposed_pass(net: Network, state: FrozenState, g: np.ndarray,
                     past_head: bool = False) -> np.ndarray:
    """The transposed engine: A^T applied to a (B, *output_shape) batch
    of cotangents on the recorded region, walking the graph backwards.
    Returns a (B, *input_shape) batch. With past_head, g is the cotangent
    batch at the output node's one input and the walk starts past the node."""
    plan = net.plan.past_head if past_head else net.plan
    if len(g) <= BLOCK_WIDTH:
        return _transposed_block(plan, state, g)
    return np.concatenate([_transposed_block(plan, state, g[start:start + BLOCK_WIDTH])
                           for start in range(0, len(g), BLOCK_WIDTH)])


def _shaped(a, shape: tuple[int, ...], what: str, of: str) -> np.ndarray:
    """A caller's array as float64, checked for its shape (that of ``of``);
    an error names it ``what``. A complex array is refused, not cut to its real part."""
    if getattr(a, "dtype", None) is not _F64 and np.iscomplexobj(a):
        raise ValueError(f"{what} is complex; only real arrays are accepted")
    a = as_f64(a)
    if a.shape != shape:
        raise ShapeMismatch(f"{what} shape {a.shape} does not match {of} {shape}")
    return a


def _checked(a, shape: tuple[int, ...], what: str, of: str) -> np.ndarray:
    """``_shaped``, then the one check of the array for NaN or inf."""
    a = _shaped(a, shape, what, of)
    check_finite(a, what)
    return a


def _single(net: Network, a, what: str = "input") -> np.ndarray:
    """One checked array of the network's input shape as a batch of one."""
    return _checked(a, net.input_shape, what, "network input")[None]


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Plain forward pass."""
    out, _ = _forward_pass(net, _single(net, x), 1)
    return out[0]


def record_states(net: Network, x: np.ndarray) -> tuple[np.ndarray, FrozenState]:
    """Forward pass that also captures the nonlinearity states. The
    returned output is bitwise equal to forward()."""
    out, state = _forward_pass(net, _single(net, x), 1)
    return out[0], state
