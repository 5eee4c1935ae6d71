"""File formats: the ".ten" binary tensor and the network JSON schema.

A .ten file is: magic b"TEN1", a little-endian u32 ndim, ndim
little-endian u64 dims, then the row-major float64 payload, nothing
else. Network JSON holds input_shape, a topologically ordered node
list, and the output node id; weight arrays are inline nested lists or
{"file": "relative.ten"} references resolved against the JSON's
directory. The reserved id "input" names the network input.
"""
from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

from .network import (
    Activation, Add, BatchNormInference, Concat, Conv2D, Dense, Dropout,
    Flatten, GraphError, MaxPool, Network, Node, Recurrent, ShapeMismatch,
    shape_infer,
)
from .numerics import check_finite

MAGIC = b"TEN1"


class TensorFormatError(ValueError):
    """Raised for malformed .ten files."""


class NetworkSchemaError(ValueError):
    """Raised for malformed network JSON, with node id and field path."""


# ---------------------------------------------------------------------------
# .ten tensors

def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if any(d < 1 for d in arr.shape):
        raise TensorFormatError(f"cannot write empty tensor of shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    name = str(path)
    if len(raw) < 8:
        raise TensorFormatError(f"{name}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{name}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (ndim,) = struct.unpack_from("<I", raw, 4)
    if not 1 <= ndim <= 32:
        raise TensorFormatError(f"{name}: ndim {ndim} out of range [1, 32]")
    header = 8 + 8 * ndim
    if len(raw) < header:
        raise TensorFormatError(f"{name}: truncated dims (file holds {len(raw)} "
                                f"bytes, header needs {header})")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 8)
    if any(d < 1 for d in dims):
        raise TensorFormatError(f"{name}: non-positive dimension in {dims}")
    count = 1
    for d in dims:
        count *= d
    expected = header + 8 * count
    if len(raw) != expected:
        raise TensorFormatError(f"{name}: payload is {len(raw) - header} bytes, "
                                f"shape {dims} needs {8 * count}")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header)
    return data.astype(np.float64).reshape(dims)


# ---------------------------------------------------------------------------
# network JSON: reading

def _field(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise NetworkSchemaError(f"{ctx}: missing field {key!r}")
    return obj[key]


def _array(value, ctx: str, base: Path, ndim: int) -> np.ndarray:
    if isinstance(value, dict):
        ref = _field(value, "file", ctx)
        if not isinstance(ref, str):
            raise NetworkSchemaError(f"{ctx}.file: expected a path string")
        path = base / ref
        if not path.is_file():
            raise NetworkSchemaError(f"{ctx}: weight file {str(path)!r} not found")
        try:
            arr = read_tensor(path)
        except TensorFormatError as exc:
            raise NetworkSchemaError(f"{ctx}: {exc}") from exc
    else:
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise NetworkSchemaError(f"{ctx}: not a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise NetworkSchemaError(f"{ctx}: expected {ndim}-d array, got "
                                 f"{arr.ndim}-d of shape {arr.shape}")
    check_finite(arr, ctx)
    return arr


def _number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkSchemaError(f"{ctx}: expected a number, got {value!r}")
    check_finite(np.asarray(float(value)), ctx)
    return float(value)


def _int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise NetworkSchemaError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _pair_field(obj: dict, key: str, ctx: str, default):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, int) and not isinstance(v, bool):
        return (v, v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(s, int) and not isinstance(s, bool) for s in v)):
        return (v[0], v[1])
    raise NetworkSchemaError(f"{ctx}.{key}: expected an int or a pair, got {v!r}")


def _padding_field(obj: dict, ctx: str) -> str:
    pad = obj.get("padding", "valid")
    if pad not in ("same", "valid"):
        raise NetworkSchemaError(f"{ctx}.padding: expected 'same' or 'valid', "
                                 f"got {pad!r}")
    return pad


def _check_keys(obj: dict, allowed: set[str], ctx: str) -> None:
    unknown = set(obj) - allowed - {"type"}
    if unknown:
        raise NetworkSchemaError(f"{ctx}: unknown field {sorted(unknown)[0]!r}")


def _parse_layer(spec: dict, ctx: str, base: Path):
    if not isinstance(spec, dict):
        raise NetworkSchemaError(f"{ctx}: layer must be an object, got "
                                 f"{type(spec).__name__}")
    kind = _field(spec, "type", ctx)
    if kind == "dense":
        _check_keys(spec, {"weights", "bias"}, ctx)
        return Dense(weights=_array(_field(spec, "weights", ctx),
                                    f"{ctx}.weights", base, 2),
                     bias=_array(_field(spec, "bias", ctx), f"{ctx}.bias", base, 1))
    if kind == "conv2d":
        _check_keys(spec, {"filters", "bias", "stride", "padding"}, ctx)
        return Conv2D(filters=_array(_field(spec, "filters", ctx),
                                     f"{ctx}.filters", base, 4),
                      bias=_array(_field(spec, "bias", ctx), f"{ctx}.bias", base, 1),
                      stride=_pair_field(spec, "stride", ctx, (1, 1)),
                      padding=_padding_field(spec, ctx))
    if kind == "activation":
        _check_keys(spec, {"leakiness"}, ctx)
        return Activation(leakiness=_number(spec.get("leakiness", 0.0),
                                            f"{ctx}.leakiness"))
    if kind == "maxpool":
        _check_keys(spec, {"ksize", "stride", "padding"}, ctx)
        ksize = _pair_field(spec, "ksize", ctx, None)
        if ksize is None:
            raise NetworkSchemaError(f"{ctx}: missing field 'ksize'")
        return MaxPool(ksize=ksize, stride=_pair_field(spec, "stride", ctx, None),
                       padding=_padding_field(spec, ctx))
    if kind == "dropout":
        _check_keys(spec, {"rate", "mode", "seed"}, ctx)
        mode = spec.get("mode", "inference")
        if mode not in ("inference", "training"):
            raise NetworkSchemaError(f"{ctx}.mode: expected 'inference' or "
                                     f"'training', got {mode!r}")
        return Dropout(rate=_number(_field(spec, "rate", ctx), f"{ctx}.rate"),
                       training=(mode == "training"),
                       seed=_int(spec.get("seed", 0), f"{ctx}.seed"))
    if kind == "batchnorm_inf":
        _check_keys(spec, {"gamma", "beta", "running_mean", "running_var",
                           "epsilon"}, ctx)
        return BatchNormInference(
            gamma=_array(_field(spec, "gamma", ctx), f"{ctx}.gamma", base, 1),
            beta=_array(_field(spec, "beta", ctx), f"{ctx}.beta", base, 1),
            running_mean=_array(_field(spec, "running_mean", ctx),
                                f"{ctx}.running_mean", base, 1),
            running_var=_array(_field(spec, "running_var", ctx),
                               f"{ctx}.running_var", base, 1),
            epsilon=_number(spec.get("epsilon", 1e-5), f"{ctx}.epsilon"))
    if kind == "flatten":
        _check_keys(spec, set(), ctx)
        return Flatten()
    if kind == "add":
        _check_keys(spec, set(), ctx)
        return Add()
    if kind == "concat":
        _check_keys(spec, {"axis"}, ctx)
        return Concat(axis=_int(_field(spec, "axis", ctx), f"{ctx}.axis"))
    if kind == "recurrent":
        _check_keys(spec, {"w_hidden", "w_input", "bias", "leakiness", "steps"}, ctx)
        return Recurrent(
            w_hidden=_array(_field(spec, "w_hidden", ctx), f"{ctx}.w_hidden", base, 2),
            w_input=_array(_field(spec, "w_input", ctx), f"{ctx}.w_input", base, 2),
            bias=_array(_field(spec, "bias", ctx), f"{ctx}.bias", base, 1),
            leakiness=_number(spec.get("leakiness", 0.0), f"{ctx}.leakiness"),
            steps=_int(_field(spec, "steps", ctx), f"{ctx}.steps"))
    raise NetworkSchemaError(f"{ctx}.type: unknown layer type {kind!r}")


def parse_network(path) -> Network:
    """Load and validate a network description, resolving weight file
    references relative to the JSON's directory. All schema, graph, and
    shape problems surface as NetworkSchemaError naming the node and
    field; a NaN or inf weight, batch-norm parameter or layer scalar
    raises NonFiniteInput, also naming both, so no later call has to
    scan the weights again."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise NetworkSchemaError(f"{path}: cannot read: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkSchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkSchemaError(f"{path}: top level must be an object")
    unknown = set(doc) - {"input_shape", "nodes", "output"}
    if unknown:
        raise NetworkSchemaError(f"{path}: unknown top-level field "
                                 f"{sorted(unknown)[0]!r}")
    shape = _field(doc, "input_shape", str(path))
    if (not isinstance(shape, list) or not shape
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in shape)):
        raise NetworkSchemaError(f"{path}: input_shape must be a non-empty list "
                                 f"of positive ints, got {shape!r}")
    raw_nodes = _field(doc, "nodes", str(path))
    if not isinstance(raw_nodes, list):
        raise NetworkSchemaError(f"{path}: nodes must be a list")
    nodes = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise NetworkSchemaError(f"nodes[{i}]: must be an object")
        nid = _field(raw, "id", f"nodes[{i}]")
        if not isinstance(nid, str) or not nid:
            raise NetworkSchemaError(f"nodes[{i}].id: must be a non-empty string")
        ctx = f"node {nid!r}"
        _check_keys(raw, {"id", "layer", "inputs"}, ctx)
        inputs = _field(raw, "inputs", ctx)
        if (not isinstance(inputs, list)
                or not all(isinstance(r, str) for r in inputs)):
            raise NetworkSchemaError(f"{ctx}.inputs: must be a list of node ids")
        layer = _parse_layer(_field(raw, "layer", ctx), f"{ctx}: layer",
                             path.parent)
        nodes.append(Node(id=nid, layer=layer, inputs=tuple(inputs)))
    output = _field(doc, "output", str(path))
    if not isinstance(output, str):
        raise NetworkSchemaError(f"{path}: output must be a node id string")
    net = Network(input_shape=tuple(shape), nodes=nodes, output=output)
    try:
        shape_infer(net)
    except (GraphError, ShapeMismatch) as exc:
        raise NetworkSchemaError(str(exc)) from exc
    return net


# ---------------------------------------------------------------------------
# network JSON: writing

def _aspair(v) -> list[int]:
    if np.isscalar(v):
        return [int(v), int(v)]
    return [int(v[0]), int(v[1])]


def _layer_doc(lay, nid: str, sink: dict[str, np.ndarray]) -> dict:
    def store(field: str, arr: np.ndarray):
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", nid)
        fname = f"{safe}_{field}.ten"
        sink[fname] = arr
        return {"file": fname}

    def emit(field: str, arr: np.ndarray):
        if sink is None:
            return np.asarray(arr).tolist()
        return store(field, np.asarray(arr, dtype=np.float64))

    if isinstance(lay, Dense):
        return {"type": "dense", "weights": emit("weights", lay.weights),
                "bias": emit("bias", lay.bias)}
    if isinstance(lay, Conv2D):
        return {"type": "conv2d", "filters": emit("filters", lay.filters),
                "bias": emit("bias", lay.bias), "stride": _aspair(lay.stride),
                "padding": lay.padding}
    if isinstance(lay, Activation):
        return {"type": "activation", "leakiness": lay.leakiness}
    if isinstance(lay, MaxPool):
        doc = {"type": "maxpool", "ksize": _aspair(lay.ksize),
               "padding": lay.padding}
        if lay.stride is not None:
            doc["stride"] = _aspair(lay.stride)
        return doc
    if isinstance(lay, Dropout):
        return {"type": "dropout", "rate": lay.rate,
                "mode": "training" if lay.training else "inference",
                "seed": lay.seed}
    if isinstance(lay, BatchNormInference):
        return {"type": "batchnorm_inf", "gamma": emit("gamma", lay.gamma),
                "beta": emit("beta", lay.beta),
                "running_mean": emit("running_mean", lay.running_mean),
                "running_var": emit("running_var", lay.running_var),
                "epsilon": lay.epsilon}
    if isinstance(lay, Flatten):
        return {"type": "flatten"}
    if isinstance(lay, Add):
        return {"type": "add"}
    if isinstance(lay, Concat):
        return {"type": "concat", "axis": lay.axis}
    if isinstance(lay, Recurrent):
        return {"type": "recurrent", "w_hidden": emit("w_hidden", lay.w_hidden),
                "w_input": emit("w_input", lay.w_input),
                "bias": emit("bias", lay.bias), "leakiness": lay.leakiness,
                "steps": lay.steps}
    raise GraphError(f"node {nid!r}: unknown layer {type(lay).__name__}")


def save_network(net: Network, directory, name: str = "net.json",
                 weights: str = "files") -> Path:
    """Write a network to directory/name, weight arrays as sibling .ten
    files (weights="files") or inline lists (weights="inline"). Output
    bytes are deterministic for a given network."""
    if weights not in ("files", "inline"):
        raise ValueError(f"weights must be 'files' or 'inline', got {weights!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pending: dict[str, np.ndarray] = {} if weights == "files" else None
    doc = {
        "input_shape": list(net.input_shape),
        "nodes": [{"id": n.id,
                   "layer": _layer_doc(n.layer, n.id, pending),
                   "inputs": list(n.inputs)} for n in net.nodes],
        "output": net.output,
    }
    if pending:
        for fname, arr in pending.items():
            write_tensor(directory / fname, arr)
    path = directory / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
