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
from .numerics import NonFiniteInput

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
# network JSON: one table of layer kinds

REQUIRED = object()  # the default of a field that every layer of its kind sets

# JSON type -> (spec class, fields as (JSON key, kind, default)). A kind
# is an array's rank, "number", "int", "pair" (an int or two), "padding"
# or "mode". A JSON key is also the spec attribute, except that dropout's
# "mode" holds its ``training`` flag. Defaults are spec values.
LAYERS = {
    "dense": (Dense, (("weights", 2, REQUIRED), ("bias", 1, REQUIRED))),
    "conv2d": (Conv2D, (("filters", 4, REQUIRED), ("bias", 1, REQUIRED),
                        ("stride", "pair", (1, 1)), ("padding", "padding", "valid"))),
    "activation": (Activation, (("leakiness", "number", 0.0),)),
    "maxpool": (MaxPool, (("ksize", "pair", REQUIRED), ("stride", "pair", None),
                          ("padding", "padding", "valid"))),
    "dropout": (Dropout, (("rate", "number", REQUIRED), ("mode", "mode", False),
                          ("seed", "int", 0))),
    "batchnorm_inf": (BatchNormInference, (
        ("gamma", 1, REQUIRED), ("beta", 1, REQUIRED), ("running_mean", 1, REQUIRED),
        ("running_var", 1, REQUIRED), ("epsilon", "number", 1e-5))),
    "flatten": (Flatten, ()),
    "add": (Add, ()),
    "concat": (Concat, (("axis", "int", REQUIRED),)),
    "recurrent": (Recurrent, (
        ("w_hidden", 2, REQUIRED), ("w_input", 2, REQUIRED), ("bias", 1, REQUIRED),
        ("leakiness", "number", 0.0), ("steps", "int", REQUIRED))),
}
_TYPE_OF = {cls: name for name, (cls, _) in LAYERS.items()}
_CHOICES = {"padding": ("same", "valid"), "mode": ("inference", "training")}
_ATTR = {"mode": "training"}  # JSON keys that differ from the spec attribute


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
        except OverflowError:
            raise NonFiniteInput(f"{ctx} holds a number too large for "
                                 "float64") from None
        except (TypeError, ValueError) as exc:
            raise NetworkSchemaError(f"{ctx}: not a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise NetworkSchemaError(f"{ctx}: expected {ndim}-d array, got "
                                 f"{arr.ndim}-d of shape {arr.shape}")
    return arr


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _value(kind, v, ctx: str, base: Path):
    """Read one present field of the given kind; ctx names node and field."""
    if isinstance(kind, int):
        return _array(v, ctx, base, kind)
    if kind == "number":
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise NetworkSchemaError(f"{ctx}: expected a number, got {v!r}")
        return float(_array(v, ctx, base, 0))  # Network.plan checks it is finite
    if kind == "int":
        if not _is_int(v):
            raise NetworkSchemaError(f"{ctx}: expected an integer, got {v!r}")
        return v
    if kind == "pair":
        if _is_int(v):
            return (v, v)
        if isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)):
            return (v[0], v[1])
        raise NetworkSchemaError(f"{ctx}: expected an int or a pair, got {v!r}")
    a, b = _CHOICES[kind]
    if v not in (a, b):
        raise NetworkSchemaError(f"{ctx}: expected {a!r} or {b!r}, got {v!r}")
    return v == "training" if kind == "mode" else v


def _check_keys(obj: dict, allowed: set[str], ctx: str) -> None:
    unknown = set(obj) - allowed - {"type"}
    if unknown:
        raise NetworkSchemaError(f"{ctx}: unknown field {sorted(unknown)[0]!r}")


def _parse_layer(spec: dict, ctx: str, base: Path):
    if not isinstance(spec, dict):
        raise NetworkSchemaError(f"{ctx}: layer must be an object, got "
                                 f"{type(spec).__name__}")
    name = _field(spec, "type", ctx)
    if not isinstance(name, str) or name not in LAYERS:
        raise NetworkSchemaError(f"{ctx}.type: unknown layer type {name!r}")
    cls, fields = LAYERS[name]
    _check_keys(spec, {key for key, _, _ in fields}, ctx)
    args = {}
    for key, kind, default in fields:
        if key in spec:
            args[_ATTR.get(key, key)] = _value(kind, spec[key], f"{ctx}.{key}", base)
        elif default is REQUIRED:
            raise NetworkSchemaError(f"{ctx}: missing field {key!r}")
        else:
            args[_ATTR.get(key, key)] = default
    return cls(**args)


def parse_network(path) -> Network:
    """Load and validate a network description, resolving weight file
    references relative to the JSON's directory. All schema, graph, and
    shape problems surface as NetworkSchemaError naming the node and
    field (a NaN dropout rate is out of range); a NaN or inf weight
    array or layer scalar raises NonFiniteInput, also naming both,
    through the plan that loading builds."""
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
            or not all(_is_int(d) and d >= 1 for d in shape)):
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

def _layer_doc(lay, nid: str, store) -> dict:
    """The layer's JSON object; ``store(key, array)`` gives an array
    field's JSON value. A subclass of a spec saves as its base kind."""
    name = next((_TYPE_OF[c] for c in type(lay).__mro__ if c in _TYPE_OF), None)
    if name is None:
        raise GraphError(f"node {nid!r}: unknown layer {type(lay).__name__}")
    doc = {"type": name}
    for key, kind, _ in LAYERS[name][1]:
        v = getattr(lay, _ATTR.get(key, key))
        if v is None:
            continue
        if isinstance(kind, int):
            v = store(key, v)
        elif kind == "pair":
            v = [int(v), int(v)] if np.isscalar(v) else [int(v[0]), int(v[1])]
        elif kind == "mode":
            v = "training" if v else "inference"
        doc[key] = v
    return doc


def save_network(net: Network, directory, weights: str = "files") -> Path:
    """Write a network to directory/net.json, weight arrays as sibling
    .ten files (weights="files") or inline lists (weights="inline").
    Output bytes are deterministic for a given network. A weight file is
    <id>_<key>.ten, each id character outside [A-Za-z0-9_.-] made "_";
    while that name, ignoring case, is taken by an earlier file, the
    node's index in net.nodes is appended to the id part."""
    if weights not in ("files", "inline"):
        raise ValueError(f"weights must be 'files' or 'inline', got {weights!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pending: dict[str, np.ndarray] = {}
    taken: set[str] = set()
    nodes = []
    for i, n in enumerate(net.nodes):
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", n.id)

        def store(key, arr):
            if weights == "inline":
                return np.asarray(arr).tolist()
            stem = safe
            while f"{stem}_{key}.ten".lower() in taken:
                stem += f"_{i}"
            fname = f"{stem}_{key}.ten"
            taken.add(fname.lower())
            pending[fname] = np.asarray(arr, dtype=np.float64)
            return {"file": fname}

        nodes.append({"id": n.id, "layer": _layer_doc(n.layer, n.id, store),
                      "inputs": list(n.inputs)})
    doc = {"input_shape": list(net.input_shape), "nodes": nodes, "output": net.output}
    for fname, arr in pending.items():
        write_tensor(directory / fname, arr)
    path = directory / "net.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
