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
import operator
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
# network JSON: field tables

REQUIRED = object()  # the default of a field that every object of its kind sets

# JSON type -> (spec class, fields as (JSON key, kind, default)). A kind
# is an array's rank, "number", "int", "pair" (an int or two), "shape"
# (positive ints), "name" (a non-empty string), "names", "nodes",
# "layer" or a key of _CHOICES. A JSON key is also the spec attribute,
# except that dropout's "mode" holds its ``training`` flag. Defaults are
# spec values.
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
# the document, a node (its "id", once read, names it in later messages),
# and a weight array's file reference, in the same form
DOCUMENT = (("input_shape", "shape", REQUIRED), ("nodes", "nodes", REQUIRED),
            ("output", "name", REQUIRED))
NODE = (("id", "name", REQUIRED), ("inputs", "names", REQUIRED),
        ("layer", "layer", REQUIRED))
FILE_REF = (("file", "name", REQUIRED),)
_TYPE_OF = {cls: name for name, (cls, _) in LAYERS.items()}
_CHOICES = {"padding": ("same", "valid"), "mode": ("inference", "training"),
            "type": tuple(LAYERS)}
_ATTR = {"mode": "training"}  # JSON keys that differ from the spec attribute


# ---------------------------------------------------------------------------
# network JSON: reading

def _read(obj, fields, ctx: str, base: Path) -> dict:
    """A JSON object's fields, each read by its kind and an absent one
    set to its default; refuses a value that is not an object, a missing
    required field and an unknown field."""
    if not isinstance(obj, dict):
        raise NetworkSchemaError(f"{ctx}: expected an object, got {type(obj).__name__}")
    out = {}
    for key, kind, default in fields:
        if key in obj:
            out[key] = _value(kind, obj[key], f"{ctx}.{key}", base)
        elif default is REQUIRED:
            raise NetworkSchemaError(f"{ctx}: missing field {key!r}")
        else:
            out[key] = default
        if key == "id":
            ctx = f"node {out[key]!r}"
    unknown = set(obj) - {key for key, _, _ in fields}
    if unknown:
        raise NetworkSchemaError(f"{ctx}: unknown field {sorted(unknown)[0]!r}")
    return out


def _array(value, ctx: str, base: Path, ndim: int) -> np.ndarray:
    if isinstance(value, dict):
        path = base / _read(value, FILE_REF, ctx, base)["file"]
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
    if kind == "shape":
        if isinstance(v, list) and v and all(_is_int(d) and d >= 1 for d in v):
            return tuple(v)
        raise NetworkSchemaError(f"{ctx}: expected a non-empty list of positive "
                                 f"ints, got {v!r}")
    if kind == "name":
        if isinstance(v, str) and v:
            return v
        raise NetworkSchemaError(f"{ctx}: expected a non-empty string, got {v!r}")
    if kind in ("names", "nodes"):
        if not isinstance(v, list):
            raise NetworkSchemaError(f"{ctx}: expected a list, got {type(v).__name__}")
        if kind == "names":
            return tuple(_value("name", r, f"{ctx}[{i}]", base) for i, r in enumerate(v))
        return [Node(**_read(r, NODE, f"nodes[{i}]", base)) for i, r in enumerate(v)]
    if kind == "layer":
        name = v.get("type") if isinstance(v, dict) else None
        # a missing or unknown type fails in _read, before cls is used
        cls, fields = LAYERS[name] if name in _CHOICES["type"] else (None, ())
        args = _read(v, (("type", "type", REQUIRED),) + fields, ctx, base)
        return cls(**{_ATTR.get(key, key): args[key] for key, _, _ in fields})
    choices = _CHOICES[kind]
    if v not in choices:
        raise NetworkSchemaError(f"{ctx}: expected one of {', '.join(map(repr, choices))}, "
                                 f"got {v!r}")
    return v == "training" if kind == "mode" else v


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
    net = Network(**_read(doc, DOCUMENT, str(path), path.parent))
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
        elif kind in ("int", "number"):  # json writes a numpy scalar's number
            v = v.item() if isinstance(v, np.generic) else v
            _value(kind, v, f"node {nid!r}.layer.{key}", None)  # refuse what load refuses
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
    node's index in net.nodes is appended to the id part. A network that
    cannot be written leaves no file."""
    if weights not in ("files", "inline"):
        raise ValueError(f"weights must be 'files' or 'inline', got {weights!r}")
    directory = Path(directory)
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
    text = json.dumps({"input_shape": list(map(operator.index, net.input_shape)),
                       "nodes": nodes, "output": net.output}, indent=1, sort_keys=True) + "\n"
    directory.mkdir(parents=True, exist_ok=True)
    for fname, arr in pending.items():
        write_tensor(directory / fname, arr)
    path = directory / "net.json"
    path.write_text(text)
    return path
