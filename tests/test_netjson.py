"""The network JSON format: every layer type and optional field pinned
as literal documents, the layer table's per-kind checks, weight file
names and numbers too large for float64."""
import dataclasses
import functools
import json
import operator

import numpy as np
import pytest

import cpajvp
from cpajvp import (Dense, NetworkSchemaError, NonFiniteInput, Network, Node,
                    fixtures, forward, parse_network, save_network)
from cpajvp.network import _Layer
from cpajvp.tenio import LAYERS, REQUIRED, write_tensor


def net_doc(tmp_path, doc):
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------------------
# the file format, pinned: every layer type, every optional field

# Conv and max pooling need an NHWC input and the recurrent layer a
# (steps, features) one, so the image graph and the sequence graph are
# two documents. Every optional field is set to a value other than its
# default, and pairs are written as lists, the form save_network writes.
FULL_IMAGE = {
    "input_shape": [1, 2, 2, 1],
    "nodes": [
        {"id": "conv", "inputs": ["input"],
         "layer": {"type": "conv2d", "filters": [[[[1.0, -0.5]]]], "bias": [0.1, -0.2],
                   "stride": [1, 2], "padding": "same"}},
        {"id": "bn", "inputs": ["conv"],
         "layer": {"type": "batchnorm_inf", "gamma": [1.5, 0.5], "beta": [0.1, 0.2],
                   "running_mean": [0.0, 0.1], "running_var": [1.0, 2.0],
                   "epsilon": 0.001}},
        {"id": "act", "inputs": ["bn"], "layer": {"type": "activation", "leakiness": 0.1}},
        {"id": "pool", "inputs": ["act"],
         "layer": {"type": "maxpool", "ksize": [2, 1], "stride": [1, 1],
                   "padding": "same"}},
        {"id": "drop", "inputs": ["pool"],
         "layer": {"type": "dropout", "rate": 0.25, "mode": "training", "seed": 7}},
        {"id": "sum", "inputs": ["drop", "act"], "layer": {"type": "add"}},
        {"id": "cat", "inputs": ["sum", "act"], "layer": {"type": "concat", "axis": -1}},
        {"id": "flat", "inputs": ["cat"], "layer": {"type": "flatten"}},
        {"id": "fc", "inputs": ["flat"],
         "layer": {"type": "dense", "weights": [[1.0, 0.0, -1.0, 0.5, 0.0, 2.0, 0.0, 1.0],
                                                [0.0, 1.0, 0.5, 0.0, -2.0, 0.0, 1.0, 0.0]],
                   "bias": [0.3, -0.3]}},
    ],
    "output": "fc",
}
FULL_SEQUENCE = {
    "input_shape": [2, 2],
    "nodes": [
        {"id": "rnn", "inputs": ["input"],
         "layer": {"type": "recurrent", "w_hidden": [[0.5, -0.1], [0.2, 0.4]],
                   "w_input": [[1.0, 0.0], [0.0, -1.0]], "bias": [0.1, 0.0],
                   "leakiness": 0.2, "steps": 2}},
    ],
    "output": "rnn",
}
# the spec fields each node of the two documents must parse to (arrays
# are checked against the literal lists)
FULL_FIELDS = {
    "conv": {"stride": (1, 2), "padding": "same"},
    "bn": {"epsilon": 0.001},
    "act": {"leakiness": 0.1},
    "pool": {"ksize": (2, 1), "stride": (1, 1), "padding": "same"},
    "drop": {"rate": 0.25, "training": True, "seed": 7},
    "cat": {"axis": -1},
    "rnn": {"leakiness": 0.2, "steps": 2},
}

# the same graphs with every optional field left out
BARE_IMAGE = {
    "input_shape": [1, 2, 2, 1],
    "nodes": [
        {"id": "conv", "inputs": ["input"],
         "layer": {"type": "conv2d", "filters": [[[[1.0, -0.5]]]], "bias": [0.1, -0.2]}},
        {"id": "bn", "inputs": ["conv"],
         "layer": {"type": "batchnorm_inf", "gamma": [1.5, 0.5], "beta": [0.1, 0.2],
                   "running_mean": [0.0, 0.1], "running_var": [1.0, 2.0]}},
        {"id": "act", "inputs": ["bn"], "layer": {"type": "activation"}},
        {"id": "pool", "inputs": ["act"], "layer": {"type": "maxpool", "ksize": [2, 2]}},
        {"id": "drop", "inputs": ["pool"], "layer": {"type": "dropout", "rate": 0.25}},
        {"id": "flat", "inputs": ["drop"], "layer": {"type": "flatten"}},
    ],
    "output": "flat",
}
BARE_SEQUENCE = {
    "input_shape": [2, 2],
    "nodes": [
        {"id": "rnn", "inputs": ["input"],
         "layer": {"type": "recurrent", "w_hidden": [[0.5, -0.1], [0.2, 0.4]],
                   "w_input": [[1.0, 0.0], [0.0, -1.0]], "bias": [0.1, 0.0],
                   "steps": 2}},
    ],
    "output": "rnn",
}
BARE_FIELDS = {
    "conv": {"stride": (1, 1), "padding": "valid"},
    "bn": {"epsilon": 1e-5},
    "act": {"leakiness": 0.0},
    "pool": {"ksize": (2, 2), "stride": None, "padding": "valid"},
    "drop": {"rate": 0.25, "training": False, "seed": 0},
    "rnn": {"leakiness": 0.0, "steps": 2},
}
# what save_network writes for the omitted fields: all but pool's stride
BARE_WRITTEN = {
    "conv": {"stride": [1, 1], "padding": "valid"},
    "bn": {"epsilon": 1e-5},
    "act": {"leakiness": 0.0},
    "pool": {"padding": "valid"},
    "drop": {"mode": "inference", "seed": 0},
    "rnn": {"leakiness": 0.0},
}


def check_fields(net, doc, fields):
    layers = {n.id: n.layer for n in net.nodes}
    for node in doc["nodes"]:
        lay = layers[node["id"]]
        for key, value in node["layer"].items():
            if isinstance(value, list) and key not in ("stride", "ksize"):
                arr = getattr(lay, key)
                assert arr.dtype == np.float64, (node["id"], key)
                assert np.array_equal(arr, np.asarray(value)), (node["id"], key)
    for nid, expected in fields.items():
        if nid in layers:
            for attr, value in expected.items():
                assert getattr(layers[nid], attr) == value, (nid, attr)
                assert type(getattr(layers[nid], attr)) is type(value), (nid, attr)


@pytest.mark.parametrize("doc", [FULL_IMAGE, FULL_SEQUENCE], ids=["image", "sequence"])
def test_every_optional_field_parses_and_writes_back(tmp_path, doc):
    net = parse_network(net_doc(tmp_path, doc))
    assert len(net.nodes) == len(doc["nodes"])
    check_fields(net, doc, FULL_FIELDS)
    out = tmp_path / "saved"
    save_network(net, out, weights="inline")
    assert sorted(p.name for p in out.iterdir()) == ["net.json"]
    assert json.loads((out / "net.json").read_text()) == doc


@pytest.mark.parametrize("doc", [BARE_IMAGE, BARE_SEQUENCE], ids=["image", "sequence"])
def test_omitted_optional_fields_take_their_defaults(tmp_path, doc):
    net = parse_network(net_doc(tmp_path, doc))
    check_fields(net, doc, BARE_FIELDS)
    save_network(net, tmp_path / "saved", weights="inline")
    written = json.loads((tmp_path / "saved" / "net.json").read_text())
    expected = json.loads(json.dumps(doc))
    for node in expected["nodes"]:
        node["layer"].update(BARE_WRITTEN.get(node["id"], {}))
    assert written == expected


def test_every_layer_type_is_pinned():
    types = {n["layer"]["type"] for d in (FULL_IMAGE, FULL_SEQUENCE) for n in d["nodes"]}
    assert types == set(LAYERS)


# ---------------------------------------------------------------------------
# the layer table: one entry per spec, and the reader's checks per kind

def edited(type_name, edit):
    """A copy of the pinned document that holds the given layer type,
    with edit applied to that layer's object, and the node's id."""
    for doc in (FULL_IMAGE, FULL_SEQUENCE):
        for i, node in enumerate(doc["nodes"]):
            if node["layer"]["type"] == type_name:
                copy = json.loads(json.dumps(doc))
                edit(copy["nodes"][i]["layer"])
                return copy, node["id"]
    raise AssertionError(type_name)


def layer_cases(wanted):
    return [pytest.param(name, key, id=f"{name}.{key}")
            for name, (_, fields) in LAYERS.items()
            for key, kind, default in fields if wanted(kind, default)]


def assert_rejected(tmp_path, doc, nid, field):
    with pytest.raises(NetworkSchemaError) as info:
        parse_network(net_doc(tmp_path, doc))
    assert f"node {nid!r}" in str(info.value)
    assert field in str(info.value)


def test_every_exported_spec_has_one_table_entry():
    specs = {v for v in vars(cpajvp).values()
             if isinstance(v, type) and issubclass(v, _Layer)}
    in_table = [cls for cls, _ in LAYERS.values()]
    assert sorted(c.__name__ for c in in_table) == sorted(c.__name__ for c in specs)
    assert len(set(in_table)) == len(in_table)


@pytest.mark.parametrize("name,key", layer_cases(lambda k, d: d is REQUIRED))
def test_missing_required_field_is_named(tmp_path, name, key):
    doc, nid = edited(name, lambda lay: lay.pop(key))
    assert_rejected(tmp_path, doc, nid, key)


@pytest.mark.parametrize("name", list(LAYERS))
def test_unknown_field_is_named(tmp_path, name):
    doc, nid = edited(name, lambda lay: lay.update(colour="blue"))
    assert_rejected(tmp_path, doc, nid, "colour")


@pytest.mark.parametrize("name,key", layer_cases(lambda k, d: isinstance(k, int)))
def test_wrong_array_rank_is_named(tmp_path, name, key):
    doc, nid = edited(name, lambda lay: lay.update({key: [lay[key]]}))
    assert_rejected(tmp_path, doc, nid, key)


@pytest.mark.parametrize("name,key", layer_cases(lambda k, d: k == "pair"))
@pytest.mark.parametrize("bad", [[1, 2, 3], [1.0, 2.0], True, "2"],
                         ids=["three", "floats", "bool", "string"])
def test_bad_pair_is_named(tmp_path, name, key, bad):
    doc, nid = edited(name, lambda lay: lay.update({key: bad}))
    assert_rejected(tmp_path, doc, nid, key)


@pytest.mark.parametrize("name,key", layer_cases(lambda k, d: k in ("padding", "mode")))
@pytest.mark.parametrize("bad", ["full", "eval", 1, None],
                         ids=["full", "eval", "int", "null"])
def test_bad_padding_or_mode_is_named(tmp_path, name, key, bad):
    doc, nid = edited(name, lambda lay: lay.update({key: bad}))
    assert_rejected(tmp_path, doc, nid, key)


def test_spec_subclass_saves_as_its_base_kind(tmp_path):
    class ScaledDense(Dense):
        pass

    net = Network((3,), [Node("fc", ScaledDense(np.eye(3), np.zeros(3)), ["input"])],
                  "fc")
    save_network(net, tmp_path, weights="inline")
    doc = json.loads((tmp_path / "net.json").read_text())
    assert doc["nodes"][0]["layer"]["type"] == "dense"
    assert type(parse_network(tmp_path / "net.json").nodes[0].layer) is Dense


# ---------------------------------------------------------------------------
# the document and node objects: each schema error names the node or field

MISSING = object()


def changed(path, value):
    """A copy of the pinned image document with the entry at path (keys
    and list indices) set to value, or removed for MISSING; the empty
    path replaces the whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(FULL_IMAGE))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    return doc


# node 2 is 'act', node 8 'fc'; a node's index names it until its id is read
DOCUMENT_ERRORS = [
    pytest.param((), [FULL_IMAGE], ["net.json"], id="top-level-list"),
    pytest.param(("input_shape",), MISSING, ["input_shape"], id="input_shape-missing"),
    pytest.param(("input_shape",), [], ["input_shape"], id="input_shape-empty"),
    pytest.param(("input_shape", 1), 0, ["input_shape"], id="input_shape-zero"),
    pytest.param(("input_shape", 1), True, ["input_shape"], id="input_shape-bool"),
    pytest.param(("input_shape", 1), 2.5, ["input_shape"], id="input_shape-float"),
    pytest.param(("nodes",), {"id": "conv"}, ["nodes"], id="nodes-object"),
    pytest.param(("nodes", 2), ["act"], ["nodes[2]"], id="node-list"),
    pytest.param(("nodes", 2, "id"), MISSING, ["nodes[2]", "id"], id="id-missing"),
    pytest.param(("nodes", 2, "id"), "", ["nodes[2]", "id"], id="id-empty"),
    pytest.param(("nodes", 2, "id"), 7, ["nodes[2]", "id"], id="id-int"),
    pytest.param(("nodes", 2, "inputs"), "bn", ["node 'act'", "inputs"], id="inputs-string"),
    pytest.param(("nodes", 2, "inputs", 0), 1, ["node 'act'", "inputs"], id="inputs-int"),
    pytest.param(("nodes", 2, "colour"), "blue", ["node 'act'", "colour"],
                 id="node-unknown-field"),
    pytest.param(("nodes", 2, "layer"), "activation", ["node 'act'", "layer"],
                 id="layer-string"),
    pytest.param(("output",), ["fc"], ["output"], id="output-list"),
    pytest.param(("output",), MISSING, ["output"], id="output-missing"),
    pytest.param(("nodes", 8, "layer", "bias"), {"file": 3}, ["node 'fc'", "bias", "file"],
                 id="file-int"),
]


@pytest.mark.parametrize("path,value,names", DOCUMENT_ERRORS)
def test_document_and_node_errors_are_named(tmp_path, path, value, names):
    with pytest.raises(NetworkSchemaError) as info:
        parse_network(net_doc(tmp_path, changed(path, value)))
    for name in names:
        assert name in str(info.value)


def test_a_file_reference_with_an_unknown_key_is_refused(tmp_path):
    write_tensor(tmp_path / "bias.ten", np.array([0.3, -0.3]))
    doc = changed(("nodes", 8, "layer", "bias"), {"file": "bias.ten"})
    assert np.array_equal(parse_network(net_doc(tmp_path, doc)).nodes[8].layer.bias,
                          [0.3, -0.3])
    doc = changed(("nodes", 8, "layer", "bias"), {"file": "bias.ten", "dtype": "<f8"})
    assert_rejected(tmp_path, doc, "fc", "dtype")


# ---------------------------------------------------------------------------
# weight file names

def test_colliding_node_ids_keep_their_own_weight_files(tmp_path):
    rng = np.random.default_rng(3)
    ids = ["a/b", "a_b", "A_B", "a_b_1"]
    nodes, prev = [], "input"
    for nid in ids:
        nodes.append(Node(nid, Dense(rng.standard_normal((3, 3)),
                                     rng.standard_normal(3)), [prev]))
        prev = nid
    net = Network((3,), nodes, prev)
    save_network(net, tmp_path, weights="files")
    doc = json.loads((tmp_path / "net.json").read_text())
    names = [n["layer"][k]["file"] for n in doc["nodes"] for k in ("weights", "bias")]
    assert names == ["a_b_weights.ten", "a_b_bias.ten",
                     "a_b_1_weights.ten", "a_b_1_bias.ten",
                     "A_B_2_weights.ten", "A_B_2_bias.ten",
                     "a_b_1_3_weights.ten", "a_b_1_3_bias.ten"]
    assert len({n.lower() for n in names}) == len(names)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["net.json"])
    back = parse_network(tmp_path / "net.json")
    x = rng.standard_normal(3)
    assert np.array_equal(forward(back, x), forward(net, x))
    for mine, theirs in zip(net.nodes, back.nodes):
        assert np.array_equal(mine.layer.weights, theirs.layer.weights), mine.id


@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_nets_without_a_collision_keep_their_file_names(tmp_path, arch):
    net, _ = fixtures.generate(arch, 2)
    save_network(net, tmp_path)
    expected = {f"{n.id}_{f.name}.ten" for n in net.nodes
                for f in dataclasses.fields(n.layer)
                if isinstance(getattr(n.layer, f.name), np.ndarray)}
    assert {p.name for p in tmp_path.iterdir()} == expected | {"net.json"}


def test_integer_too_large_for_float64_is_non_finite(tmp_path):
    doc = json.loads(json.dumps(FULL_IMAGE))
    text = json.dumps(doc).replace('"leakiness": 0.1', '"leakiness": 1' + "0" * 400)
    (tmp_path / "net.json").write_text(text)
    with pytest.raises(NonFiniteInput, match="node 'act'.*leakiness"):
        parse_network(tmp_path / "net.json")
    text = json.dumps(doc).replace('"bias": [0.3, -0.3]', '"bias": [1' + "0" * 400 + ', 0.0]')
    (tmp_path / "net.json").write_text(text)
    with pytest.raises(NonFiniteInput, match="node 'fc'.*bias"):
        parse_network(tmp_path / "net.json")


def test_an_int_pair_reads_as_two_equal_ints(tmp_path):
    doc, _ = edited("maxpool", lambda lay: lay.update(ksize=2, stride=1))
    pool = parse_network(net_doc(tmp_path, doc)).nodes[3].layer
    assert (pool.ksize, pool.stride) == ((2, 2), (1, 1))
    save_network(parse_network(net_doc(tmp_path, doc)), tmp_path / "saved", weights="inline")
    written = json.loads((tmp_path / "saved" / "net.json").read_text())
    assert written["nodes"][3]["layer"] == {"type": "maxpool", "ksize": [2, 2],
                                            "stride": [1, 1], "padding": "same"}
