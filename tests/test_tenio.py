import json
import struct
from decimal import Decimal

import numpy as np
import pytest

from cpajvp import (Activation, Concat, Dense, Dropout, Network, NetworkSchemaError, Node,
                    NonFiniteInput, TensorFormatError, fixtures, forward, parse_network,
                    read_tensor, save_network, write_tensor)
from cpajvp.tenio import MAGIC


# ---------------------------------------------------------------------------
# .ten tensors

def test_tensor_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(1,), (7,), (3, 4), (2, 3, 4, 5), (1, 1, 1)]:
        arr = rng.standard_normal(shape)
        p = tmp_path / "t.ten"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64


def test_tensor_round_trip_non_contiguous(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)[::2, ::3]
    p = tmp_path / "t.ten"
    write_tensor(p, arr)
    assert np.array_equal(read_tensor(p), arr)


def test_tensor_scalar_written_as_length_one(tmp_path):
    p = tmp_path / "t.ten"
    write_tensor(p, np.float64(3.5))
    back = read_tensor(p)
    assert back.shape == (1,)
    assert back[0] == 3.5


def test_tensor_layout_is_exactly_documented(tmp_path):
    arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    p = tmp_path / "t.ten"
    write_tensor(p, arr)
    raw = p.read_bytes()
    assert raw[:4] == MAGIC == b"TEN1"
    assert struct.unpack_from("<I", raw, 4)[0] == 2
    assert struct.unpack_from("<2Q", raw, 8) == (2, 3)
    payload = np.frombuffer(raw, dtype="<f8", offset=24)
    assert np.array_equal(payload, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert len(raw) == 24 + 6 * 8


def test_tensor_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.ten"
    write_tensor(good, np.ones((2, 2)))
    raw = good.read_bytes()

    bad = tmp_path / "bad.ten"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(bad)

    bad.write_bytes(raw[:6])
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor(bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(bad)

    bad.write_bytes(raw + b"\x00" * 8)  # trailing bytes are an error
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(bad)

    bad.write_bytes(raw[:4] + struct.pack("<I", 40) + raw[8:])
    with pytest.raises(TensorFormatError, match="ndim"):
        read_tensor(bad)

    bad.write_bytes(raw[:8] + struct.pack("<2Q", 0, 2) + raw[24:])
    with pytest.raises(TensorFormatError, match="non-positive"):
        read_tensor(bad)


def test_tensor_rejects_empty_shapes(tmp_path):
    with pytest.raises(TensorFormatError, match="empty"):
        write_tensor(tmp_path / "e.ten", np.zeros((2, 0)))


# ---------------------------------------------------------------------------
# network JSON

def net_doc(tmp_path, doc, name="net.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


MINIMAL = {
    "input_shape": [3],
    "nodes": [
        {"id": "fc", "layer": {"type": "dense",
                               "weights": [[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]],
                               "bias": [0.0, -1.0]},
         "inputs": ["input"]},
    ],
    "output": "fc",
}


def test_parse_minimal_network(tmp_path):
    net = parse_network(net_doc(tmp_path, MINIMAL))
    assert len(net.nodes) == 1
    assert net.input_shape == (3,)
    out = forward(net, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, [7.0, 1.5])


def test_parse_resolves_weight_files_relative_to_json(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    write_tensor(sub / "w.ten", np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]]))
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["layer"]["weights"] = {"file": "w.ten"}
    net = parse_network(net_doc(sub, doc))
    inline = parse_network(net_doc(tmp_path, MINIMAL))
    x = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(forward(net, x), forward(inline, x))


def test_parse_errors_carry_node_and_field(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["layer"]["type"] = "residual-gate"
    with pytest.raises(NetworkSchemaError, match="residual-gate"):
        parse_network(net_doc(tmp_path, doc))

    doc = json.loads(json.dumps(MINIMAL))
    del doc["nodes"][0]["layer"]["bias"]
    with pytest.raises(NetworkSchemaError, match="(?s)fc.*bias"):
        parse_network(net_doc(tmp_path, doc))

    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["layer"]["weights"] = {"file": "missing.ten"}
    with pytest.raises(NetworkSchemaError, match="missing.ten"):
        parse_network(net_doc(tmp_path, doc))

    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["layer"]["voltage"] = 11
    with pytest.raises(NetworkSchemaError, match="voltage"):
        parse_network(net_doc(tmp_path, doc))

    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = "adam"
    with pytest.raises(NetworkSchemaError, match="solver"):
        parse_network(net_doc(tmp_path, doc))


def test_parse_rejects_shape_inconsistency_with_node_name(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_shape"] = [4]
    with pytest.raises(NetworkSchemaError, match="fc"):
        parse_network(net_doc(tmp_path, doc))


def test_parse_rejects_bad_json_and_missing_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(NetworkSchemaError, match="invalid JSON"):
        parse_network(p)
    with pytest.raises(NetworkSchemaError, match="cannot read"):
        parse_network(tmp_path / "ghost.json")


def test_save_parse_round_trip_both_weight_modes(tmp_path):
    for arch in fixtures.ARCHITECTURES:
        net, x = fixtures.generate(arch, 1)
        for mode in ("files", "inline"):
            d = tmp_path / f"{arch}-{mode}"
            d.mkdir()
            save_network(net, d, weights=mode)
            back = parse_network(d / "net.json")
            assert np.array_equal(forward(back, x), forward(net, x)), (arch, mode)


def _scalar_field_net(case):
    """A 4 -> 3 Dense stem and one layer whose scalar field is a numpy
    scalar ("shape": the input shape is), or, for "decimal-seed", a
    number that JSON cannot hold."""
    rng = np.random.default_rng(7)
    dense = lambda: Dense(rng.standard_normal((3, 4)), rng.standard_normal(3))
    nodes = [Node("fc", dense(), ("input",))]
    if case == "concat":
        nodes += [Node("fc_b", dense(), ("input",)),
                  Node("top", Concat(np.int64(0)), ("fc", "fc_b"))]
    else:
        layer = {"dropout": Dropout(0.3, True, np.int64(3)),
                 "decimal-seed": Dropout(0.3, True, Decimal(3)),
                 "activation": Activation(np.float32(0.1)), "shape": Activation(0.2)}[case]
        nodes.append(Node("top", layer, ("fc",)))
    return Network((np.int64(4),) if case == "shape" else (4,), nodes, "top")


@pytest.mark.parametrize("case", ["dropout", "concat", "activation", "shape"])
@pytest.mark.parametrize("mode", ["files", "inline"])
def test_numpy_scalar_fields_round_trip(tmp_path, case, mode):
    net = _scalar_field_net(case)
    x = np.linspace(-1.0, 1.0, 4)
    save_network(net, tmp_path, weights=mode)
    back = parse_network(tmp_path / "net.json")
    assert forward(back, x).tobytes() == forward(net, x).tobytes()
    doc = json.loads((tmp_path / "net.json").read_text())
    assert doc["input_shape"] == [4]
    assert {k: v for k, v in doc["nodes"][-1]["layer"].items() if k != "type"} == {
        "dropout": {"rate": 0.3, "mode": "training", "seed": 3}, "concat": {"axis": 0},
        "activation": {"leakiness": float(np.float32(0.1))},
        "shape": {"leakiness": 0.2}}[case]


def test_a_network_that_cannot_be_saved_leaves_no_file(tmp_path):
    net = _scalar_field_net("decimal-seed")
    forward(net, np.ones(4))  # it runs
    with pytest.raises(NetworkSchemaError, match="expected an integer"):
        save_network(net, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(NetworkSchemaError, match="expected an integer"):
        save_network(net, tmp_path)  # a directory that exists gets no weight file
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [1.0, True], ids=["float", "bool"])
def test_a_seed_the_reader_refuses_is_refused_before_any_file(tmp_path, seed):
    # the network runs, but parse_network would refuse its saved seed; int()
    # would change the dropout stream, which the seed's text keys
    stem = _scalar_field_net("dropout").nodes[0]
    net = Network((4,), [stem, Node("top", Dropout(0.3, True, seed), ("fc",))], "top")
    forward(net, np.ones(4))
    with pytest.raises(NetworkSchemaError) as saved:
        save_network(net, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # the reader's message for the same field, which names node and field
    save_network(_scalar_field_net("dropout"), tmp_path / "ok", weights="inline")
    doc = json.loads((tmp_path / "ok" / "net.json").read_text())
    doc["nodes"][-1]["layer"]["seed"] = seed
    (tmp_path / "ok" / "net.json").write_text(json.dumps(doc))
    with pytest.raises(NetworkSchemaError) as read:
        parse_network(tmp_path / "ok" / "net.json")
    assert str(saved.value) == str(read.value) == (
        f"node 'top'.layer.seed: expected an integer, got {seed!r}")


def test_save_is_deterministic(tmp_path):
    net, _ = fixtures.generate("cnn", 5)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    save_network(net, d1)
    save_network(net, d2)
    f1 = sorted(p.name for p in d1.iterdir())
    f2 = sorted(p.name for p in d2.iterdir())
    assert f1 == f2
    for name in f1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_saved_json_mentions_no_absolute_paths(tmp_path):
    net, _ = fixtures.generate("mlp", 2)
    d = tmp_path / "n"
    d.mkdir()
    save_network(net, d, weights="files")
    text = (d / "net.json").read_text()
    assert str(d) not in text
    doc = json.loads(text)
    assert set(doc) == {"input_shape", "nodes", "output"}


def test_parse_rejects_non_finite_weights_once(tmp_path):
    net, _ = fixtures.generate("mlp", 3)
    save_network(net, tmp_path)
    doc = json.loads((tmp_path / "net.json").read_text())
    ref = doc["nodes"][0]["layer"]["weights"]["file"]
    w = read_tensor(tmp_path / ref)
    w[1, 0] = np.inf
    write_tensor(tmp_path / ref, w)
    with pytest.raises(NonFiniteInput, match=doc["nodes"][0]["id"]):
        parse_network(tmp_path / "net.json")
    # inline arrays and scalars are checked too; JSON accepts NaN literals
    inline = {"input_shape": [2], "output": "fc", "nodes": [
        {"id": "fc", "inputs": ["input"],
         "layer": {"type": "dense", "weights": [[1.0, float("nan")]], "bias": [0.0]}}]}
    (tmp_path / "inline.json").write_text(json.dumps(inline))
    with pytest.raises(NonFiniteInput, match="weights"):
        parse_network(tmp_path / "inline.json")
    inline["nodes"][0]["layer"]["weights"] = [[1.0, 2.0]]
    inline["nodes"].append({"id": "act", "inputs": ["fc"],
                            "layer": {"type": "activation", "leakiness": float("inf")}})
    inline["output"] = "act"
    (tmp_path / "inline.json").write_text(json.dumps(inline))
    with pytest.raises(NonFiniteInput, match="leakiness"):
        parse_network(tmp_path / "inline.json")
