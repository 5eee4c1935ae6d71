"""Each recorded nonlinearity replays as one multiply by its stored
factor: bit for bit the masked formula it replaces, sign of zero
included; the factors agree with the recorded masks; no pass writes
into a caller's array or a weight; and in-memory weights and layer
scalars are checked for NaN and inf once, when the plan is built, as
is a batch norm's running_var + epsilon for a positive root."""
import dataclasses
import json

import numpy as np
import pytest

import nets
from cpajvp import (Activation, BatchNormInference, Dense, Dropout, Network, Node,
                    NonFiniteInput, Recurrent, ShapeMismatch, fixtures, forward,
                    frobenius_norm_mc, frozen_forward, frozen_vjp, jvp_input, jvp_weight,
                    materialize_affine_direct, materialize_affine_via_rop,
                    probe_from_network, record_states, region_equal,
                    strategy_batch_jacobian, strategy_clone, strategy_double_vjp,
                    top_k_eigen, top_k_svd, trace_mc, vjp_input)
from cpajvp import GraphError, NetworkSchemaError, parse_network, write_tensor
from cpajvp.cli import main
from cpajvp.network import _forward_pass, _transposed_pass

LEAKS = (0.0, 0.1, 0.3, -1.0)
ROWS = 320


def with_zeros(a, seed):
    """a with about a tenth of its entries -0.0 and a twentieth +0.0."""
    rng = np.random.default_rng(seed)
    a = a.copy()
    a[rng.random(a.shape) < 0.1] = -0.0
    a[rng.random(a.shape) < 0.05] = 0.0
    return a


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


def leaky(mask, h, leak):
    return np.where(mask, h, h * leak)


@pytest.mark.parametrize("leak", LEAKS)
def test_activation_replay_and_transpose_are_the_masked_formula(leak):
    net = Network((5, 6), [Node("act", Activation(leak), ("input",))], "act")
    rng = np.random.default_rng(1)
    batch = with_zeros(rng.standard_normal((ROWS, 5, 6)), 2)
    assert np.signbit(batch[0][batch[0] == 0]).any()  # slice 0 decides at -0.0 too
    out, state = _forward_pass(net, batch, 1)
    mask = state.sign_masks["act"]
    assert np.array_equal(mask, batch[0] >= 0)
    assert_same_bits(state.factors["act"], np.where(mask, 1.0, leak))
    assert_same_bits(out, leaky(mask, batch, leak))
    v = with_zeros(rng.standard_normal((ROWS, 5, 6)), 3)
    assert_same_bits(_forward_pass(net, v, 0, state)[0], leaky(mask, v, leak))
    assert_same_bits(_transposed_pass(net, state, v), leaky(mask, v, leak))


def rnn_reference(lay, masks, x, g):
    """The recurrent step and its transpose with the masked formula."""
    hid = lay.w_hidden.shape[0]
    drive = x.reshape(-1, x.shape[2]).dot(lay.w_input.T).reshape(x.shape[:2] + (hid,))
    h = np.zeros((len(x), hid))
    for t in range(lay.steps):
        h = leaky(masks[t], h.dot(lay.w_hidden.T) + drive[:, t], lay.leakiness)
    cot = np.empty((len(g), lay.steps, hid))
    for t in range(lay.steps - 1, -1, -1):
        cot[:, t] = leaky(masks[t], g, lay.leakiness)
        g = cot[:, t].dot(lay.w_hidden)
    gx = cot.reshape(len(g) * lay.steps, -1).dot(lay.w_input)
    return h, gx.reshape(x.shape)


@pytest.mark.parametrize("leak", LEAKS)
def test_recurrent_replay_and_transpose_are_the_masked_formula(leak):
    rng = np.random.default_rng(4)
    lay = Recurrent(rng.standard_normal((7, 7)) * 0.5, rng.standard_normal((7, 3)),
                    rng.standard_normal(7) * 0.1, leak, 5)
    net = Network((5, 3), [Node("cell", lay, ("input",))], "cell")
    _, state = record_states(net, rng.standard_normal((5, 3)))
    masks = state.sign_masks["cell"]
    assert masks.any() and not masks.all()
    assert_same_bits(state.factors["cell"], np.where(masks, 1.0, leak))
    x = with_zeros(rng.standard_normal((ROWS, 5, 3)), 5)
    g = with_zeros(rng.standard_normal((ROWS, 7)), 6)
    want_out, want_gx = rnn_reference(lay, masks, x, g)
    assert_same_bits(_forward_pass(net, x, 0, state)[0], want_out)
    assert_same_bits(_transposed_pass(net, state, g), want_gx)
    # a recording pass, which takes each step's decision from slice 0,
    # gives the bits its own replay gives
    out, recorded = _forward_pass(net, x, 1)
    assert_same_bits(_forward_pass(net, x, 1, recorded)[0], out)


def test_training_dropout_replays_its_scaled_keep_mask():
    net = Network((4, 9), [Node("drop", Dropout(0.3, training=True, seed=8),
                                ("input",))], "drop")
    rng = np.random.default_rng(9)
    _, state = record_states(net, rng.standard_normal((4, 9)))
    keep = state.keep_masks["drop"]
    assert keep.any() and not keep.all()
    assert_same_bits(state.factors["drop"], keep / (1.0 - 0.3))
    v = with_zeros(rng.standard_normal((ROWS, 4, 9)), 10)
    want = v * (keep / (1.0 - 0.3))
    assert_same_bits(_forward_pass(net, v, 0, state)[0], want)
    assert_same_bits(_transposed_pass(net, state, v), want)
    # made once per key and shared read-only, like the keep mask
    _, again = record_states(net, rng.standard_normal((4, 9)))
    assert again.factors["drop"] is state.factors["drop"]
    assert not state.factors["drop"].flags.writeable


FAMILY_NETS = [(arch, seed, scale) for arch in fixtures.ARCHITECTURES
               for seed in range(4) for scale in (1, 2)]


@pytest.mark.parametrize("arch,seed,scale", FAMILY_NETS)
def test_every_factor_agrees_with_its_recorded_mask(arch, seed, scale):
    net, x = fixtures.generate(arch, seed, scale)
    _, state = record_states(net, x)
    assert set(state.factors) == set(state.sign_masks) | set(state.keep_masks)
    for nid, mask in state.sign_masks.items():
        want = np.where(mask, 1.0, net.plan.by_id[nid].layer.leakiness)
        assert_same_bits(state.factors[nid], want)
    for nid, keep in state.keep_masks.items():
        assert_same_bits(state.factors[nid], keep / (1.0 - net.plan.by_id[nid].layer.rate))


def test_a_state_from_another_net_with_the_same_ids_still_raises():
    _, state = record_states(nets.dense_relu_chain(0, [4, 6, 3]), np.ones(4))
    other = nets.dense_relu_chain(0, [4, 5, 3])
    with pytest.raises(ShapeMismatch, match="act1"):
        frozen_forward(other, state, np.ones(4), mode="linear")


def read_only_copy(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def read_only_net(net):
    """net with every weight, bias and batch-norm array a read-only copy."""
    def frozen(layer):
        arrays = {f.name: read_only_copy(getattr(layer, f.name))
                  for f in dataclasses.fields(layer)
                  if isinstance(getattr(layer, f.name), np.ndarray)}
        return dataclasses.replace(layer, **arrays)
    return Network(net.input_shape, [Node(n.id, frozen(n.layer), n.inputs)
                                     for n in net.nodes], net.output)


@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_no_entry_point_writes_into_a_caller_array_or_a_weight(arch):
    net, x = fixtures.generate(arch, 1, 2)
    net = read_only_net(net)
    rng = np.random.default_rng(11)
    out_shape = net.plan.out_shape
    x = read_only_copy(x)
    u = read_only_copy(rng.standard_normal(net.input_shape))
    v = read_only_copy(rng.standard_normal(out_shape))
    node = next(n for n in net.nodes if isinstance(n.layer, Dense))
    direction = read_only_copy(rng.standard_normal(node.layer.weights.shape))
    forward(net, x)
    _, state = record_states(net, x)
    for mode in ("affine", "linear"):
        frozen_forward(net, state, u, mode)
    frozen_vjp(net, state, v)
    jvp_input(net, x, u)
    vjp_input(net, x, v)
    jvp_weight(net, x, node.id, direction)
    materialize_affine_via_rop(net, x)
    materialize_affine_direct(net, x)
    region_equal(net, x, u)
    for strategy in (strategy_clone, strategy_double_vjp, strategy_batch_jacobian):
        strategy(net, x, u)
    probe = probe_from_network(net, x)
    d_in, d_out = probe.dim_in, probe.dim_out
    probe.rop(read_only_copy(rng.standard_normal((d_in, d_in + 2))))
    probe.lop(read_only_copy(rng.standard_normal((d_out, 2))))
    frobenius_norm_mc(probe, 20)
    top_k_svd(probe, 1, max_iter=5)
    if d_in == d_out:
        trace_mc(probe, 20)
        top_k_eigen(probe, 1, max_iter=5)


def test_a_non_finite_weight_in_memory_raises_naming_node_and_field():
    rng = np.random.default_rng(12)
    head_w = rng.standard_normal((2, 4))
    head_w[1, 2] = np.inf
    net = Network((5,), [Node("fc", Dense(rng.standard_normal((4, 5)), np.zeros(4)),
                              ("input",)),
                         Node("act", Activation(0.1), ("fc",)),
                         Node("head", Dense(head_w, np.zeros(2)), ("act",))], "head")
    x = rng.standard_normal(5)
    calls = (lambda: forward(net, x), lambda: jvp_input(net, x, x),
             lambda: vjp_input(net, x, np.ones(2)),
             lambda: materialize_affine_via_rop(net, x),
             lambda: probe_from_network(net, x))
    for call in calls:  # a failed plan is not cached, so each call checks
        with pytest.raises(NonFiniteInput, match="node 'head': weights"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_layer_scalar_in_memory_raises_naming_node_and_field(bad):
    w = np.random.default_rng(13).standard_normal
    ones, zeros = np.ones(4), np.zeros(4)
    fc = Node("fc", Dense(w((4, 5)), zeros), ("input",))
    cases = (
        ("act", "leakiness", Network((5,), [fc, Node("act", Activation(bad), ("fc",))],
                                     "act")),
        ("bn", "epsilon", Network((5,), [fc, Node("bn", BatchNormInference(
            ones, zeros, zeros, ones, epsilon=bad), ("fc",))], "bn")),
        ("cell", "leakiness", Network((3, 5), [Node("cell", Recurrent(
            w((4, 4)), w((4, 5)), zeros, bad, 3), ("input",))], "cell")),
    )
    for nid, field, net in cases:
        x = w(net.input_shape)
        for call in (lambda: forward(net, x), lambda: jvp_input(net, x, x),
                     lambda: probe_from_network(net, x)):
            with pytest.raises(NonFiniteInput, match=f"node '{nid}': {field}"):
                call()


@pytest.mark.parametrize("var,epsilon", [(-1.0, 1e-5), (0.0, 0.0), (-1e-5, 1e-5)])
def test_a_batch_norm_variance_that_is_not_positive_raises(var, epsilon, tmp_path, capsys):
    # running_var + epsilon <= 0 would take the root of a non-positive
    # number on every pass; the plan refuses it, naming the node
    layer = {"gamma": [1.0, 1.0], "beta": [0.0, 0.0], "running_mean": [0.0, 0.0],
             "running_var": [var, 1.0], "epsilon": epsilon}
    bn = BatchNormInference(**{k: np.array(v) for k, v in layer.items()})
    net = Network((2,), [Node("bn", bn, ("input",))], "bn")
    x = np.array([1.0, 2.0])
    for call in (lambda: forward(net, x), lambda: jvp_input(net, x, x),
                 lambda: probe_from_network(net, x)):
        with pytest.raises(GraphError, match="node 'bn': running_var"):
            call()
    nan_var = dataclasses.replace(bn, running_var=np.array([np.nan, 1.0]))
    with pytest.raises(NonFiniteInput, match="node 'bn': running_var"):  # scanned first
        forward(Network((2,), [Node("bn", nan_var, ("input",))], "bn"), x)
    doc = {"input_shape": [2], "output": "bn", "nodes": [
        {"id": "bn", "inputs": ["input"], "layer": {"type": "batchnorm_inf", **layer}}]}
    (tmp_path / "net.json").write_text(json.dumps(doc))
    with pytest.raises(NetworkSchemaError, match="node 'bn': running_var"):
        parse_network(tmp_path / "net.json")
    write_tensor(tmp_path / "x.ten", x)
    assert main(["jvp", "--net", str(tmp_path / "net.json"), "--x", str(tmp_path / "x.ten"),
                 "--u", str(tmp_path / "x.ten"), "--out", str(tmp_path / "o.ten")]) == 2
    assert "node 'bn': running_var" in capsys.readouterr().err
    assert not (tmp_path / "o.ten").exists()
