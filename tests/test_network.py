from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import nets
from cpajvp import (Activation, Add, BatchNormInference, Concat, Conv2D, Dense, Dropout,
                    GraphError, MaxPool, Network, Node, NonFiniteInput, Recurrent,
                    ShapeMismatch, dropout_mask, forward, jvp_input,
                    materialize_affine_via_rop, record_states, shape_infer,
                    validate, vjp_input)


def test_forward_hand_computed_dense_chain():
    w1 = np.array([[1.0, -2.0], [0.5, 0.5]])
    b1 = np.array([0.5, -1.0])
    w2 = np.array([[2.0, 1.0]])
    b2 = np.array([0.25])
    net = Network((2,), [
        Node("fc1", Dense(w1, b1), ["input"]),
        Node("act1", Activation(0.0), ["fc1"]),
        Node("fc2", Dense(w2, b2), ["act1"]),
    ], "fc2")
    x = np.array([1.0, 2.0])
    # fc1 = [1-4+0.5, 0.5+1-1] = [-2.5, 0.5]; relu -> [0, 0.5]
    # fc2 = 2*0 + 1*0.5 + 0.25 = 0.75
    assert np.array_equal(forward(net, x), [0.75])


def test_activation_leaky_and_abs():
    x = np.array([-2.0, 3.0])
    for leak, want in [(0.0, [0.0, 3.0]), (0.1, [-0.2, 3.0]), (-1.0, [2.0, 3.0])]:
        net = Network((2,), [Node("a", Activation(leak), ["input"])], "a")
        assert np.array_equal(forward(net, x), want)


def test_zero_preactivation_mask_is_active():
    # bias tuned so the unit sits exactly on the kink
    w = np.array([[1.0]])
    b = np.array([-3.0])
    net = Network((1,), [
        Node("fc", Dense(w, b), ["input"]),
        Node("act", Activation(0.25), ["fc"]),
    ], "act")
    out, state = record_states(net, np.array([3.0]))
    assert out[0] == 0.0
    assert state.sign_masks["act"][0]  # h == 0 counts as the active side


def test_record_states_output_matches_forward_bitwise():
    rng = np.random.default_rng(0)
    net = nets.branchy_net(3)
    for _ in range(5):
        x = rng.standard_normal(6)
        out, state = record_states(net, x)
        assert np.array_equal(out, forward(net, x))
        assert state.keep_masks["drop"].shape == (12,)


def test_dropout_training_deterministic_and_scaled():
    rate = 0.5
    net = Network((64,), [Node("d", Dropout(rate, training=True, seed=9), ["input"])], "d")
    x = np.ones(64)
    a = forward(net, x)
    b = forward(net, x)
    assert np.array_equal(a, b)
    kept = a != 0.0
    assert np.all(a[kept] == 1.0 / (1.0 - rate))
    # inference mode is the identity
    net_inf = Network((64,), [Node("d", Dropout(rate), ["input"])], "d")
    assert np.array_equal(forward(net_inf, x), x)


def test_dropout_mask_keyed_by_seed_and_node():
    m1 = dropout_mask(7, "d", (100,), 0.3)
    m2 = dropout_mask(7, "d", (100,), 0.3)
    m3 = dropout_mask(8, "d", (100,), 0.3)
    m4 = dropout_mask(7, "e", (100,), 0.3)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    assert not np.array_equal(m1, m4)
    assert m1.dtype == np.bool_


def test_recordings_share_one_read_only_dropout_mask():
    net = Network((64,), [Node("d", Dropout(0.3, training=True, seed=5), ["input"])], "d")
    x = np.ones(64)
    _, s1 = record_states(net, x)
    _, s2 = record_states(net, x)
    shared = s1.keep_masks["d"]
    assert s2.keep_masks["d"] is shared
    assert not shared.flags.writeable
    fresh = dropout_mask(5, "d", (64,), 0.3)
    assert np.array_equal(fresh, shared)
    # the public draw stays the caller's own array
    assert fresh is not shared and fresh.flags.writeable
    fresh[:] = ~fresh
    assert np.array_equal(dropout_mask(5, "d", (64,), 0.3), shared)


def test_batchnorm_inference_formula():
    from cpajvp import BatchNormInference
    gamma = np.array([2.0, 0.5])
    beta = np.array([1.0, -1.0])
    mean = np.array([0.5, -0.5])
    var = np.array([4.0, 0.25])
    net = Network((2,), [
        Node("bn", BatchNormInference(gamma, beta, mean, var, epsilon=0.0), ["input"]),
    ], "bn")
    x = np.array([2.5, 0.5])
    want = gamma * (x - mean) / np.sqrt(var) + beta
    assert np.max(np.abs(forward(net, x) - want)) <= 1e-15


def test_recurrent_single_step_equals_dense_activation():
    rng = np.random.default_rng(4)
    d_in, d_h = 4, 5
    wh = rng.standard_normal((d_h, d_h))
    wi = rng.standard_normal((d_h, d_in))
    b = rng.standard_normal(d_h)
    rec = Network((1, d_in), [Node("r", Recurrent(wh, wi, b, 0.1, 1), ["input"])], "r")
    ref = Network((d_in,), [
        Node("fc", Dense(wi, b), ["input"]),
        Node("act", Activation(0.1), ["fc"]),
    ], "act")
    x = rng.standard_normal(d_in)
    got = forward(rec, x.reshape(1, d_in))
    want = forward(ref, x)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_shape_infer_all_layer_kinds():
    shapes = shape_infer(nets.tiny_cnn())
    assert shapes["conv"] == (1, 4, 4, 4)   # same padding
    assert shapes["pool"] == (1, 2, 2, 4)
    assert shapes["flat"] == (16,)
    assert shapes["head"] == (3,)
    shapes = shape_infer(nets.branchy_net())
    assert shapes["sum"] == (6,)
    assert shapes["cat"] == (12,)
    shapes = shape_infer(nets.tiny_rnn(steps=4))
    assert shapes["rec"] == (5,)


def test_plan_counts_the_weight_multiplies_of_one_slice():
    # conv: 3*3*2*4 filter taps at 1*4*4 output positions, then a 3x16 head
    assert nets.tiny_cnn().plan.slice_mults == 72 * 16 + 48
    # two 6x6 dense layers and a 4x12 head; add, concat, batch-norm and
    # dropout count nothing
    assert nets.branchy_net().plan.slice_mults == 36 + 36 + 48
    # recurrent: (5x5 hidden + 5x4 input) per step, 4 steps, then a 3x5 head
    assert nets.tiny_rnn(steps=4).plan.slice_mults == (25 + 20) * 4 + 15


def test_shape_errors_name_the_node():
    net = Network((3,), [Node("fc_bad", Dense(np.zeros((2, 4)), np.zeros(2)), ["input"])],
                  "fc_bad")
    with pytest.raises(ShapeMismatch, match="fc_bad"):
        shape_infer(net)
    net = Network((3,), [Node("cat2", Concat(1), ["input", "input"])], "cat2")
    with pytest.raises(ShapeMismatch, match="cat2"):
        shape_infer(net)


def _bn(n_gamma=2, n_beta=2, n_mean=2, n_var=2):
    return BatchNormInference(np.ones(n_gamma), np.zeros(n_beta), np.zeros(n_mean),
                              np.ones(n_var))


_IMAGE = (1, 2, 2, 1)
_SMALL = Node("small", Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1)), ["input"])  # (1, 1, 1, 1)
SPEC_SHAPE_ERRORS = [
    pytest.param((3,), [Node("fc", Dense(np.ones((2, 3)), np.zeros(3)), ["input"])],
                 id="dense-bias"),
    pytest.param(_IMAGE, [Node("fc", Conv2D(np.ones((1, 1, 1, 2)), np.zeros(3)),
                               ["input"])], id="conv-bias"),
    *[pytest.param((2,), [Node("fc", _bn(**{name: 3}), ["input"])], id=f"batchnorm-{name}")
      for name in ("n_gamma", "n_beta", "n_mean", "n_var")],
    pytest.param(_IMAGE, [_SMALL, Node("fc", Add(), ["input", "small"])], id="add"),
    pytest.param(_IMAGE, [_SMALL, Node("fc", Concat(-1), ["input", "small"])], id="concat"),
    pytest.param((2, 3), [Node("fc", Recurrent(np.ones((4, 3)), np.ones((4, 3)),
                                               np.zeros(4), 0.0, 2), ["input"])],
                 id="recurrent-w_hidden"),
    pytest.param((2, 3), [Node("fc", Recurrent(np.ones((4, 4)), np.ones((4, 5)),
                                               np.zeros(4), 0.0, 2), ["input"])],
                 id="recurrent-w_input"),
    pytest.param((2, 3), [Node("fc", Recurrent(np.ones((4, 4)), np.ones((4, 3)),
                                               np.zeros(4), 0.0, 3), ["input"])],
                 id="recurrent-steps"),
    pytest.param((2, 3), [Node("fc", Recurrent(np.ones((4, 4)), np.ones((4, 3)),
                                               np.zeros(3), 0.0, 2), ["input"])],
                 id="recurrent-bias"),
]


@pytest.mark.parametrize("input_shape,nodes", SPEC_SHAPE_ERRORS)
def test_each_spec_names_its_node_on_a_shape_mismatch(input_shape, nodes):
    with pytest.raises(ShapeMismatch, match="node 'fc'"):
        shape_infer(Network(input_shape, nodes, "fc"))


def test_validate_rejects_bad_graphs():
    fc = Node("fc", Dense(np.zeros((2, 3)), np.zeros(2)), ["input"])
    with pytest.raises(GraphError, match="no nodes"):
        validate(Network((3,), [], "fc"))
    with pytest.raises(GraphError, match="reserved"):
        validate(Network((3,), [Node("input", Activation(), ["input"])], "input"))
    with pytest.raises(GraphError, match="duplicate"):
        validate(Network((3,), [fc, Node("fc", Activation(), ["fc"])], "fc"))
    with pytest.raises(GraphError, match="does not exist"):
        validate(Network((3,), [fc], "nope"))
    with pytest.raises(GraphError, match="at least two"):
        validate(Network((3,), [Node("add1", Add(), ["input"])], "add1"))
    with pytest.raises(GraphError, match="rate"):
        validate(Network((3,), [Node("d", Dropout(1.0), ["input"])], "d"))
    with pytest.raises(GraphError, match="steps"):
        validate(Network((2, 3), [Node("r", Recurrent(np.eye(2), np.zeros((2, 3)),
                                                      np.zeros(2), 0.0, 0), ["input"])],
                         "r"))
    # forward reference breaks topological order
    with pytest.raises(GraphError, match="topological"):
        validate(Network((3,), [
            Node("a", Activation(), ["b"]),
            Node("b", Activation(), ["input"]),
        ], "a"))


def test_network_and_nodes_are_immutable_tuples():
    net = nets.dense_relu_chain(0, [5, 4])   # built from lists
    assert isinstance(net.nodes, tuple)
    assert all(isinstance(node.inputs, tuple) for node in net.nodes)
    assert net.nodes[0].inputs == ("input",)
    with pytest.raises(FrozenInstanceError):
        net.nodes = ()
    with pytest.raises(FrozenInstanceError):
        net.nodes[0].inputs = ("fc1",)


def test_shape_infer_returns_a_copy_the_caller_cannot_corrupt():
    net = nets.branchy_net(3)
    x = np.random.default_rng(4).standard_normal(6)
    u = np.random.default_rng(5).standard_normal(6)
    y, ju = forward(net, x), jvp_input(net, x, u)
    v = np.ones_like(y)
    jtv, amap = vjp_input(net, x, v), materialize_affine_via_rop(net, x)
    shapes = shape_infer(net)
    want = dict(shapes)
    for key in shapes:
        shapes[key] = (1,)
    shapes["extra"] = (2,)
    assert shape_infer(net) == want
    assert np.array_equal(forward(net, x), y)
    assert np.array_equal(jvp_input(net, x, u), ju)
    assert np.array_equal(vjp_input(net, x, v), jtv)
    again = materialize_affine_via_rop(net, x)
    assert np.array_equal(again.a, amap.a) and np.array_equal(again.b, amap.b)


def test_bad_graph_constructs_and_raises_on_every_use():
    net = Network((3,), [Node("d", Dropout(1.0), ["input"])], "d")
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(GraphError, match="rate"):
            forward(net, np.zeros(3))
        with pytest.raises(GraphError, match="rate"):
            shape_infer(net)


def test_forward_rejects_wrong_input_shape():
    net = nets.dense_relu_chain(0, [5, 4])
    with pytest.raises(ShapeMismatch, match="input shape"):
        forward(net, np.zeros(6))


def test_maxpool_state_recorded():
    net = nets.tiny_cnn(1)
    x = np.random.default_rng(2).standard_normal((1, 4, 4, 2))
    _, state = record_states(net, x)
    assert state.argmax_indices["pool"].shape == (1, 2, 2, 4)
    assert "act" in state.sign_masks


def test_forward_deterministic():
    net = nets.branchy_net(5)
    x = np.random.default_rng(6).standard_normal(6)
    assert np.array_equal(forward(net, x), forward(net, x))


def test_forward_rejects_nan_input_instead_of_leaking_it():
    # NaN >= 0 is False, so a NaN would take the leak branch of every mask
    net = nets.branchy_net(5)
    x = np.random.default_rng(6).standard_normal(6)
    x[2] = np.nan
    with pytest.raises(NonFiniteInput, match="input"):
        forward(net, x)
    with pytest.raises(NonFiniteInput):
        record_states(net, x)
