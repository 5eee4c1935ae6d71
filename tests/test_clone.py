import dataclasses
import math

import numpy as np
import pytest

import nets
from cpajvp import (Add, Conv2D, Dense, Dropout, GraphError, MaxPool, Network, Node,
                    NonFiniteInput, ShapeMismatch, fixtures,
                    forward, frozen_forward, frozen_vjp, jvp_input,
                    jvp_weight, materialize_affine_direct,
                    materialize_affine_via_rop, probe_from_network,
                    record_states, strategy_batch_jacobian, strategy_clone,
                    strategy_double_vjp, vjp_input)

ALL_ARCHS = fixtures.ARCHITECTURES


def each_fixture(seeds=(0, 1, 2)):
    for arch in ALL_ARCHS:
        for seed in seeds:
            yield fixtures.generate(arch, seed)


# ---------------------------------------------------------------------------
# clone consistency

def test_vjp_input_validates_the_graph_once(monkeypatch):
    # every entry point reads one cached plan: validate runs once per
    # Network object, on first use, whatever is called afterwards
    import cpajvp.network
    real, calls = cpajvp.network.validate, []

    def counting(n):
        calls.append(n)
        real(n)

    monkeypatch.setattr("cpajvp.network.validate", counting)
    nets_seen = []
    for arch in ("mlp", "cnn"):
        net, x = fixtures.generate(arch, 3, scale=2)
        nets_seen.append(net)
        y = forward(net, x)
        jvp_input(net, x, np.ones_like(x))
        vjp_input(net, x, np.ones_like(y))
        target = next(n for n in net.nodes if hasattr(n.layer, "weight_field"))
        w = getattr(target.layer, target.layer.weight_field)
        jvp_weight(net, x, target.id, np.ones_like(w))
        probe_from_network(net, x).rop(np.ones(x.size))
        materialize_affine_via_rop(net, x)
        vjp_input(net, x, np.ones_like(y))
    assert len(calls) == 2 and all(a is b for a, b in zip(calls, nets_seen))


def test_frozen_replay_at_x_reproduces_forward_bitwise():
    # same graph, same arithmetic path: the replay must be exact
    for net, x in each_fixture():
        out, state = record_states(net, x)
        replay = frozen_forward(net, state, x, mode="affine")
        assert np.array_equal(replay, out)
        assert np.array_equal(out, forward(net, x))


def test_affine_minus_offset_equals_linear_mode():
    for net, x in each_fixture((0, 3)):
        _, state = record_states(net, x)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(x.shape)
        affine = frozen_forward(net, state, v, mode="affine")
        offset = frozen_forward(net, state, np.zeros_like(x), mode="affine")
        linear = frozen_forward(net, state, v, mode="linear")
        scale = 1.0 + np.max(np.abs(affine))
        assert np.max(np.abs((affine - offset) - linear)) <= 1e-12 * scale


def test_frozen_forward_rejects_bad_mode():
    net, x = fixtures.generate("mlp", 0)
    _, state = record_states(net, x)
    with pytest.raises(ValueError, match="mode"):
        frozen_forward(net, state, x, mode="quadratic")


def test_frozen_forward_rejects_foreign_state():
    net, x = fixtures.generate("mlp", 0)
    other, y = fixtures.generate("cnn", 0)
    _, state = record_states(other, y)
    with pytest.raises((GraphError, ShapeMismatch, KeyError)):
        frozen_forward(net, state, x)


def test_foreign_state_is_rejected_by_node_ids_and_input_shape():
    net, x = fixtures.generate("mlp", 0)
    other, y = fixtures.generate("cnn", 0)
    _, state = record_states(other, y)
    v = np.ones(forward(net, x).shape)
    with pytest.raises(GraphError, match="does not belong"):
        frozen_forward(net, state, x)
    with pytest.raises(GraphError, match="does not belong"):
        frozen_vjp(net, state, v)
    # same node ids, other input shape
    net5, net6 = nets.dense_relu_chain(0, [5, 4]), nets.dense_relu_chain(0, [6, 4])
    _, state6 = record_states(net6, np.ones(6))
    with pytest.raises(ShapeMismatch, match="recorded on input"):
        frozen_forward(net5, state6, np.ones(5))
    with pytest.raises(ShapeMismatch, match="recorded on input"):
        frozen_vjp(net5, state6, np.ones(4))


def training_dropout_net(width):
    """3 -> width -> training-mode dropout -> 3, with seeded weights."""
    rng = np.random.default_rng(40)
    return Network((3,), [
        Node("fc0", Dense(rng.standard_normal((width, 3)), rng.standard_normal(width)),
             ["input"]),
        Node("drop", Dropout(0.5, training=True, seed=3), ["fc0"]),
        Node("fc1", Dense(rng.standard_normal((3, width)), rng.standard_normal(3)),
             ["drop"])], "fc1")


def pooled_sum_net(channels):
    """A (1, 2, 2, 1) input through a 1x1 conv and a 2x2 max pool, added to a
    2x2 conv of the input: an add that would broadcast a 1-channel pool
    over more channels."""
    rng = np.random.default_rng(41)
    return Network((1, 2, 2, 1), [
        Node("c1", Conv2D(rng.standard_normal((1, 1, 1, channels)),
                          rng.standard_normal(channels)), ["input"]),
        Node("pool", MaxPool((2, 2)), ["c1"]),
        Node("c2", Conv2D(rng.standard_normal((2, 2, 1, channels)),
                          rng.standard_normal(channels)), ["input"]),
        Node("sum", Add(), ["pool", "c2"])], "sum")


@pytest.mark.parametrize("build,node", [(training_dropout_net, "drop"),
                                        (pooled_sum_net, "pool")])
def test_a_state_recorded_on_other_node_shapes_is_rejected(build, node):
    # the narrow node's recorded decision would broadcast over the wide one
    narrow, wide = build(1), build(5)
    x = np.linspace(-1.0, 1.0, math.prod(narrow.input_shape)).reshape(narrow.input_shape)
    _, state = record_states(narrow, x)
    with pytest.raises(ShapeMismatch, match=node):
        frozen_forward(wide, state, x, mode="linear")
    with pytest.raises(ShapeMismatch, match=node):
        frozen_vjp(wide, state, np.ones(forward(wide, x).shape))
    # weights may differ: a copy with other weights of the same shapes replays
    first = narrow.nodes[0]
    weights = getattr(first.layer, first.layer.weight_field)
    other = nets.replace_weights(narrow, first.id, 2.0 * weights)
    assert np.array_equal(frozen_forward(other, state, x, mode="linear"),
                          frozen_forward(other, record_states(other, x)[1], x, mode="linear"))


def test_a_state_of_another_layer_kind_does_not_belong():
    net = nets.dense_relu_chain(0, [4, 6, 3])
    _, state = record_states(net, np.ones(4))
    kinds = [Node(n.id, Dropout(0.0) if n.id == "act1" else n.layer, n.inputs)
             for n in net.nodes]
    with pytest.raises(GraphError, match="does not belong.*act1"):
        frozen_forward(Network(net.input_shape, kinds, net.output), state, np.ones(4))


def with_layer(net, node_id, **changes):
    """Copy of net with fields of one node's layer replaced."""
    return Network(net.input_shape, [
        Node(n.id, dataclasses.replace(n.layer, **changes) if n.id == node_id else n.layer,
             n.inputs) for n in net.nodes], net.output)


@pytest.mark.parametrize("net,node,changes", [
    (nets.dense_relu_chain(0, [4, 6, 3], leakiness=0.1), "act1", {"leakiness": 0.3}),
    (nets.tiny_rnn(0, d_in=4), "rec", {"leakiness": 0.3}),
    (with_layer(training_dropout_net(4), "drop", training=False), "drop",
     {"training": True})])
def test_a_state_of_other_layer_parameters_does_not_belong(net, node, changes):
    # the recorded factors q carry the recording network's leakiness and
    # dropout mode, so a replay on another would mix the two networks
    x = np.linspace(-1.0, 1.0, math.prod(net.input_shape)).reshape(net.input_shape)
    _, state = record_states(net, x)
    other = with_layer(net, node, **changes)
    with pytest.raises(GraphError, match=f"does not belong.*{node}"):
        frozen_forward(other, state, x, mode="linear")
    with pytest.raises(GraphError, match=f"does not belong.*{node}"):
        frozen_vjp(other, state, np.ones(forward(other, x).shape))


def test_a_list_field_replays_as_its_tuple():
    net = pooled_sum_net(2)
    x = np.linspace(-1.0, 1.0, 4).reshape(net.input_shape)
    _, state = record_states(net, x)
    listed = with_layer(with_layer(net, "pool", ksize=[2, 2]), "c2", stride=[1, 1])
    assert np.array_equal(frozen_forward(listed, state, x), forward(net, x))


# ---------------------------------------------------------------------------
# jvp / vjp against the materialized map

def test_jvp_equals_slope_matrix_times_direction():
    rng = np.random.default_rng(5)
    for net, x in each_fixture((0, 1)):
        amap = materialize_affine_direct(net, x)
        u = rng.standard_normal(x.shape)
        got = jvp_input(net, x, u)
        want = amap.a @ u.reshape(-1)
        assert np.max(np.abs(got.reshape(-1) - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def test_vjp_equals_transposed_slope():
    rng = np.random.default_rng(6)
    for net, x in each_fixture((0, 1)):
        amap = materialize_affine_direct(net, x)
        v = rng.standard_normal(amap.a.shape[0])
        out_shape = forward(net, x).shape
        got = vjp_input(net, x, v.reshape(out_shape))
        want = amap.a.T @ v
        assert np.max(np.abs(got.reshape(-1) - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def test_jvp_vjp_adjoint_identity():
    rng = np.random.default_rng(7)
    for net, x in each_fixture((2,)):
        d_out = forward(net, x).shape
        _, state = record_states(net, x)
        for _ in range(5):
            u = rng.standard_normal(x.shape)
            v = rng.standard_normal(d_out)
            ju = frozen_forward(net, state, u, mode="linear")
            jtv = frozen_vjp(net, state, v)
            lhs = float(np.sum(ju * v))
            rhs = float(np.sum(u * jtv))
            bound = np.linalg.norm(ju) * np.linalg.norm(v) + \
                np.linalg.norm(u) * np.linalg.norm(jtv)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + bound)


def test_vjp_rejects_wrong_cotangent_shape():
    net, x = fixtures.generate("mlp", 1)
    _, state = record_states(net, x)
    bad = np.zeros(forward(net, x).size + 1)
    with pytest.raises(ShapeMismatch, match="cotangent"):
        frozen_vjp(net, state, bad)


# ---------------------------------------------------------------------------
# weight directions

def weight_jvp_oracle(net, x, node_id, direction):
    """Sum of one-entry-at-a-time frozen perturbation columns."""
    node = next(n for n in net.nodes if n.id == node_id)
    ref = node.layer.weights if hasattr(node.layer, "weights") else node.layer.filters
    _, state = record_states(net, x)
    base = frozen_forward(net, state, x, mode="affine")
    total = np.zeros_like(base)
    flat = direction.reshape(-1)
    for pos in np.nonzero(flat)[0]:
        bump = np.zeros(ref.size)
        bump[pos] = flat[pos]
        pert = nets.replace_weights(net, node_id, ref + bump.reshape(ref.shape))
        total += frozen_forward(pert, state, x, mode="affine") - base
    return total


def test_jvp_weight_dense_matches_perturbation_oracle():
    net, x = fixtures.generate("mlp", 4)
    target = next(n.id for n in net.nodes if hasattr(n.layer, "weights"))
    lay = next(n.layer for n in net.nodes if n.id == target)
    rng = np.random.default_rng(8)
    # sparse direction keeps the one-at-a-time oracle cheap
    direction = rng.standard_normal(lay.weights.shape)
    keep = rng.random(direction.shape) < 0.2
    direction = direction * keep
    got = jvp_weight(net, x, target, direction)
    want = weight_jvp_oracle(net, x, target, direction)
    assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def test_jvp_weight_conv_matches_perturbation_oracle():
    net, x = fixtures.generate("cnn", 2)
    target = next(n.id for n in net.nodes if hasattr(n.layer, "filters"))
    lay = next(n.layer for n in net.nodes if n.id == target)
    rng = np.random.default_rng(9)
    direction = rng.standard_normal(lay.filters.shape)
    keep = rng.random(direction.shape) < 0.15
    direction = direction * keep
    got = jvp_weight(net, x, target, direction)
    want = weight_jvp_oracle(net, x, target, direction)
    assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def test_jvp_weight_on_branchy_graph():
    # a node feeding only one branch of an Add: the other branch is dead
    net = nets.branchy_net(2)
    x = np.random.default_rng(10).standard_normal(6)
    lay = next(n.layer for n in net.nodes if n.id == "a")
    rng = np.random.default_rng(11)
    direction = rng.standard_normal(lay.weights.shape) * \
        (rng.random(lay.weights.shape) < 0.25)
    got = jvp_weight(net, x, "a", direction)
    want = weight_jvp_oracle(net, x, "a", direction)
    assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def test_jvp_weight_validates_node_and_shape():
    net, x = fixtures.generate("mlp", 0)
    target = next(n.id for n in net.nodes if hasattr(n.layer, "weights"))
    lay = next(n.layer for n in net.nodes if n.id == target)
    with pytest.raises(GraphError, match="no node"):
        jvp_weight(net, x, "ghost", np.zeros_like(lay.weights))
    act = next(n.id for n in net.nodes if type(n.layer).__name__ == "Activation")
    with pytest.raises(GraphError, match="Dense or Conv2D"):
        jvp_weight(net, x, act, np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch, match="direction"):
        jvp_weight(net, x, target, np.zeros((1, 1)))


def test_passes_wider_than_the_cap_split_cleanly(monkeypatch):
    # with a cap of 3 slices per pass, the identity rows of the affine
    # probe and an 8-column probe block run in several passes; the
    # additive terms must still reach only their rows
    monkeypatch.setattr("cpajvp.network.BLOCK_WIDTH", 3)
    rng = np.random.default_rng(16)
    for arch in ALL_ARCHS:
        net, x = fixtures.generate(arch, 2)
        direct = materialize_affine_direct(net, x)
        probed = materialize_affine_via_rop(net, x)
        assert np.max(np.abs(probed.a - direct.a)) <= 1e-9 * (1.0 + np.max(np.abs(direct.a)))
        assert np.max(np.abs(probed.b - direct.b)) <= 1e-12 * (1.0 + np.max(np.abs(direct.b)))
        dirs = rng.standard_normal((x.size, 8))
        want = direct.a @ dirs
        got = probe_from_network(net, x).rop(dirs)
        assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# non-finite data

def test_non_finite_inputs_raise():
    for arch in ALL_ARCHS:
        net, x = fixtures.generate(arch, 1)
        fx = forward(net, x)
        good_u = np.ones_like(x)
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y.reshape(-1)[0] = bad
            # each error names the array that holds the bad entry
            for label, call in (
                    ("input", lambda: forward(net, y)),
                    ("input", lambda: record_states(net, y)),
                    ("input", lambda: jvp_input(net, y, good_u)),
                    ("direction", lambda: jvp_input(net, x, y)),
                    ("direction", lambda: strategy_clone(net, x, y)),
                    ("direction", lambda: strategy_double_vjp(net, x, y)),
                    ("direction", lambda: strategy_batch_jacobian(net, x, y)),
                    ("input", lambda: vjp_input(net, y, np.ones_like(fx)))):
                with pytest.raises(NonFiniteInput, match=f"^{label} contains"):
                    call()
            v = np.ones_like(fx)
            v.reshape(-1)[-1] = bad
            with pytest.raises(NonFiniteInput, match="^cotangent contains"):
                vjp_input(net, x, v)
            _, state = record_states(net, x)
            with pytest.raises(NonFiniteInput, match="^input contains"):
                frozen_forward(net, state, y, mode="linear")
            with pytest.raises(NonFiniteInput, match="^cotangent contains"):
                frozen_vjp(net, state, v)
            p = probe_from_network(net, x)
            block = np.ones((p.dim_in, 3))
            block[-1, 2] = bad
            with pytest.raises(NonFiniteInput, match="^input contains"):
                p.rop(block)
            block = np.ones((p.dim_out, 3))
            block[-1, 2] = bad
            with pytest.raises(NonFiniteInput, match="^cotangent contains"):
                p.lop(block)


def test_complex_arrays_are_refused_not_cut_to_their_real_part():
    net, x = fixtures.generate("cnn", 1)
    fx = forward(net, x)
    _, state = record_states(net, x)
    w = next(n for n in net.nodes if hasattr(n.layer, "filters"))
    for label, call in (
            ("input", lambda: forward(net, x + 1j)),
            ("input", lambda: record_states(net, (x + 0j).tolist())),
            ("direction", lambda: jvp_input(net, x, x + 1j)),
            ("direction", lambda: strategy_clone(net, x, x + 1j)),
            ("cotangent", lambda: vjp_input(net, x, fx.astype(np.complex64))),
            ("input", lambda: frozen_forward(net, state, x + 1j, mode="linear")),
            ("cotangent", lambda: frozen_vjp(net, state, fx + 1j)),
            ("direction", lambda: jvp_weight(net, x, w.id, w.layer.filters + 1j))):
        with pytest.raises(ValueError, match=f"^{label} is complex"):
            call()


def test_non_finite_weight_direction_raises():
    net, x = fixtures.generate("cnn", 2)
    target = next(n for n in net.nodes if hasattr(n.layer, "filters"))
    direction = np.zeros_like(target.layer.filters)
    direction[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteInput, match="direction"):
        jvp_weight(net, x, target.id, direction)
