"""The compiled engine walks, their per-node hook, and the Concat and
MaxPool adjoints.

The adjoints are checked bit for bit against their former formulas,
written out here (np.split at np.cumsum bounds; the np.arange offset
grid), and for adjointness against materialize_affine_direct. The walks
are checked against the former dict walk, written out here too. A hook
that returns None changes no bit, runs once per node and block, and
reads what a weight gradient needs.
"""
import numpy as np
import pytest

import nets
from cpajvp import (Activation, Add, Concat, Conv2D, Dense, Flatten, MaxPool,
                    Network, Node, fixtures, jvp_input, jvp_weight,
                    materialize_affine_direct, record_states, vjp_input)
from cpajvp.network import _forward_pass, _transposed_pass

ROWS = (1, 4)  # cotangent batches of one row and of several


def _conv(rng, c, f):
    return Conv2D(rng.standard_normal((3, 3, c, f)) * 0.4, rng.standard_normal(f) * 0.1,
                  padding="same")


def concat_net(axis, seed=0):
    """Three parts, a b a, from two branches of a (1, 4, 5, 2) input that
    differ in length along the concat axis only: an activation, and a
    conv (3 channels against 2) or a max pool one tap shorter along
    that axis. A flatten and a dense head follow."""
    rng = np.random.default_rng(seed)
    shape = (1, 4, 5, 2)
    ax = axis % 4
    if ax == 3:
        other = Node("b", _conv(rng, 2, 3), ("input",))
    else:
        ksize = (2, 1) if ax == 1 else (1, 2)
        other = Node("b", MaxPool(ksize, (1, 1)), ("input",))
    nodes = [Node("a", Activation(0.2), ("input",)), other,
             Node("cat", Concat(axis), ("a", "b", "a")),
             Node("cat_act", Activation(0.1), ("cat",)),
             Node("flat", Flatten(), ("cat_act",))]
    d = int(np.prod(Network(shape, nodes, "flat").plan.out_shape))
    nodes.append(Node("head", Dense(rng.standard_normal((7, d)) * 0.3,
                                    rng.standard_normal(7) * 0.1), ("flat",)))
    return Network(shape, nodes, "head")


def overlapping_pool_net(seed=0):
    """A 3x3 stride-1 "same" max pool, whose windows overlap, so one
    input can win several of them."""
    rng = np.random.default_rng(seed)
    nodes = [Node("conv", _conv(rng, 2, 3), ("input",)),
             Node("pool", MaxPool((3, 3), (1, 1), "same"), ("conv",)),
             Node("flat", Flatten(), ("pool",)),
             Node("head", Dense(rng.standard_normal((5, 48)) * 0.3,
                                rng.standard_normal(5) * 0.1), ("flat",))]
    return Network((1, 4, 4, 2), nodes, "head")


def fan_net(seed=0):
    """A node feeding three consumers, so the order its cotangent parts
    are summed in shows in the last bits."""
    rng = np.random.default_rng(seed)
    dense = lambda: Dense(rng.standard_normal((5, 5)), rng.standard_normal(5))
    nodes = [Node("stem", dense(), ("input",)),
             Node("stem_act", Activation(0.1), ("stem",)),
             Node("p", dense(), ("stem_act",)),
             Node("q", dense(), ("stem_act",)),
             Node("r", dense(), ("stem_act",)),
             Node("pq", Add(), ("p", "q")),
             Node("sum", Add(), ("r", "pq", "stem_act"))]
    return Network((5,), nodes, "sum")


def _adjoint_gap(net, x, rows):
    """Largest gap between engine lop/rop blocks of `rows` rows and the
    oracle's A^T V and A U, relative to the oracle's scale."""
    a = materialize_affine_direct(net, x).a
    rng = np.random.default_rng(rows)
    _, state = record_states(net, x)
    v = rng.standard_normal((rows, a.shape[0]))
    u = rng.standard_normal((rows, a.shape[1]))
    lop = _transposed_pass(net, state, v.reshape((rows,) + net.plan.out_shape))
    rop, _ = _forward_pass(net, u.reshape((rows,) + net.input_shape), 0, state)
    scale = 1.0 + np.abs(a).max()
    return max(np.abs(lop.reshape(rows, -1) - v @ a).max(),
               np.abs(rop.reshape(rows, -1) - u @ a.T).max()) / scale


# ---------------------------------------------------------------------------
# Concat

@pytest.mark.parametrize("axis", [3, 2, -3], ids=["channel", "spatial", "negative"])
@pytest.mark.parametrize("rows", ROWS)
def test_concat_adjoint_equals_the_split_formula(axis, rows):
    net = concat_net(axis)
    node = net.plan.by_id["cat"]
    shapes = tuple(net.plan.shapes[r] for r in node.inputs)
    assert len({s[axis] for s in shapes}) == 2  # the parts differ in length
    g = np.random.default_rng(rows).standard_normal((rows,) + net.plan.shapes["cat"])
    got = node.layer.transpose("cat", g, None, shapes)
    ax = axis % len(shapes[0])
    want = np.split(g, np.cumsum([s[ax] for s in shapes[:-1]]), axis=ax + 1)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("axis", [3, 2, -3], ids=["channel", "spatial", "negative"])
@pytest.mark.parametrize("rows", ROWS)
def test_concat_products_are_adjoint_to_the_direct_slope(axis, rows):
    net = concat_net(axis, seed=1)
    x = np.random.default_rng(2).standard_normal(net.input_shape)
    assert _adjoint_gap(net, x, rows) <= 1e-12


# ---------------------------------------------------------------------------
# MaxPool

@pytest.mark.parametrize("rows", ROWS)
def test_overlapping_pool_adjoint_equals_the_offset_grid(rows):
    net = overlapping_pool_net()
    x = np.random.default_rng(3).standard_normal(net.input_shape)
    _, state = record_states(net, x)
    idx = state.argmax_indices["pool"]
    assert np.bincount(idx.reshape(-1)).max() > 1  # an input wins several windows
    (s,) = shapes = (net.plan.shapes["conv"],)
    g = np.random.default_rng(rows).standard_normal((rows,) + net.plan.shapes["pool"])
    (got,) = net.plan.by_id["pool"].layer.transpose("pool", g, state, shapes)
    size = int(np.prod(s))
    grid = idx.reshape(1, -1) + size * np.arange(rows)[:, None]
    want = np.bincount(grid.reshape(-1), weights=g.reshape(-1),
                       minlength=rows * size).reshape((rows,) + s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", ROWS)
def test_overlapping_pool_products_are_adjoint_to_the_direct_slope(rows):
    net = overlapping_pool_net(seed=1)
    x = np.random.default_rng(4).standard_normal(net.input_shape)
    assert _adjoint_gap(net, x, rows) <= 1e-12


# ---------------------------------------------------------------------------
# the compiled walks

def dict_walk(net, state, g):
    """The transposed walk as a dict over node ids, the way the engine
    walked before its plan held a step program."""
    cot = {net.output: g}
    for node in reversed(net.nodes):
        gn = cot.pop(node.id, None)
        if gn is None:
            continue
        shapes = tuple(net.plan.shapes[r] for r in node.inputs)
        for ref, part in zip(node.inputs, node.layer.transpose(node.id, gn, state, shapes)):
            cot[ref] = cot[ref] + part if ref in cot else part
    return cot["input"]


SHARED_CASES = [("resnet-mini", fixtures.generate("resnet-mini", 0, scale=2)[0]),
                ("branchy", nets.branchy_net(1)), ("fan3", fan_net())]


@pytest.mark.parametrize("name,net", SHARED_CASES, ids=[c[0] for c in SHARED_CASES])
@pytest.mark.parametrize("rows", ROWS)
def test_shared_nodes_sum_their_cotangents_in_graph_order(name, net, rows):
    x = np.random.default_rng(5).standard_normal(net.input_shape)
    _, state = record_states(net, x)
    g = np.random.default_rng(rows).standard_normal((rows,) + net.plan.out_shape)
    got = _transposed_pass(net, state, g)
    assert got.tobytes() == dict_walk(net, state, g).tobytes()


def test_steps_hold_specs_so_a_class_patch_reaches_a_built_plan(monkeypatch):
    net = nets.dense_relu_chain(6, [4, 3], 0.1)  # one dense node
    x, v = np.arange(4.0) - 1.5, np.array([1.0, -2.0, 0.5])
    before = vjp_input(net, x, v)
    tangent = jvp_input(net, x, np.ones(4))
    transpose, apply = Dense.transpose, Dense.apply
    monkeypatch.setattr(Dense, "transpose",
                        lambda self, *args: [2.0 * g for g in transpose(self, *args)])
    assert np.array_equal(vjp_input(net, x, v), 2.0 * before)
    monkeypatch.setattr(Dense, "apply", lambda self, *args: 2.0 * apply(self, *args))
    assert np.array_equal(jvp_input(net, x, np.ones(4)), 2.0 * tangent)


def test_the_transposed_program_skips_nodes_that_miss_the_output():
    base = nets.dense_relu_chain(7, [4, 3, 2], 0.1)
    # a branch off act1 that nothing reads, and a node after the output
    nodes = base.nodes[:2] + (Node("side", Dense(np.ones((2, 3)), np.zeros(2)), ("act1",)),) \
        + base.nodes[2:] + (Node("tail", Activation(0.0), ("act2",)),)
    net = Network(base.input_shape, nodes, "fc2")
    assert [step[0] for step in net.plan.forward] == [n.id for n in nodes]
    assert [step[1] for step in net.plan.transposed] == ["fc2", "act1", "fc1"]
    x, v = np.arange(4.0), np.array([1.0, -1.0])
    _, state = record_states(net, x)
    assert set(state.sign_masks) == {"act1", "act2", "tail"}  # every node records
    want = dict_walk(net, state, v[None])[0]
    walked = []
    got = _transposed_pass(net, state, v[None], lambda nid, spec, g: walked.append(nid))
    assert walked == ["fc2", "act1", "fc1"]
    assert np.array_equal(got[0], want)
    assert np.array_equal(vjp_input(net, x, v), want)


# ---------------------------------------------------------------------------
# the per-node hook

FAMILIES = [(arch, seed) for arch in fixtures.ARCHITECTURES for seed in range(4)]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("arch,seed", FAMILIES)
def test_an_observer_hook_leaves_every_pass_bitwise_equal(arch, seed):
    net, x = fixtures.generate(arch, seed, scale=2)
    rng = np.random.default_rng(seed)
    batch = np.concatenate([x[None], rng.standard_normal((3,) + x.shape)])
    g = rng.standard_normal((3,) + net.plan.out_shape)
    seen = []

    def observe(nid, spec, arg):
        seen.append(nid)

    out, state = _forward_pass(net, batch, 1)
    out_seen, state_seen = _forward_pass(net, batch, 1, hook=observe)
    assert_same_bits(out_seen, out)
    for store in ("sign_masks", "argmax_indices", "keep_masks", "factors"):
        ours, theirs = getattr(state_seen, store), getattr(state, store)
        assert ours.keys() == theirs.keys()
        for nid in ours:
            assert_same_bits(ours[nid], theirs[nid])
    for n_aff in (0, 1):  # linear and affine replays
        assert_same_bits(_forward_pass(net, batch, n_aff, state, observe)[0],
                         _forward_pass(net, batch, n_aff, state)[0])
    assert_same_bits(_transposed_pass(net, state, g, observe), _transposed_pass(net, state, g))
    walks = [step[0] for step in net.plan.forward] * 3 + [step[1] for step in net.plan.transposed]
    assert seen == walks


@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_a_hook_runs_once_per_node_and_block_and_sees_at_most_a_block(arch, monkeypatch):
    monkeypatch.setattr("cpajvp.network.BLOCK_WIDTH", 3)
    net, x = fixtures.generate(arch, 0, scale=2)
    rng = np.random.default_rng(1)
    calls = []

    def observe(nid, spec, arg):  # a list of input batches, or a cotangent batch
        widths = {len(part) for part in arg} if isinstance(arg, list) else {len(arg)}
        calls.append((nid, *widths))

    batch = np.concatenate([x[None], rng.standard_normal((7,) + x.shape)])
    _, state = _forward_pass(net, batch, 1, hook=observe)
    assert calls == [(step[0], w) for w in (3, 3, 2) for step in net.plan.forward]
    calls.clear()
    _transposed_pass(net, state, rng.standard_normal((7,) + net.plan.out_shape), observe)
    assert calls == [(step[1], w) for w in (3, 3, 1) for step in net.plan.transposed]


@pytest.mark.parametrize("arch,seed", FAMILIES)
def test_weight_gradients_from_the_two_hooks_are_adjoint_to_jvp_weight(arch, seed):
    # the forward hook keeps each Dense node's input on slice 0 of the
    # [x; 0] pass that jvp_weight records, the transposed hook its
    # cotangent g; then <g^T in, U> = <v, jvp_weight(x, n, U)>
    net, x = fixtures.generate(arch, seed, scale=2)
    dense = {n.id for n in net.nodes if isinstance(n.layer, Dense)}
    inputs, cots = {}, {}

    def keep_input(nid, spec, ins):
        if nid in dense:
            inputs[nid] = ins[0][0].copy()

    def keep_cotangent(nid, spec, g):
        if nid in dense:
            cots[nid] = g[0].copy()

    _, state = _forward_pass(net, np.stack([x, np.zeros_like(x)]), 1, hook=keep_input)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(net.plan.out_shape)
    _transposed_pass(net, state, v[None], keep_cotangent)
    assert dense and inputs.keys() == cots.keys() == dense
    for nid in sorted(dense):
        dw = np.outer(cots[nid], inputs[nid])
        u = rng.standard_normal(dw.shape)
        jw = jvp_weight(net, x, nid, u)
        scale = np.linalg.norm(dw) * np.linalg.norm(u) + np.linalg.norm(v) * np.linalg.norm(jw)
        assert abs(np.vdot(dw, u) - np.vdot(v, jw)) <= 1e-12 * scale, nid
