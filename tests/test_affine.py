import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cpajvp.affine
import cpajvp.network
import nets
from cpajvp import (Activation, BudgetExceeded, Dense, Flatten, MaxPool, Network, Node,
                    fixtures, forward, frozen_forward, materialize_affine_direct,
                    materialize_affine_via_rop, probe_from_network, record_states,
                    region_equal, spectral)


def headed(arch, seed, mode):
    """A fixture family with a dense head that puts the probe in one
    mode: 1 output (reverse, d_out < d_in) or d_in + 3 (forward)."""
    net, x = fixtures.generate(arch, seed)
    k = 1 if mode == "reverse" else x.size + 3
    return fixtures.with_dense_head(net, k, seed), x


def test_affine_map_reconstructs_forward():
    for arch in fixtures.ARCHITECTURES:
        for seed in (0, 1):
            net, x = fixtures.generate(arch, seed)
            amap = materialize_affine_direct(net, x)
            fx = forward(net, x).reshape(-1)
            got = amap.a @ x.reshape(-1) + amap.b
            assert np.max(np.abs(got - fx)) <= 1e-9 * (1.0 + np.max(np.abs(fx))), arch


def test_apply_matches_matrix_form():
    net, x = fixtures.generate("mlp", 2)
    amap = materialize_affine_direct(net, x)
    v = np.random.default_rng(0).standard_normal(x.size)
    assert np.array_equal(amap.apply(v), amap.a @ v + amap.b)


def test_direct_and_probe_built_maps_agree():
    for arch in fixtures.ARCHITECTURES:
        net, x = fixtures.generate(arch, 3)
        direct = materialize_affine_direct(net, x)
        probed = materialize_affine_via_rop(net, x)
        scale = 1.0 + np.max(np.abs(direct.a))
        assert np.max(np.abs(direct.a - probed.a)) <= 1e-9 * scale, arch
        assert np.max(np.abs(direct.b - probed.b)) <= 1e-12 * (1.0 + np.max(np.abs(direct.b)))


@pytest.mark.parametrize("mode", ["reverse", "forward"])
@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_probe_takes_the_narrow_side(arch, mode, monkeypatch):
    # reverse: one recording pass over [x, 0], then one transposed walk
    # over d_out rows, which starts past the Dense head on its weights;
    # forward: one pass over [x, 0, I] and no transposed pass. A cap of 3
    # slices splits every pass wider than that into blocks
    monkeypatch.setattr("cpajvp.network.BLOCK_WIDTH", 3)
    passes = []

    def spy(name, rows):
        real = getattr(cpajvp.affine, name)

        def counted(*args, **kwargs):
            passes.append((name, len(rows(args)), kwargs.get("past_head", False)))
            return real(*args, **kwargs)

        monkeypatch.setattr(cpajvp.affine, name, counted)

    spy("_forward_pass", lambda args: args[1])
    spy("_transposed_pass", lambda args: args[2])
    net, x = headed(arch, 5, mode)
    direct = materialize_affine_direct(net, x)
    d_out, d_in = direct.a.shape
    probed = materialize_affine_via_rop(net, x)
    if mode == "reverse":
        assert d_out < d_in
        assert passes == [("_forward_pass", 2, False), ("_transposed_pass", d_out, True)]
    else:
        assert d_out >= d_in
        assert passes == [("_forward_pass", d_in + 2, False)]
    assert np.max(np.abs(probed.a - direct.a)) <= 1e-9 * (1.0 + np.max(np.abs(direct.a)))
    assert np.max(np.abs(probed.b - direct.b)) <= 1e-12 * (1.0 + np.max(np.abs(direct.b)))


@pytest.mark.parametrize("mode", ["reverse", "forward"])
@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_probe_slope_has_no_cancellation_at_huge_offsets(arch, mode):
    # scaling every offset and x by 2**30 scales every pre-activation
    # exactly and keeps the region; the slices that carry A never see an
    # additive term, so A must come out bit for bit as at scale 1
    net, x = headed(arch, 6, mode)
    big = nets.with_scaled_offsets(net, 2.0 ** 30)
    small_map = materialize_affine_via_rop(net, x)
    big_map = materialize_affine_via_rop(big, x * 2.0 ** 30)
    assert np.array_equal(big_map.a, small_map.a)
    assert np.array_equal(big_map.b, small_map.b * 2.0 ** 30)


def test_offset_equals_frozen_replay_of_zero():
    for arch in fixtures.ARCHITECTURES:
        net, x = fixtures.generate(arch, 4)
        _, state = record_states(net, x)
        amap = materialize_affine_direct(net, x)
        fz = frozen_forward(net, state, np.zeros_like(x), mode="affine")
        assert np.max(np.abs(amap.b - fz.reshape(-1))) <= \
            1e-12 * (1.0 + np.max(np.abs(fz))), arch


def test_maxpool_slope_rows_are_one_hot():
    net = Network((1, 4, 4, 2), [Node("pool", MaxPool((2, 2)), ["input"])], "pool")
    x = np.random.default_rng(1).standard_normal((1, 4, 4, 2))
    amap = materialize_affine_direct(net, x)
    assert amap.a.shape == (8, 32)
    assert np.array_equal(np.sort(amap.a, axis=1)[:, :-1], np.zeros((8, 31)))
    assert np.array_equal(amap.a.sum(axis=1), np.ones(8))
    assert np.array_equal(amap.b, np.zeros(8))


def test_region_equal_is_reflexive_and_sees_sign_flips():
    net, x = fixtures.generate("mlp", 6)
    assert region_equal(net, x, x)
    assert region_equal(net, x, x * (1.0 + 1e-15))
    # far point: some unit flips with overwhelming probability
    assert not region_equal(net, x, -137.0 * x + 3.0)


def test_region_equal_tracks_maxpool_switches():
    net = Network((1, 2, 2, 1), [Node("pool", MaxPool((2, 2)), ["input"])], "pool")
    x = np.array([[[[4.0], [1.0]], [[2.0], [3.0]]]])
    y = np.array([[[[1.0], [4.0]], [[2.0], [3.0]]]])  # argmax moves
    assert region_equal(net, x, x)
    assert not region_equal(net, x, y)


def test_budget_guard_trips_on_large_expansion():
    net, x = fixtures.generate("cnn", 0)
    with pytest.raises(BudgetExceeded):
        materialize_affine_direct(net, x, budget=10)


def test_slope_is_exactly_w_on_an_all_active_region():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 4))
    x = rng.standard_normal(4)
    net = nets.all_positive_region_net(w, x)
    amap = materialize_affine_direct(net, x)
    assert np.array_equal(amap.a, w)


def close_to(got, want):
    return np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("flatten", [False, True], ids=["dense", "flatten-dense"])
def test_slope_past_a_lone_dense_head_is_a_copy_of_its_weights(flatten, monkeypatch):
    # past the head nothing is left to walk but a Flatten, whose adjoint is
    # a view, so the walk's result is the weights themselves; A must still
    # own its memory, and a probe's read-only map must not lock the weights
    rng = np.random.default_rng(8)
    w = rng.standard_normal((5, 12))
    w[1, 2] = -0.0  # the seed keeps it; I W would give +0.0
    in_shape, src = ((2, 3, 2), "flat") if flatten else ((12,), "input")
    nodes = [Node("flat", Flatten(), ["input"])] if flatten else []
    nodes.append(Node("fc", Dense(w, rng.standard_normal(5)), [src]))
    net = Network(in_shape, nodes, "fc")
    x = rng.standard_normal(in_shape)
    probed = materialize_affine_via_rop(net, x)
    assert close_to(probed.a, materialize_affine_direct(net, x).a)
    assert np.array_equal(probed.a, w) and np.signbit(probed.a[1, 2])
    assert not np.shares_memory(probed.a, w)
    maps, slope = [], spectral.narrow_side_slope

    def kept(*args, **kwargs):
        maps.append(slope(*args, **kwargs)[0])
        return maps[-1], None

    monkeypatch.setattr(spectral, "narrow_side_slope", kept)
    u = rng.standard_normal((12, 6))  # wider than min(d_in, d_out): the map answers
    assert close_to(probe_from_network(net, x).rop(u), w @ u)
    assert len(maps) == 1 and not np.shares_memory(maps[0], w)
    assert not maps[0].flags.writeable and w.flags.writeable


def test_seed_rows_past_a_dense_head_go_through_in_blocks(monkeypatch):
    monkeypatch.setattr("cpajvp.network.BLOCK_WIDTH", 2)
    blocks, real = [], cpajvp.network._transposed_block

    def spy(plan, state, g):
        blocks.append((plan, len(g)))
        return real(plan, state, g)

    monkeypatch.setattr(cpajvp.network, "_transposed_block", spy)
    net = fixtures.with_dense_head(nets.dense_relu_chain(9, [12, 10, 8], 0.1), 5, seed=9)
    x = np.random.default_rng(9).standard_normal(12)
    probed = materialize_affine_via_rop(net, x)
    assert [(plan is net.plan.past_head, rows) for plan, rows in blocks] == \
        [(True, 2), (True, 2), (True, 1)]
    walked = [step[1] for step in net.plan.past_head.transposed]
    assert walked == ["act2", "fc2", "act1", "fc1"]
    assert close_to(probed.a, materialize_affine_direct(net, x).a)


def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_nets_that_end_in_an_activation_keep_the_identity_walk(monkeypatch):
    # the benchmark's probe-reuse nets (6-8-5 chains, 6-6-6 squares, the
    # designed eigen and rect nets) all end in an Activation
    walks, real = [], cpajvp.affine._transposed_pass

    def spy(net, state, g, past_head=False):
        walks.append((past_head, g.copy()))
        return real(net, state, g, past_head)

    monkeypatch.setattr(cpajvp.affine, "_transposed_pass", spy)
    groups = _workloads().build_probe_reuse().values()
    cases = {name: net for group in groups for name, net in group}
    rng, reverse = np.random.default_rng(10), []
    for name, net in cases.items():
        assert isinstance(net.plan.by_id[net.output].layer, Activation), name
        x = rng.standard_normal(net.input_shape)
        walks.clear()
        probed = materialize_affine_via_rop(net, x)
        d_out, d_in = probed.a.shape
        if d_out < d_in:
            reverse.append(name)
            assert len(walks) == 1 and walks[0][0] is False, name
            assert np.array_equal(walks[0][1].reshape(d_out, -1), np.eye(d_out)), name
        else:
            assert walks == [], name
        assert close_to(probed.a, materialize_affine_direct(net, x).a), name
    assert sorted(reverse) == sorted([f"frob{s}" for s in range(10)] + ["rect20x32"])
