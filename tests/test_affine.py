import numpy as np
import pytest

import cpajvp.affine
import nets
from cpajvp import (BudgetExceeded, MaxPool, Network, Node, fixtures, forward,
                    frozen_forward, materialize_affine_direct,
                    materialize_affine_via_rop, record_states, region_equal)


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
    # reverse: one recording pass over [x, 0], then d_out transposed rows;
    # forward: one pass over [x, 0, I] and no transposed pass. A cap of 3
    # slices splits every pass wider than that into blocks
    monkeypatch.setattr("cpajvp.network.BLOCK_WIDTH", 3)
    passes = []

    def spy(name, rows):
        real = getattr(cpajvp.affine, name)

        def counted(*args, **kwargs):
            passes.append((name, len(rows(args))))
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
        assert passes == [("_forward_pass", 2), ("_transposed_pass", d_out)]
    else:
        assert d_out >= d_in
        assert passes == [("_forward_pass", d_in + 2)]
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
