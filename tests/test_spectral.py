import ast
import dataclasses
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nets
from cpajvp import (AdjointMismatch, LinearProbe, ShapeMismatch,
                    frobenius_norm_mc, jvp_input, materialize_affine_direct,
                    probe_from_network, qr_householder, top_k_eigen, top_k_svd,
                    trace_mc, vjp_input)
from cpajvp import fixtures, forward
from cpajvp.network import BLOCK_WIDTH
from cpajvp import NonFiniteInput, record_states, spectral
from cpajvp.network import Dense, _forward_pass, _transposed_pass
from cpajvp.numerics import key_text, keyed_rng, resumed_rng
from cpajvp.spectral import _adjoint_check_pairs, _start_block
from oracles import dense_eig_symmetric, dense_svd


def matrix_probe(m, check=True):
    m = np.asarray(m, dtype=np.float64)
    return LinearProbe(m.shape[1], m.shape[0],
                       rop=lambda u: m @ u, lop=lambda v: m.T @ v,
                       check_adjoint=check)


def gapped_symmetric(seed, d):
    """Q diag(vals) Q^T with eigenvalue ratios bounded away from 1."""
    rng = np.random.default_rng(seed)
    from cpajvp import qr_householder
    q, _ = qr_householder(rng.standard_normal((d, d)))
    vals = 10.0 * 0.6 ** np.arange(d)
    return q @ np.diag(vals) @ q.T, np.sort(vals)[::-1]


# ---------------------------------------------------------------------------
# probe plumbing

def test_probe_counts_each_call_once():
    p = matrix_probe(np.eye(3))
    assert p.rop_calls == 0 and p.lop_calls == 0
    p.rop(np.ones(3))
    p.rop(np.ones(3))
    p.lop(np.ones(3))
    assert p.rop_calls == 2 and p.lop_calls == 1


def test_probe_rejects_wrong_lengths():
    p = matrix_probe(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        p.rop(np.ones(2))
    with pytest.raises(ShapeMismatch):
        p.lop(np.ones(3))
    with pytest.raises(ShapeMismatch):
        LinearProbe(0, 2, rop=lambda u: u, lop=lambda v: v)
    # int(2.9) would quietly build a probe with 2 inputs
    with pytest.raises(TypeError, match="dim_in must be an integer, got 2.9"):
        LinearProbe(2.9, 3, rop=lambda u: u, lop=lambda v: v)
    with pytest.raises(TypeError, match="dim_out must be an integer, got 3.0"):
        LinearProbe(3, 3.0, rop=lambda u: u, lop=lambda v: v)
    assert LinearProbe(np.int64(2), 2, rop=lambda u: u, lop=lambda v: v).dim_in == 2


def test_probe_detects_broken_adjoint():
    m = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(AdjointMismatch):
        LinearProbe(4, 4, rop=lambda u: m @ u, lop=lambda v: (m + 1.0) @ v)
    # and the check can be skipped deliberately
    p = LinearProbe(4, 4, rop=lambda u: m @ u, lop=lambda v: (m + 1.0) @ v,
                    check_adjoint=False)
    assert p.rop_calls == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_self_check_rejects_non_finite_products(bad):
    # a NaN gap compares false against any bound, and so does inf > inf
    with pytest.raises(AdjointMismatch, match="not finite"):
        LinearProbe(3, 3, rop=lambda u: u * bad, lop=lambda v: v)
    with pytest.raises(AdjointMismatch, match="not finite"):
        LinearProbe(3, 3, rop=lambda u: u, lop=lambda v: v * bad)


def test_cached_self_check_still_detects_a_broken_adjoint():
    # the second construction at the same dims reads the cached pairs
    m = np.random.default_rng(1).standard_normal((3, 5))
    _adjoint_check_pairs.cache_clear()
    for _ in range(2):
        with pytest.raises(AdjointMismatch, match="beyond 1e-11"):
            LinearProbe(5, 3, rop=lambda u: m @ u, lop=lambda v: (m.T + 1e-6) @ v)
    assert _adjoint_check_pairs.cache_info().hits >= 1
    matrix_probe(m)  # a correct pair still passes on the cached pairs


def test_self_check_compares_every_pair():
    # a lop that is off only outside the first pair's v: the check must
    # still fail, so it cannot be reading the first pair alone
    m = np.random.default_rng(2).standard_normal((3, 5))
    u, v, _, _ = _adjoint_check_pairs(5, 3)
    q = v[:, 1] - v[:, 0] * (v[:, 0] @ v[:, 1]) / (v[:, 0] @ v[:, 0])
    with pytest.raises(AdjointMismatch):
        LinearProbe(5, 3, rop=lambda x: m @ x,
                    lop=lambda y: m.T @ y + 1e-3 * u[:, 1] * (q @ y))


def column_check_verdict(pairs, au, atv):
    """The self-check's verdict by its former column formula, on the pairs'
    (d, 3) columns and the products' columns: None, "not finite" or
    "beyond 1e-11"."""
    u, v, u_norm, v_norm = pairs
    with np.errstate(all="ignore"):
        au_norm, atv_norm = np.sqrt((au * au).sum(axis=0)), np.sqrt((atv * atv).sum(axis=0))
        scale = au_norm * v_norm + u_norm * atv_norm
        if not np.isfinite(scale).all():
            return "not finite"
        left, right = (au * v).sum(axis=0), (u * atv).sum(axis=0)
        gaps = np.abs(left - right) / scale
    # the two formulas round differently, so a gap near the bound could go
    # either way; the strategy keeps gaps well clear of it
    assume(np.all((gaps >= 1e-9) | (gaps <= 1e-13)))
    return "beyond 1e-11" if (gaps > 1e-11).any() else None


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(d_in=st.integers(1, 9), d_out=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       magnitude=st.integers(-60, 170),
       errors=st.lists(st.one_of(st.just(0.0), st.floats(1e-16, 1e-14), st.floats(1e-8, 1.0)),
                       min_size=3, max_size=3),
       bad=st.one_of(st.none(), st.tuples(st.booleans(), st.integers(0, 2), _NON_FINITE)),
       keyed=st.booleans())
def test_row_check_raises_exactly_when_the_column_formula_does(d_in, d_out, seed, magnitude,
                                                              errors, bad, keyed):
    # A of norm ~10**magnitude (its squares overflow past ~1e154), lop off
    # by errors[i] of ||A|| along a random direction on pair i, and
    # optionally one NaN or inf entry in a product; the pairs are the
    # keyed ones or random ones in their layout
    rng = np.random.default_rng(seed)
    if keyed:
        pairs = _adjoint_check_pairs(d_in, d_out)
    else:
        u, v = rng.standard_normal((3, d_in)).T, rng.standard_normal((3, d_out)).T
        pairs = u, v, np.linalg.norm(u, axis=0), np.linalg.norm(v, axis=0)
    u, v = pairs[0], pairs[1]
    a = rng.standard_normal((d_out, d_in)) * 10.0 ** magnitude
    with np.errstate(over="ignore"):
        au = a @ u
        atv = a.T @ v + rng.standard_normal((d_in, 3)) * np.array(errors) * 10.0 ** magnitude
    if bad is not None:
        on_rop, pair, value = bad
        target = au if on_rop else atv
        target[rng.integers(len(target)), pair] = value
    want = column_check_verdict(pairs, au, atv)
    try:
        with np.errstate(over="ignore"):  # both formulas overflow to an inf scale
            spectral._check_adjoint_rows(pairs, au.T, atv.T)
        got = None
    except AdjointMismatch as err:
        got = "not finite" if "not finite" in str(err) else "beyond 1e-11"
        assert got in str(err)
    assert got == want


def test_cached_check_pairs_and_start_blocks_are_read_only():
    for a in _adjoint_check_pairs(5, 3):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    u, v, u_norm, v_norm = _adjoint_check_pairs(5, 3)
    assert u.shape == (5, 3) and v.shape == (3, 3)
    assert np.array_equal(u_norm, np.linalg.norm(u, axis=0))
    block = _start_block("eigen-init", key_text(0), 6, 2)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    assert np.allclose(block.T @ block, np.eye(2), atol=1e-14)
    # a run leaves the shared block as it was
    before = block.copy()
    top_k_eigen(matrix_probe(gapped_symmetric(3, 6)[0]), 2, seed=0)
    assert np.array_equal(_start_block("eigen-init", key_text(0), 6, 2), before)


@pytest.mark.parametrize("run", [top_k_eigen, top_k_svd])
def test_krylov_start_blocks_are_keyed_by_the_seed_text(run):
    # the seeds the estimators' keyed streams accept, with the same streams
    p = matrix_probe(gapped_symmetric(3, 6)[0])
    _start_block.cache_clear()
    want = run(p, 2, max_iter=2, seed=1)
    for seed in (np.int64(1), np.array(1)):
        assert_same_result(run(p, 2, max_iter=2, seed=seed), want)
    assert _start_block.cache_info().currsize == 1
    firsts = {run(p, 2, max_iter=2, seed=seed).residuals[0] for seed in (1, 1.0, True)}
    assert len(firsts) == 3 and _start_block.cache_info().currsize == 3
    with pytest.raises(ValueError, match="cannot be an array"):
        run(p, 2, seed=np.array([1]))


def test_self_check_accepts_a_near_orthogonal_pair():
    # deflate A so that the first keyed self-check pair has <A u, v> ~ 0:
    # relative to |<A u, v>| the rounding gap of a correct probe is then
    # huge, relative to the Cauchy-Schwarz scale it is not
    d_in, d_out = 7, 5
    rng = keyed_rng("probe-adjoint-check", d_in, d_out)
    u, v = rng.standard_normal(d_in), rng.standard_normal(d_out)
    a = np.random.default_rng(3).standard_normal((d_out, d_in))
    a -= np.outer(v, u) * (v @ a @ u) / ((v @ v) * (u @ u))
    assert abs(v @ a @ u) <= 1e-14 * np.linalg.norm(a @ u) * np.linalg.norm(v)
    p = matrix_probe(a)
    assert p.rop_calls == 0 and p.lop_calls == 0


def test_probe_block_counts_columns_and_rejects_bad_blocks():
    m = np.random.default_rng(4).standard_normal((3, 5))
    u = np.random.default_rng(5).standard_normal((5, 4))
    p = LinearProbe(5, 3, rop=lambda u: m @ u, lop=lambda v: m.T @ v, blocks=True)
    assert np.array_equal(p.rop(u), m @ u)
    assert p.lop(np.ones((3, 2))).shape == (5, 2)
    assert (p.rop_calls, p.lop_calls) == (4, 2)
    p = matrix_probe(m)
    got = p.rop(u)
    for j in range(4):
        assert np.array_equal(got[:, j], m @ u[:, j])
    assert p.rop_calls == 4
    with pytest.raises(ShapeMismatch):
        p.rop(np.ones((5, 0)))
    with pytest.raises(ShapeMismatch):
        p.rop(np.ones((4, 2)))
    with pytest.raises(ShapeMismatch):
        p.rop(np.ones((5, 2, 1)))


def test_probe_refuses_complex_operands():
    net, x = fixtures.generate("mlp", 0)
    for p in (matrix_probe(np.eye(3)), probe_from_network(net, x)):
        with pytest.raises(ValueError, match="^rop input is complex"):
            p.rop(np.ones(p.dim_in) + 1j)
        with pytest.raises(ValueError, match="^lop input is complex"):
            p.lop(np.ones((p.dim_out, 2), dtype=np.complex64))
        assert p.rop_calls == p.lop_calls == 0


@pytest.mark.parametrize("blocks", [False, True])
def test_probe_refuses_complex_results(blocks):
    rop, lop = (lambda u: u * (1 + 1j)), (lambda v: v * (1 - 1j))
    with pytest.raises(ValueError, match="^rop result is complex"):
        LinearProbe(2, 2, rop, lop, blocks=blocks)
    p = LinearProbe(2, 2, rop, lop, check_adjoint=False, blocks=blocks)
    with pytest.raises(ValueError, match="^rop result is complex"):
        p.rop(np.ones(2))
    with pytest.raises(ValueError, match="^rop result is complex"):
        p.rop(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^lop result is complex"):
        p.lop(np.ones((2, 3)))
    assert p.rop_calls == p.lop_calls == 0
    # called per column, one complex column among real ones
    p = LinearProbe(2, 2, lambda u: u * (1 + 1j) if u[0] < 0 else u, lambda v: v,
                    check_adjoint=False)
    with pytest.raises(ValueError, match="^rop result is complex"):
        p.rop(np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))
    assert p.rop_calls == 0


def test_probe_calls_vector_callables_once_per_column():
    # an elementwise callable written for vectors would broadcast along
    # the wrong axis on a square block; without blocks it sees columns
    d = np.arange(1.0, 4.0)
    p = LinearProbe(3, 3, rop=lambda u: d * u, lop=lambda v: d * v)
    u = np.random.default_rng(6).standard_normal((3, 3))
    assert np.array_equal(p.rop(u), d[:, None] * u)
    assert np.array_equal(p.lop(u[:, :2]), d[:, None] * u[:, :2])


def test_block_probe_rejects_a_batch_first_result():
    m = np.random.default_rng(7).standard_normal((4, 6))
    with pytest.raises(ShapeMismatch, match="returned shape"):
        LinearProbe(6, 4, rop=lambda u: (m @ u).T, lop=lambda v: (m.T @ v).T,
                    blocks=True)
    p = LinearProbe(6, 4, rop=lambda u: (m @ u).T, lop=lambda v: (m.T @ v).T,
                    check_adjoint=False, blocks=True)
    assert p.rop(np.ones(6)).shape == (4,)
    with pytest.raises(ShapeMismatch, match="returned shape"):
        p.rop(np.ones((6, 3)))
    # called per column: every column short, or one short among whole ones
    short, ragged = (lambda u: (m @ u)[:3]), (lambda u: (m @ u)[:3] if u[0] < 0 else m @ u)
    with pytest.raises(ShapeMismatch, match="returned shape"):
        LinearProbe(6, 4, rop=short, lop=lambda v: m.T @ v)
    u = np.ones((6, 3))
    u[0, 1] = -1.0
    for rop in (short, ragged):
        p = LinearProbe(6, 4, rop=rop, lop=lambda v: m.T @ v, check_adjoint=False)
        with pytest.raises(ShapeMismatch, match="returned shape"):
            p.rop(u)
        assert p.rop_calls == 0
    with pytest.raises(ShapeMismatch, match="returned shape"):
        p.rop(u[:, 1])
    assert p.rop(u[:, [0, 2]]).shape == (4, 2)


def test_per_column_results_of_any_shape_holding_dim_out_entries_pass():
    # each column's result is flattened before the columns are stacked
    m = np.random.default_rng(8).standard_normal((4, 6))
    u = np.random.default_rng(9).standard_normal((6, 3))
    for rop in (lambda u: m @ u[:, None], lambda u: (m @ u)[None, :]):
        p = LinearProbe(6, 4, rop=rop, lop=lambda v: m.T @ v)
        assert np.array_equal(p.rop(u), np.stack([m @ c for c in u.T], axis=1))
        assert np.array_equal(p.rop(u[:, 0]), m @ u[:, 0])
    p = LinearProbe(6, 1, rop=lambda u: float(m[0] @ u), lop=lambda v: m[0] * v[0])
    assert p.rop(u).shape == (1, 3)


def test_block_callables_get_blocks_and_a_vector_is_a_one_column_block():
    def spied(fn):
        def call(a):
            seen.append(a.ndim)
            return fn(a)
        return call

    seen = []
    m = np.random.default_rng(9).standard_normal((4, 6))
    matrix = LinearProbe(6, 4, spied(lambda u: m @ u), spied(lambda v: m.T @ v), blocks=True)
    network = probe_from_network(*fixtures.generate("cnn", 1))
    network._rop, network._lop = spied(network._rop), spied(network._lop)
    rng = np.random.default_rng(10)
    for p in (matrix, network):
        for product, dim in ((p.rop, p.dim_in), (p.lop, p.dim_out)):
            a = rng.standard_normal(dim)
            got = product(a)
            assert got.shape == (p.dim_out if dim == p.dim_in else p.dim_in,)
            assert np.array_equal(got, product(a[:, None])[:, 0])
    assert seen == [2] * 10  # the matrix probe's self-check, then 4 products a probe


def test_network_probe_wraps_jvp_and_vjp():
    net, x = fixtures.generate("cnn", 1)
    p = probe_from_network(net, x)
    assert p.dim_in == x.size
    u = np.random.default_rng(1).standard_normal(x.size)
    assert np.array_equal(p.rop(u), jvp_input(net, x, u.reshape(x.shape)).reshape(-1))
    v = np.random.default_rng(2).standard_normal(p.dim_out)
    out_shape = forward(net, x).shape
    assert np.array_equal(p.lop(v), vjp_input(net, x, v.reshape(out_shape)).reshape(-1))


# ---------------------------------------------------------------------------
# block subspace iteration

def test_top_k_eigen_matches_dense_oracle():
    m, vals = gapped_symmetric(3, 10)
    p = matrix_probe(m)
    res = top_k_eigen(p, k=3, tol=1e-11, max_iter=500, seed=2)
    assert res.converged
    want, _ = dense_eig_symmetric(m)
    assert np.max(np.abs(res.values - want[:3])) <= 1e-8 * (1.0 + want[0])
    # eigenvector residual: A v == lambda v columnwise
    for i in range(3):
        r = m @ res.right_vectors[:, i] - res.values[i] * res.right_vectors[:, i]
        assert np.max(np.abs(r)) <= 1e-6 * (1.0 + want[0])


def test_top_k_eigen_call_counter_law():
    m, _ = gapped_symmetric(4, 8)
    for k in (1, 2, 4):
        p = matrix_probe(m)
        res = top_k_eigen(p, k=k, tol=1e-10, max_iter=300, seed=0)
        assert res.rop_calls == k * (res.iterations + 1)
        assert res.lop_calls == 0
        assert p.rop_calls == res.rop_calls


def test_top_k_eigen_on_network_region():
    w, _ = gapped_symmetric(5, 12)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(12)
    net = nets.all_positive_region_net(w, x)
    res = top_k_eigen(probe_from_network(net, x), k=3, tol=1e-10,
                      max_iter=500, seed=1)
    want, _ = dense_eig_symmetric(w)
    assert res.converged
    assert np.max(np.abs(res.values - want[:3])) <= 1e-6 * (1.0 + abs(want[0]))


def test_top_k_eigen_validates_arguments():
    p = matrix_probe(np.eye(4))
    with pytest.raises(ShapeMismatch):
        top_k_eigen(p, k=0)
    with pytest.raises(ShapeMismatch):
        top_k_eigen(p, k=5)
    with pytest.raises(ShapeMismatch):
        top_k_eigen(matrix_probe(np.zeros((3, 4))), k=1)  # not square
    with pytest.raises(ValueError):
        top_k_eigen(p, k=1, max_iter=0)
    # the loop stops on iterations == max_iter, which 2.5 never equals
    m = np.random.default_rng(2).standard_normal((300, 300))
    with pytest.raises(TypeError, match="max_iter must be an integer, got 2.5"):
        top_k_eigen(matrix_probe(m, check=False), 2, tol=1e-30, max_iter=2.5)
    with pytest.raises(TypeError, match="k must be an integer, got 2.0"):
        top_k_eigen(p, k=2.0)
    res = top_k_eigen(p, k=np.int64(2), max_iter=np.int32(3))  # numpy integers pass
    assert res.values.shape == (2,)
    # no residual meets a NaN or negative tol: the run would go on to max_iter
    for tol in (np.nan, -1e-8, -np.inf):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            top_k_eigen(p, k=1, tol=tol)
    assert top_k_eigen(p, k=1, tol=0.0, max_iter=2).iterations <= 2  # 0 is a tol


def test_top_k_svd_matches_dense_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 13))
    p = matrix_probe(a)
    res = top_k_svd(p, k=3, tol=1e-11, max_iter=800, seed=3)
    assert res.converged
    _, s, _ = dense_svd(a)
    assert np.all(res.values >= 0.0)
    assert np.all(np.diff(res.values) <= 1e-10)
    assert np.max(np.abs(res.values - s[:3])) <= 1e-8 * (1.0 + s[0])
    # triplets satisfy A v == sigma u
    for i in range(3):
        r = a @ res.right_vectors[:, i] - res.values[i] * res.left_vectors[:, i]
        assert np.max(np.abs(r)) <= 1e-6 * (1.0 + s[0])


def test_top_k_svd_call_counter_law():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 11))
    for k in (1, 3):
        p = matrix_probe(a)
        res = top_k_svd(p, k=k, tol=1e-10, max_iter=500, seed=4)
        assert res.rop_calls == k * res.iterations + k
        assert res.lop_calls == k * res.iterations


def test_top_k_svd_stops_when_a_rank_two_map_has_no_new_direction():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6))
    res = top_k_svd(matrix_probe(m), 3, tol=0.0)
    # one left block already spans the range of A, so no direction is left
    # after the first iteration, long before max_iter
    assert res.iterations == 1
    assert res.rop_calls == 3 * res.iterations + 3
    assert res.lop_calls == 3 * res.iterations
    assert res.values[2] == 0.0
    assert not res.left_vectors[:, 2].any()
    _, s, _ = dense_svd(m)
    assert np.max(np.abs(res.values[:2] - s[:2])) <= 1e-12 * s[0]


def test_top_k_svd_on_network_region():
    net, x = fixtures.generate("mlp", 9)
    amap = materialize_affine_direct(net, x)
    res = top_k_svd(probe_from_network(net, x), k=2, tol=1e-11,
                    max_iter=2000, seed=5)
    _, s, _ = dense_svd(amap.a)
    assert res.converged
    assert np.max(np.abs(res.values - s[:2])) <= 1e-6 * (1.0 + s[0])


def test_top_k_svd_validates_arguments():
    p = matrix_probe(np.zeros((3, 5)))
    with pytest.raises(ShapeMismatch):
        top_k_svd(p, k=4)  # k > min(m, n)
    with pytest.raises(ValueError):
        top_k_svd(p, k=1, max_iter=-1)
    with pytest.raises(TypeError, match="max_iter must be an integer, got 2.5"):
        top_k_svd(p, k=1, tol=1e-30, max_iter=2.5)
    with pytest.raises(TypeError, match="k must be an integer, got 2.0"):
        top_k_svd(p, k=2.0)
    res = top_k_svd(matrix_probe(np.eye(3, 5)), k=np.int64(2), max_iter=np.int32(3))
    assert res.values.shape == (2,)
    for tol in (np.nan, -1e-8, -np.inf):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            top_k_svd(p, k=1, tol=tol)


# ---------------------------------------------------------------------------
# the loop's LAPACK calls: numpy.linalg's gufuncs, or its public functions

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_shapes():
    """Square sizes 1-30, the tall (d, <= 3) blocks _new_directions takes,
    and the (<= 2, size) projections top_k_svd takes before its left basis
    holds k columns."""
    return ([(n, n) for n in range(1, 31)] + [(d, c) for d in range(1, 31)
                                              for c in range(1, min(d, 3) + 1)]
            + [(r, c) for c in range(1, 31) for r in range(min(c, 3))])


def test_lapack_calls_match_numpy_linalg_bit_for_bit():
    rng = np.random.default_rng(29)
    for shape in loop_shapes():
        a = rng.standard_normal(shape)
        for full in (False, True):
            got = spectral._LAPACK["svd_f" if full else "svd_s"](a)
            want = np.linalg.svd(a, full_matrices=full)
            assert all(map(same_bits, got, want)), (shape, full)
        if shape[0] == shape[1]:
            t = a + a.T
            assert all(map(same_bits, spectral._LAPACK["eigh_lo"](t / 2.0),
                           np.linalg.eigh(t / 2.0))), shape


@pytest.mark.parametrize("calls", ["gufunc", "public"])
def test_lapack_calls_raise_numpys_error_on_nan_and_warn_nothing(calls):
    calls = spectral._LAPACK if calls == "gufunc" else spectral._lapack_calls(None)
    bad = np.full((4, 4), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            calls["eigh_lo"](bad)
        for name in ("svd_s", "svd_f"):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                calls[name](bad[:, :3])


def krylov_results(seed):
    """top_k_svd on each fixture family and top_k_eigen on a symmetric and
    a non-symmetric square net, all at scale 2."""
    results = []
    for arch in fixtures.ARCHITECTURES:
        net, x = fixtures.generate(arch, seed, scale=2)
        results.append(top_k_svd(probe_from_network(net, x), 3, tol=1e-9, max_iter=300))
    w, _ = gapped_symmetric(seed, 12)
    x = np.random.default_rng(seed).standard_normal(12)
    for net in (nets.all_positive_region_net(w, x), nets.square_net(seed, 12)):
        results.append(top_k_eigen(probe_from_network(net, x), 3, tol=1e-9, max_iter=60))
    return results


def test_krylov_results_keep_their_bits_without_the_private_gufuncs(monkeypatch):
    fast = krylov_results(0)
    monkeypatch.setattr(spectral, "_LAPACK", spectral._lapack_calls(None))
    for got, want in zip(krylov_results(0), fast, strict=True):
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert same_bits(a, b), field.name


# ---------------------------------------------------------------------------
# block Krylov edge cases: each asserts the call law and the oracle values

def eigen_run(m, k, tol=1e-10, max_iter=500):
    p = matrix_probe(m)
    res = top_k_eigen(p, k=k, tol=tol, max_iter=max_iter, seed=0)
    assert (res.rop_calls, res.lop_calls) == (k * (res.iterations + 1), 0)
    assert (p.rop_calls, p.lop_calls) == (res.rop_calls, res.lop_calls)
    assert len(res.residuals) == res.iterations + 1
    assert res.residuals[-1] == res.residual
    assert res.converged == (res.residual <= tol)
    return res


def svd_run(a, k, tol=1e-10, max_iter=500):
    p = matrix_probe(a)
    res = top_k_svd(p, k=k, tol=tol, max_iter=max_iter, seed=0)
    assert (res.rop_calls, res.lop_calls) == (k * res.iterations + k, k * res.iterations)
    assert (p.rop_calls, p.lop_calls) == (res.rop_calls, res.lop_calls)
    assert len(res.residuals) == res.iterations + 1
    assert res.residuals[-1] == res.residual
    assert res.converged == (res.residual <= tol)
    return res


def close(got, want, rel=1e-10):
    return np.max(np.abs(got - want)) <= rel * (1.0 + np.max(np.abs(want)))


def spectrum_map(seed, vals, rotate=True):
    """Symmetric map with the given eigenvalues: Q diag(vals) Q^T, or a
    shuffled diagonal, whose oracle is immediate at large d."""
    rng = np.random.default_rng(seed)
    if not rotate:
        return np.diag(rng.permutation(vals))
    q, _ = qr_householder(rng.standard_normal((len(vals), len(vals))))
    w = q @ np.diag(vals) @ q.T
    return (w + w.T) / 2.0


@pytest.mark.parametrize("k", [3, 8])
def test_eigen_basis_fills_the_space(k):
    m, _ = gapped_symmetric(12, 8)
    res = eigen_run(m, k, tol=1e-11)
    assert res.converged
    assert close(res.values, dense_eig_symmetric(m)[0][:k])
    if k == 8:
        assert res.iterations == 0  # the start block is already the space


@pytest.mark.parametrize("shape,k", [((12, 8), 3), ((8, 12), 3), ((12, 8), 8)])
def test_svd_basis_fills_the_space(shape, k):
    a = np.random.default_rng(13).standard_normal(shape)
    res = svd_run(a, k, tol=1e-11)
    assert res.converged
    assert close(res.values, dense_svd(a)[1][:k])


@pytest.mark.parametrize("rank", [0, 1])
def test_breakdown_on_low_rank_maps(rank):
    rng = np.random.default_rng(14)
    u, w = rng.standard_normal(10), rng.standard_normal(7)
    sym = rank * 4.0 * np.outer(u, u) / (u @ u)
    res = eigen_run(sym, 3)
    assert res.converged
    want = dense_eig_symmetric(sym)[0][:3]
    assert close(want, [4.0 * rank, 0.0, 0.0], rel=1e-13)
    assert close(res.values, want, rel=1e-13)
    if rank == 0:
        assert res.iterations == 0

    rect = rank * 3.0 * np.outer(u, w) / np.sqrt((u @ u) * (w @ w))
    res = svd_run(rect, 3)
    assert res.converged
    assert close(res.values, dense_svd(rect)[1][:3], rel=1e-13)
    for i in range(3):  # A v == sigma u, zero left vectors for zero values
        r = rect @ res.right_vectors[:, i] - res.values[i] * res.left_vectors[:, i]
        assert np.max(np.abs(r)) <= 1e-13


def test_eigen_returns_the_largest_algebraic_values_of_an_indefinite_map():
    vals = np.array([-30.0, -12.0, 8.0, 5.0, 2.0, 0.5, -0.3, 0.1, -2.0, 1.0, -5.0, 0.0])
    m = spectrum_map(15, vals)
    res = eigen_run(m, 3)
    assert res.converged
    want = dense_eig_symmetric(m)[0][:3]
    assert close(want, [8.0, 5.0, 2.0])
    assert close(res.values, want)


def test_eigen_on_a_non_symmetric_map_reports_its_residual_honestly():
    a = np.random.default_rng(16).standard_normal((6, 6))
    res = eigen_run(a, 3, tol=1e-9)
    # the basis fills the space: the Ritz values are the symmetric part's,
    # but the Ritz vectors are no eigenvectors of A
    assert close(res.values, dense_eig_symmetric((a + a.T) / 2.0)[0][:3])
    assert not res.converged and res.residual > 1e-3
    loose = eigen_run(a, 3, tol=2.0 * res.residual)
    assert loose.converged and loose.iterations <= res.iterations


def test_slow_spectra_take_the_restart_path(monkeypatch):
    from cpajvp import spectral
    restarts = []
    real = spectral._KrylovBasis.restart
    monkeypatch.setattr(spectral._KrylovBasis, "restart",
                        lambda self, ritz: restarts.append(1) or real(self, ritz))
    vals = 10.0 * 0.95 ** np.arange(200)
    m = spectrum_map(17, vals, rotate=False)
    res = eigen_run(m, 3, tol=1e-9, max_iter=500)
    assert res.converged and restarts
    assert res.iterations >= spectral._MAX_BLOCKS
    assert close(res.values, dense_eig_symmetric(m)[0][:3])

    restarts.clear()
    a = np.zeros((200, 120))
    rng = np.random.default_rng(18)
    a[rng.permutation(200)[:120], rng.permutation(120)] = 5.0 * 0.95 ** np.arange(120)
    res = svd_run(a, 3, tol=1e-9, max_iter=500)
    assert res.converged and restarts
    assert close(res.values, dense_svd(a)[1][:3])


@pytest.mark.parametrize("d", [24, 32, 512])
def test_eigen_converges_in_few_iterations(d):
    # the acceptance-7 spectrum: subspace iteration needs ~40 iterations
    m = spectrum_map(19, 10.0 * 0.55 ** np.arange(d), rotate=d < 100)
    res = eigen_run(m, 3, tol=1e-9, max_iter=200)
    assert res.converged and res.iterations <= 10
    assert close(res.values, dense_eig_symmetric(m)[0][:3], rel=1e-9)


@pytest.mark.parametrize("shape", [(32, 20), (20, 32), (28, 14)])
def test_svd_converges_in_few_iterations(shape):
    # the acceptance-8 spectrum: alternating iteration needs ~17 iterations
    rng = np.random.default_rng(20)
    r = min(shape)
    qu, _ = qr_householder(rng.standard_normal((shape[0], r)))
    qv, _ = qr_householder(rng.standard_normal((shape[1], r)))
    a = qu @ np.diag(5.0 * 0.5 ** np.arange(r)) @ qv.T
    res = svd_run(a, 3, tol=1e-9, max_iter=300)
    assert res.converged and res.iterations <= 10
    assert close(res.values, dense_svd(a)[1][:3], rel=1e-9)


# ---------------------------------------------------------------------------
# randomized estimators

def test_frobenius_estimator_on_identity():
    d = 6
    p = matrix_probe(np.eye(d))
    est, se = frobenius_norm_mc(p, 4000, seed=0)
    assert p.rop_calls == 4000
    assert abs(est - np.sqrt(d)) <= 4.0 * se
    assert se > 0.0


def test_frobenius_estimator_within_stderr_of_exact():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 8))
    exact = float(np.linalg.norm(a, "fro"))
    est, se = frobenius_norm_mc(matrix_probe(a), 20000, seed=1)
    assert abs(est - exact) <= 4.0 * se


def test_frobenius_estimator_deterministic_per_seed():
    a = np.random.default_rng(10).standard_normal((4, 4))
    e1 = frobenius_norm_mc(matrix_probe(a), 500, seed=3)
    e2 = frobenius_norm_mc(matrix_probe(a), 500, seed=3)
    e3 = frobenius_norm_mc(matrix_probe(a), 500, seed=4)
    assert e1 == e2
    assert e1 != e3


def test_trace_estimator_exact_on_identity():
    # Rademacher probes: u^T I u == d with zero variance
    d = 7
    est, se = trace_mc(matrix_probe(np.eye(d)), 50, seed=0)
    assert est == pytest.approx(float(d), abs=1e-12)
    assert se <= 1e-12


def test_trace_estimator_within_stderr_of_exact():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9))
    exact = float(np.trace(a))
    est, se = trace_mc(matrix_probe(a), 20000, seed=2)
    assert abs(est - exact) <= 4.0 * se


def test_trace_estimator_requires_square():
    with pytest.raises(ShapeMismatch):
        trace_mc(matrix_probe(np.zeros((3, 4))), 10, seed=0)


def test_estimators_validate_sample_count():
    p = matrix_probe(np.eye(2))
    with pytest.raises(ValueError):
        frobenius_norm_mc(p, 0)
    with pytest.raises(ValueError):
        trace_mc(p, -5)
    # a float count is refused by name, not by numpy's shape check on n * d
    with pytest.raises(TypeError, match="n_samples must be an integer, got 1000.0"):
        frobenius_norm_mc(p, 1000.0)
    with pytest.raises(TypeError, match="n_samples must be an integer, got 2.5"):
        trace_mc(p, 2.5)
    assert frobenius_norm_mc(p, np.int64(4), seed=0) == frobenius_norm_mc(p, 4, seed=0)


# ---------------------------------------------------------------------------
# block products

BLOCK_CASES = [(arch,) + fixtures.generate(arch, 4) for arch in fixtures.ARCHITECTURES]
BLOCK_CASES.append(("branchy", nets.branchy_net(1),
                    np.random.default_rng(21).standard_normal(6)))


def rel_gap(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


@pytest.mark.parametrize("name,net,x", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_block_products_equal_single_calls(name, net, x):
    p = probe_from_network(net, x)
    rng = np.random.default_rng(22)
    k = 5
    u = rng.standard_normal((p.dim_in, k))
    v = rng.standard_normal((p.dim_out, k))
    au, atv = p.rop(u), p.lop(v)
    assert au.shape == (p.dim_out, k) and atv.shape == (p.dim_in, k)
    assert (p.rop_calls, p.lop_calls) == (k, k)
    for j in range(k):
        assert rel_gap(au[:, j], p.rop(u[:, j])) <= 1e-13, j
        assert rel_gap(atv[:, j], p.lop(v[:, j])) <= 1e-13, j
    assert (p.rop_calls, p.lop_calls) == (2 * k, 2 * k)
    # wider than one engine pass: the block is split, columns keep their place
    wide = BLOCK_WIDTH + 3
    u = rng.standard_normal((p.dim_in, wide))
    v = rng.standard_normal((p.dim_out, wide))
    au, atv = p.rop(u), p.lop(v)
    assert (p.rop_calls, p.lop_calls) == (2 * k + wide, 2 * k + wide)
    for j in (0, BLOCK_WIDTH - 1, BLOCK_WIDTH, wide - 1):
        assert rel_gap(au[:, j], p.rop(u[:, j])) <= 1e-13, j
        assert rel_gap(atv[:, j], p.lop(v[:, j])) <= 1e-13, j


def recording_probe(m):
    """Matrix probe that keeps every rop argument, one row per vector."""
    seen = []

    def rop(u):
        seen.append(np.atleast_2d(u.T).copy())
        return m @ u

    return LinearProbe(m.shape[1], m.shape[0], rop, lambda v: m.T @ v,
                       check_adjoint=False), seen


def per_sample_mean_se(samples):
    samples = np.asarray(samples)
    mean = float(np.mean(samples))
    n = len(samples)
    return mean, float(np.sqrt(np.sum((samples - mean) ** 2) / (n * (n - 1))))


@pytest.mark.parametrize("n", [7, BLOCK_WIDTH + 5])
def test_mc_estimators_draw_the_per_sample_stream(n):
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 6))
    p, seen = recording_probe(m)
    est, se = frobenius_norm_mc(p, n, seed=3)
    assert p.rop_calls == n
    ref = keyed_rng("frobenius-mc", 3)
    draws = np.stack([ref.standard_normal(6) for _ in range(n)])
    assert np.array_equal(np.concatenate(seen), draws)
    mean, se_mean = per_sample_mean_se([np.dot(m @ d, m @ d) for d in draws])
    assert abs(est - np.sqrt(mean)) <= 1e-13 * np.sqrt(mean)
    assert abs(se - se_mean / (2.0 * np.sqrt(mean))) <= 1e-10 * se

    sq = rng.standard_normal((6, 6))
    p, seen = recording_probe(sq)
    est, se = trace_mc(p, n, seed=4)
    ref = keyed_rng("trace-mc", 4)
    draws = np.stack([ref.integers(0, 2, 6).astype(np.float64) * 2.0 - 1.0
                      for _ in range(n)])
    assert np.array_equal(np.concatenate(seen), draws)
    mean, se_mean = per_sample_mean_se([np.dot(d, sq @ d) for d in draws])
    assert abs(est - mean) <= 1e-12 * (1.0 + abs(mean))
    assert abs(se - se_mean) <= 1e-10 * se


# ---------------------------------------------------------------------------
# each estimator's memo: one prefix of the keyed stream per stream

@pytest.fixture
def rng_spy(monkeypatch):
    """The keys the estimators call keyed_rng with, over an empty memo,
    and "resume" where a call resumes a held stream to draw its tail."""
    keys = []

    def spy(*parts):
        keys.append(parts)
        return keyed_rng(*parts)

    def resume_spy(state):
        keys.append("resume")
        return resumed_rng(state)

    monkeypatch.setattr(spectral, "keyed_rng", spy)
    monkeypatch.setattr(spectral, "resumed_rng", resume_spy)
    monkeypatch.setattr(spectral, "_prefixes", {})
    return keys


# estimator -> (its stream, a fresh (n, d) block of that stream)
_STREAMS = {
    frobenius_norm_mc: ("frobenius-mc", lambda rng, n, d: rng.standard_normal((n, d))),
    trace_mc: ("trace-mc", lambda rng, n, d: 2.0 * rng.integers(0, 2, (n, d)) - 1.0),
}


def block_probe(d):
    """Probe of a seeded (d, d) matrix that keeps each rop block, one row
    per vector."""
    m = np.random.default_rng(d).standard_normal((d, d))
    seen = []

    def rop(u):
        seen.append(u.T.copy())
        return m @ u

    return LinearProbe(d, d, rop, lambda v: m.T @ v, check_adjoint=False,
                       blocks=True), seen


def test_one_draw_per_seed_while_no_call_needs_a_longer_prefix(rng_spy):
    # the families workload's mc round, three times: frob at input widths
    # 6, 42, 25, 4, 25 and trace at 16, 24, 32, then shorter calls
    entries, made = {}, []  # (stream, key, prefix size) of each memo entry a call made
    for seed in (5, 5, 6):
        for estimator, widths in ((frobenius_norm_mc, (6, 42, 25, 4, 25)),
                                  (trace_mc, (16, 24, 32))):
            for d in widths:
                p, seen = block_probe(d)
                estimator(p, 200, seed=seed)
                stream, fresh = _STREAMS[estimator]
                assert np.array_equal(seen[0], fresh(keyed_rng(stream, seed), 200, d))
                entry = spectral._prefixes[stream]
                if entries.get(stream) is not entry:
                    entries[stream] = entry
                    made.append((stream, entry[0], entry[1].size))
    p, _ = block_probe(6)
    frobenius_norm_mc(p, 1000, seed=6)  # 6000 values of the 8400 held
    trace_mc(p, 3, seed=6)
    # a key where the seed changes, a resume where a call needs a longer prefix
    assert made == [(stream, key, size) for key in ("5", "6") for stream, size in (
        ("frobenius-mc", 1200), ("frobenius-mc", 8400),
        ("trace-mc", 3200), ("trace-mc", 4800), ("trace-mc", 6400))]
    # so the tails drawn are 7200 normals, then 1600 and 1600 signs, per seed
    assert rng_spy == [("frobenius-mc", 5), "resume", ("trace-mc", 5), "resume",
                       "resume", ("frobenius-mc", 6), "resume", ("trace-mc", 6),
                       "resume", "resume"]
    assert {stream: (key, prefix.size) for stream, (key, prefix, _)
            in spectral._prefixes.items()} == {"frobenius-mc": ("6", 200 * 42),
                                               "trace-mc": ("6", 200 * 32)}


_FRESH_ESTIMATES = """
import sys
import numpy as np
import nets
from cpajvp import frobenius_norm_mc, probe_from_network, trace_mc
p = probe_from_network(nets.square_net(0, 6, int(sys.argv[1])), np.linspace(-1.0, 1.0, 6))
print(repr((frobenius_norm_mc(p, 300, seed=7), trace_mc(p, 300, seed=7))))
"""


def fresh_estimates(depth):
    """(frobenius, trace) estimates of square_net(0, 6, depth), each the
    first call of its estimator in a new process."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here.parent / "src"), str(here),
                                       os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FRESH_ESTIMATES, str(depth)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_a_repeated_key_draws_once_per_estimator_and_changes_no_bit(rng_spy):
    # two nets of one input width, each estimator called twice per net and
    # interleaved with the other, so each estimator holds its own block
    x = np.linspace(-1.0, 1.0, 6)
    for depth in (2, 3):
        p = probe_from_network(nets.square_net(0, 6, depth), x)
        got = [(frobenius_norm_mc(p, 300, seed=7), trace_mc(p, 300, seed=7))
               for _ in range(2)]
        assert got == [fresh_estimates(depth)] * 2
        assert p.rop_calls == 4 * 300
    draws = [key for key in rng_spy if key[0] != "probe-adjoint-check"]
    assert sorted(draws) == [("frobenius-mc", 7), ("trace-mc", 7)]


def test_calls_of_more_than_one_block_are_not_memoized(rng_spy):
    p = matrix_probe(np.random.default_rng(3).standard_normal((6, 6)), check=False)
    n = BLOCK_WIDTH + 5
    small = frobenius_norm_mc(p, 50, seed=2)
    streamed = [(frobenius_norm_mc(p, n, seed=2), trace_mc(p, n, seed=2)) for _ in range(2)]
    assert streamed[0] == streamed[1]
    assert rng_spy == [("frobenius-mc", 2)] + [("frobenius-mc", 2), ("trace-mc", 2)] * 2
    # the streamed calls left the single-block entry alone and added none
    assert list(spectral._prefixes) == ["frobenius-mc"]
    assert [(key, prefix.size) for key, prefix, _ in spectral._prefixes.values()] == [
        ("2", 50 * 6)]
    assert frobenius_norm_mc(p, 50, seed=2) == small
    assert len(rng_spy) == 5


def test_the_memo_keeps_every_seed_on_its_keyed_stream(rng_spy):
    # 1, 1.0, True and np.int64(1) are equal as dict keys, but keyed_rng
    # reads str(seed): "1", "1.0" and "True" are three streams
    m = np.random.default_rng(5).standard_normal((6, 6))
    seeds = [1, 1.0, True, "1", np.int64(1)]
    order = seeds + seeds[::-1]
    for seed in order:
        p, seen = recording_probe(m)
        frobenius_norm_mc(p, 40, seed=seed)
        want = keyed_rng("frobenius-mc", seed).standard_normal((40, 6))
        assert np.array_equal(np.concatenate(seen), want)
        p, seen = recording_probe(m)
        trace_mc(p, 40, seed=seed)
        want = 2.0 * keyed_rng("trace-mc", seed).integers(0, 2, (40, 6)) - 1.0
        assert np.array_equal(np.concatenate(seen), want)
    # a draw exactly where the seed's string changes
    changes = 1 + sum(str(a) != str(b) for a, b in zip(order, order[1:]))
    assert len(rng_spy) == 2 * changes


@pytest.mark.parametrize("estimator", [frobenius_norm_mc, trace_mc], ids=["frob", "trace"])
def test_array_seeds_are_refused_before_the_memo_is_read(rng_spy, estimator):
    p = matrix_probe(np.random.default_rng(4).standard_normal((6, 6)), check=False)
    # a string seed that prints like the arrays below leaves its block first
    estimator(p, 40, seed="[1.]")
    long = np.arange(2000.0)
    edited = long.copy()
    edited[1000] = -7.0
    for seed in (np.array([1.0]), np.array([1.0000000000000002]), long, edited):
        for n in (40, BLOCK_WIDTH + 5):
            with pytest.raises(ValueError, match="array"):
                estimator(p, n, seed=seed)
    assert p.rop_calls == 40
    assert [(key, prefix.size) for key, prefix, _ in spectral._prefixes.values()] == [
        ("[1.]", 40 * 6)]


def test_threads_racing_on_the_memo_each_get_their_own_key():
    p = matrix_probe(np.random.default_rng(9).standard_normal((5, 7)), check=False)
    want = {(seed, n): frobenius_norm_mc(p, n, seed=seed)
            for seed in range(4) for n in (20, 30)}
    errors = []

    def work(seed):
        try:
            for i in range(100):
                # threads keep asking for each other's seeds, and for longer
                # and shorter prefixes of them
                key = (seed + i) % 4, (20, 30)[i // 4 % 2]
                if frobenius_norm_mc(p, key[1], seed=key[0]) != want[key]:
                    errors.append((seed, i))
        except Exception as exc:  # a thread's exception would not reach the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


_CALLS = st.lists(st.tuples(st.sampled_from([frobenius_norm_mc, trace_mc]),
                            st.sampled_from([0, 1, 1.0, True, "1", np.int64(2)]),
                            st.integers(2, BLOCK_WIDTH), st.integers(1, 12)),
                  min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(calls=_CALLS)
def test_interleaved_calls_match_an_empty_memo_and_a_fresh_draw(calls):
    # each example starts from an empty memo; its reference call runs on
    # another empty memo, then the example's memo is put back
    held = spectral._prefixes
    spectral._prefixes = {}
    try:
        for estimator, seed, n, d in calls:
            p, seen = block_probe(d)
            got = estimator(p, n, seed=seed)
            shared, spectral._prefixes = spectral._prefixes, {}
            try:
                assert estimator(block_probe(d)[0], n, seed=seed) == got
            finally:
                spectral._prefixes = shared
            # numpy's draws must take the keyed stream in order: an (n, d)
            # block is the first n * d values of its stream
            stream, fresh = _STREAMS[estimator]
            assert np.array_equal(seen[0], fresh(keyed_rng(stream, seed), n, d))
    finally:
        spectral._prefixes = held


@pytest.mark.parametrize("n", [40, BLOCK_WIDTH + 5])
@pytest.mark.parametrize("blocks", [False, True])
def test_a_rop_that_writes_into_its_input_raises(blocks, n):
    # trace_mc reads its block after rop, so a rop that overwrote it
    # would change the estimate silently
    m = np.random.default_rng(8).standard_normal((5, 5))

    def rop(u):
        u *= -1.0
        return -(m @ u)

    p = LinearProbe(5, 5, rop, lambda v: m.T @ v, check_adjoint=False, blocks=blocks)
    for estimator in (trace_mc, frobenius_norm_mc):
        with pytest.raises(ValueError, match="read-only"):
            estimator(p, n, seed=0)


# ---------------------------------------------------------------------------
# wide blocks through the region's map

def chain512_head(k):
    body = nets.dense_relu_chain(50, [512, 512, 512], 0.1)
    return fixtures.with_dense_head(body, k, seed=51)


MAP_CASES = BLOCK_CASES + [
    (f"chain512-k{k}", chain512_head(k), np.random.default_rng(24 + k).standard_normal(512))
    for k in (1, 16)]


@pytest.fixture
def engine_spy(monkeypatch):
    """Widths of the blocks a network probe hands to each engine, and the
    number of times it builds the region's map."""
    seen = {"rop": [], "lop": [], "maps": 0}
    forward_pass, transposed_pass = spectral._forward_pass, spectral._transposed_pass
    slope = spectral.narrow_side_slope

    def spy_forward(net, batch, *args):
        seen["rop"].append(len(batch))
        return forward_pass(net, batch, *args)

    def spy_transposed(net, state, g):
        seen["lop"].append(len(g))
        return transposed_pass(net, state, g)

    def spy_slope(*args, **kwargs):
        seen["maps"] += 1
        return slope(*args, **kwargs)

    monkeypatch.setattr(spectral, "_forward_pass", spy_forward)
    monkeypatch.setattr(spectral, "_transposed_pass", spy_transposed)
    monkeypatch.setattr(spectral, "narrow_side_slope", spy_slope)
    return seen


def clear(seen):
    seen.update(rop=[], lop=[], maps=0)


@pytest.mark.parametrize("name,net,x", MAP_CASES, ids=[c[0] for c in MAP_CASES])
def test_wide_blocks_take_the_map_and_equal_single_calls(name, net, x, engine_spy):
    p = probe_from_network(net, x)
    assert (p.rop_calls, p.lop_calls) == (0, 0)  # the self-check is not counted
    assert engine_spy == {"rop": [4], "lop": [3], "maps": 0}  # and ran on the engines
    assert p.dim_in * p.dim_out <= net.plan.slice_mults
    clear(engine_spy)
    rng = np.random.default_rng(25)
    k = min(p.dim_in, p.dim_out) + 4
    u = rng.standard_normal((p.dim_in, k))
    au = p.rop(u)
    p.rop(u[:, ::-1])
    assert engine_spy == {"rop": [], "lop": [], "maps": 1}  # built once, then kept
    assert au.shape == (p.dim_out, k)
    assert (p.rop_calls, p.lop_calls) == (2 * k, 0)
    for j in range(k):
        assert rel_gap(au[:, j], p.rop(u[:, j])) <= 1e-13, j
    assert (p.rop_calls, p.lop_calls) == (3 * k, 0)
    assert engine_spy["maps"] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wide_blocks_still_reject_non_finite_entries(bad):
    net, x = fixtures.generate("cnn", 4)
    p = probe_from_network(net, x)
    p.rop(np.ones((p.dim_in, p.dim_out + 1)))  # the map is built
    u = np.ones((p.dim_in, p.dim_out + 1))
    u[3, 2] = bad
    with pytest.raises(NonFiniteInput, match="input"):
        p.rop(u)
    assert (p.rop_calls, p.lop_calls) == (p.dim_out + 1, 0)


def test_vectors_narrow_blocks_and_every_lop_stay_on_the_engine(engine_spy):
    net, x = fixtures.generate("cnn", 4)
    p = probe_from_network(net, x)
    clear(engine_spy)
    narrow = min(p.dim_in, p.dim_out)
    rng = np.random.default_rng(26)
    p.rop(rng.standard_normal(p.dim_in))
    p.rop(rng.standard_normal((p.dim_in, narrow)))
    p.lop(rng.standard_normal(p.dim_out))
    p.lop(rng.standard_normal((p.dim_out, narrow)))
    p.lop(rng.standard_normal((p.dim_out, narrow + 1)))
    assert engine_spy == {"rop": [1, narrow], "lop": [1, narrow, narrow + 1], "maps": 0}
    p.rop(rng.standard_normal((p.dim_in, narrow + 1)))  # the first width to take the map
    assert engine_spy == {"rop": [1, narrow], "lop": [1, narrow, narrow + 1], "maps": 1}


def engine_probe(net, x):
    """A probe on the bare engine closures, with no map path."""
    _, state = record_states(net, x)
    in_shape, out_shape = net.input_shape, net.plan.out_shape

    def rop(u):
        out, _ = _forward_pass(net, u.T.reshape((-1,) + in_shape), 0, state)
        return out.reshape(len(out), -1).T

    def lop(v):
        out = _transposed_pass(net, state, v.T.reshape((-1,) + out_shape))
        return out.reshape(len(out), -1).T

    return LinearProbe(net.plan.d_in, net.plan.d_out, rop, lop, blocks=True)


def assert_same_result(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(a, b), field.name


SQUARE_CASES = [
    ("symmetric12", nets.all_positive_region_net(gapped_symmetric(5, 12)[0],
                                                 np.linspace(-1.0, 1.0, 12)),
     np.linspace(-1.0, 1.0, 12)),
    ("square6", nets.square_net(3, 6), np.random.default_rng(27).standard_normal(6)),
]


SPECTRAL_CASES = SQUARE_CASES + [c for c in MAP_CASES if min(c[1].plan.d_in, c[1].plan.d_out) >= 3]


@pytest.mark.parametrize("name,net,x", SPECTRAL_CASES, ids=[c[0] for c in SPECTRAL_CASES])
def test_spectral_runs_equal_the_bare_engine_bitwise(name, net, x):
    if net.plan.d_in == net.plan.d_out:
        got = top_k_eigen(probe_from_network(net, x), 3, tol=1e-10, max_iter=30, seed=1)
        assert_same_result(got, top_k_eigen(engine_probe(net, x), 3, tol=1e-10,
                                            max_iter=30, seed=1))
    if min(net.plan.d_in, net.plan.d_out) >= 3:
        got = top_k_svd(probe_from_network(net, x), 3, tol=1e-10, max_iter=30, seed=2)
        assert_same_result(got, top_k_svd(engine_probe(net, x), 3, tol=1e-10,
                                          max_iter=30, seed=2))


@pytest.mark.parametrize("name,net,x", SQUARE_CASES + MAP_CASES,
                         ids=[c[0] for c in SQUARE_CASES + MAP_CASES])
def test_mc_estimates_through_the_map_are_reproducible_and_near_the_engine(name, net, x):
    # 50 samples are one block wider than every case's narrow side
    frob = frobenius_norm_mc(probe_from_network(net, x), 50, seed=5)
    assert frobenius_norm_mc(probe_from_network(net, x), 50, seed=5) == frob
    engine = frobenius_norm_mc(engine_probe(net, x), 50, seed=5)
    assert np.allclose(frob, engine, rtol=1e-12, atol=0.0)
    if net.plan.d_in == net.plan.d_out:
        est = trace_mc(probe_from_network(net, x), 50, seed=6)
        assert trace_mc(probe_from_network(net, x), 50, seed=6) == est


def test_bottleneck_nets_keep_wide_blocks_on_the_engine(engine_spy):
    net = nets.dense_relu_chain(28, [256, 4, 256], 0.1)
    assert net.plan.d_in * net.plan.d_out > net.plan.slice_mults
    x = np.random.default_rng(28).standard_normal(256)
    p = probe_from_network(net, x)
    clear(engine_spy)
    rng = np.random.default_rng(29)
    p.rop(rng.standard_normal((256, 1000)))
    assert engine_spy == {"rop": [1000], "lop": [], "maps": 0}


def test_block_split_on_a_net_the_map_refuses(engine_spy):
    net = nets.dense_relu_chain(30, [16, 2, 16], 0.1)
    assert net.plan.d_in * net.plan.d_out > net.plan.slice_mults
    p = probe_from_network(net, np.random.default_rng(30).standard_normal(16))
    clear(engine_spy)
    rng = np.random.default_rng(31)
    wide = BLOCK_WIDTH + 3
    u = rng.standard_normal((p.dim_in, wide))
    v = rng.standard_normal((p.dim_out, wide))
    au, atv = p.rop(u), p.lop(v)
    assert engine_spy == {"rop": [wide], "lop": [wide], "maps": 0}
    assert (p.rop_calls, p.lop_calls) == (wide, wide)
    for j in (0, BLOCK_WIDTH - 1, BLOCK_WIDTH, wide - 1):
        assert rel_gap(au[:, j], p.rop(u[:, j])) <= 1e-13, j
        assert rel_gap(atv[:, j], p.lop(v[:, j])) <= 1e-13, j


def test_network_self_check_compares_the_two_engines(monkeypatch, engine_spy):
    # d_out = 1: a 3-column rop block, the check's width, takes the map
    # here, and A is built by the transposed engine, so a map-path rop
    # would agree with lop whatever the transposed engine does
    net = nets.dense_relu_chain(32, [8, 6, 1], 0.1)
    x = np.random.default_rng(32).standard_normal(8)
    transpose = Dense.transpose
    with monkeypatch.context() as m:
        m.setattr(Dense, "transpose", lambda self, *args: [
            g * (1.0 + 1e-6) for g in transpose(self, *args)])
        with pytest.raises(AdjointMismatch):
            probe_from_network(net, x)
    p = probe_from_network(net, x)
    clear(engine_spy)
    p.rop(np.ones((8, 3)))
    assert engine_spy == {"rop": [], "lop": [], "maps": 1}


# ---------------------------------------------------------------------------
# construction: the self-check's columns ride behind x in the recording

CONSTRUCTION_CASES = MAP_CASES[:2] + [
    ("bottleneck", nets.dense_relu_chain(30, [16, 2, 16], 0.1),
     np.random.default_rng(30).standard_normal(16))]


@pytest.mark.parametrize("name,net,x", CONSTRUCTION_CASES,
                         ids=[c[0] for c in CONSTRUCTION_CASES])
def test_construction_is_one_recording_and_one_transposed_pass(name, net, x, engine_spy):
    p = probe_from_network(net, x)
    assert engine_spy == {"rop": [1 + 3], "lop": [3], "maps": 0}
    assert (p.rop_calls, p.lop_calls) == (0, 0)


REGION_CASES = [(f"{arch}-{seed}",) + fixtures.generate(arch, seed, scale=2)
                for arch in fixtures.ARCHITECTURES for seed in range(4)]
# branchy, the chain512 heads k1 and k16, and two square nets for trace_mc
REGION_CASES += BLOCK_CASES[-1:] + MAP_CASES[-2:] + SQUARE_CASES


@pytest.mark.parametrize("name,net,x", REGION_CASES, ids=[c[0] for c in REGION_CASES])
def test_fused_recording_keeps_the_region_of_x(name, net, x):
    p = probe_from_network(net, x)
    rng = np.random.default_rng(33)
    u = rng.standard_normal(x.shape)
    assert np.array_equal(p.rop(u.reshape(-1)), jvp_input(net, x, u).reshape(-1))
    v = rng.standard_normal(net.plan.out_shape)
    assert np.array_equal(p.lop(v.reshape(-1)), vjp_input(net, x, v).reshape(-1))
