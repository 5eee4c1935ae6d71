import functools
import io
from types import SimpleNamespace

import numpy as np
import pytest

import nets
from cpajvp import (BudgetExceeded, NonFiniteInput, PassCounts, StrategyMismatch,
                    bench, fixtures, forward, jvp_input, network, record_states,
                    reports_to_csv, run_benchmark, benchmark_forward,
                    strategy_batch_jacobian, strategy_clone, strategy_double_vjp)
from cpajvp.bench import CSV_HEADER, _STRATEGIES, _passes, _run_strategy, _time_callable
from cpajvp.numerics import check_finite
from nets import with_scaled_offsets


def bench_instance(arch="resnet-mini", seed=0):
    net, x = fixtures.generate(arch, seed)
    u = np.random.default_rng(seed + 1000).standard_normal(x.shape)
    return net, x, u


def test_strategies_agree_and_match_jvp():
    for arch in fixtures.ARCHITECTURES:
        net, x, u = bench_instance(arch, 2)
        ref = jvp_input(net, x, u)
        scale = 1.0 + np.max(np.abs(ref))
        bj = strategy_batch_jacobian(net, x, u)
        dv = strategy_double_vjp(net, x, u)
        cl, fx = strategy_clone(net, x, u)
        assert np.max(np.abs(bj - ref)) <= 1e-9 * scale, arch
        assert np.max(np.abs(dv - ref)) <= 1e-9 * scale, arch
        assert np.max(np.abs(cl - ref)) <= 1e-9 * scale, arch
        want_fx = forward(net, x)
        assert np.max(np.abs(fx - want_fx)) <= 1e-12 * (1.0 + np.max(np.abs(want_fx)))


@pytest.fixture
def pass_spy(monkeypatch):
    """The passes bench hands to the engines, counted as PassCounts: a
    recording or plain forward, a frozen (linear or batched) pass, a
    transposed pass."""
    seen = PassCounts()

    def counting(fn, kind):
        def spy(*args, **kwargs):
            setattr(seen, kind, getattr(seen, kind) + 1)
            return fn(*args, **kwargs)
        return spy

    for name, kind in (("record_states", "forward"), ("forward", "forward"),
                       ("_forward_pass", "frozen"), ("_transposed_pass", "transposed")):
        monkeypatch.setattr(bench, name, counting(getattr(bench, name), kind))
    return seen


def test_each_strategy_runs_its_pass_law(pass_spy):
    # one call of each strategy makes the passes its report states, on the
    # five families and on chain heads of k = 1 and 16 outputs
    body = nets.dense_relu_chain(3, [6, 8, 8], leakiness=0.1)
    x, u = np.linspace(-1.0, 1.0, 6), np.cos(np.arange(6.0))
    cases = [bench_instance(arch, 3) for arch in fixtures.ARCHITECTURES]
    cases += [(fixtures.with_dense_head(body, k, seed=4), x, u) for k in (1, 16)]
    for net, x, u in cases:
        calls = {name: functools.partial(_run_strategy, name, net, x, u)
                 for name in _STRATEGIES}
        calls["forward"] = functools.partial(bench.forward, net, x)
        reports = run_benchmark(net, x, u, repetitions=10, warmup=0)
        reports.append(benchmark_forward(net, x, repetitions=10, warmup=0))
        assert [r.strategy for r in reports] == list(calls)
        for r in reports:
            pass_spy.forward = pass_spy.frozen = pass_spy.transposed = 0
            calls[r.strategy]()
            assert pass_spy == r.passes == _passes(r.strategy, net.plan.d_out), r.strategy


def test_clone_scans_x_and_u_once(monkeypatch):
    net, x, u = bench_instance("cnn", 3)
    assert net.plan  # the plan, which checks the weights, is built first
    scans = []

    def spy(a, what):
        scans.append(what)
        return check_finite(a, what)

    monkeypatch.setattr(bench, "check_finite", spy)
    monkeypatch.setattr(network, "check_finite", spy)
    strategy_clone(net, x, u)
    assert len(scans) == 1
    u.reshape(-1)[-1] = np.nan  # a failed scan alone looks at x and u apart
    with pytest.raises(NonFiniteInput, match="^direction contains"):
        strategy_clone(net, x, u)
    assert len(scans) == 4


def test_batch_jacobian_row_budget():
    net, x, u = bench_instance("mlp", 0)
    with pytest.raises(BudgetExceeded):
        strategy_batch_jacobian(net, x, u, row_budget=1)


def test_run_benchmark_reports():
    net, x, u = bench_instance("mlp", 1)
    reports = run_benchmark(net, x, u, repetitions=10, warmup=1)
    assert [r.strategy for r in reports] == ["batch-jacobian", "double-vjp", "clone"]
    for r in reports:
        assert r.repetitions == 10
        assert 0.0 < r.min_s <= r.median_s
        assert r.iqr_s >= 0.0
        assert r.d_in == x.size
        assert r.d_out == forward(net, x).size
    fwd = benchmark_forward(net, x, repetitions=10, warmup=1)
    assert fwd.strategy == "forward"
    assert (fwd.passes.forward, fwd.passes.frozen, fwd.passes.transposed) == (1, 0, 0)


def test_run_benchmark_validates_arguments():
    net, x, u = bench_instance("mlp", 1)
    with pytest.raises(ValueError, match="repetitions"):
        run_benchmark(net, x, u, repetitions=5)
    with pytest.raises(ValueError, match="warmup"):
        run_benchmark(net, x, u, repetitions=10, warmup=-1)


def test_mismatching_strategy_aborts_run(monkeypatch):
    net, x, u = bench_instance("mlp", 4)

    def skewed(net_, x_, u_):
        return strategy_double_vjp(net_, x_, u_) + 1e-3

    monkeypatch.setattr("cpajvp.bench.strategy_double_vjp", skewed)
    with pytest.raises(StrategyMismatch, match="disagree"):
        run_benchmark(net, x, u, repetitions=10, warmup=0)


def test_report_rejects_implausible_stats():
    from cpajvp import BenchReport
    with pytest.raises(ValueError, match="repetitions"):
        BenchReport("clone", 4, 4, 5, 1.0, 1.0, 0.0, 1.0, 0.0)
    # no call can be faster than the fastest one
    with pytest.raises(ValueError, match="min"):
        BenchReport("clone", 4, 4, 10, 1.0, 1.0, 0.1, 2.0, 0.1)
    with pytest.raises(ValueError, match="interquartile"):
        BenchReport("clone", 4, 4, 10, 1.0, 1.0, 0.1, 0.5, -0.1)


def test_timer_fills_min_and_iqr(monkeypatch):
    durations = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 6.0, 8.0, 7.0, 10.0]
    ticks = []
    for d in durations:
        start = ticks[-1] if ticks else 0.0
        ticks += [start, start + d]
    monkeypatch.setattr("cpajvp.bench.time", SimpleNamespace(perf_counter=iter(ticks).__next__))
    net, x, _ = bench_instance("mlp", 1)
    report = benchmark_forward(net, x, repetitions=10, warmup=0)
    assert report.median_s == 5.5 and report.mean_s == 5.5
    assert report.min_s == 1.0
    assert report.iqr_s == 8.25 - 2.75  # exclusive quartiles of 1..10


def test_timer_times_fast_calls_in_loops_picked_during_warmup(monkeypatch):
    # the fastest of two warmup calls, 2**-10 s, gives loops of
    # n = ceil(2e-3 / 2**-10) = 3 calls; loop i takes 3 * i s, i = 1..10
    ticks = [0.0, 2.0 ** -9, 1.0, 1.0 + 2.0 ** -10]
    for i in range(1, 11):
        ticks += [ticks[-1], ticks[-1] + 3.0 * i]
    monkeypatch.setattr("cpajvp.bench.time", SimpleNamespace(perf_counter=iter(ticks).__next__))
    calls = []
    stats = _time_callable(lambda: calls.append(None), repetitions=10, warmup=2)
    assert len(calls) == 2 + 10 * 3
    assert stats["min_s"] == 1.0 and stats["median_s"] == 5.5
    assert stats["iqr_s"] == 8.25 - 2.75


def test_csv_layout():
    net, x, u = bench_instance("mlp", 5)
    reports = run_benchmark(net, x, u, repetitions=10, warmup=0)
    reports.append(benchmark_forward(net, x, repetitions=10, warmup=0))
    buf = io.StringIO()
    reports_to_csv(reports, buf)
    text = buf.getvalue()
    lines = text.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == ("strategy,d_in,d_out,reps,median_s,mean_s,std_s,"
                        "passes_forward,passes_frozen,passes_transposed")
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 4
    for row, rep in zip(rows, reports):
        assert row[0] == rep.strategy
        assert int(row[1]) == rep.d_in and int(row[2]) == rep.d_out
        assert int(row[3]) == rep.repetitions
        # repr floats round-trip exactly
        assert float(row[4]) == rep.median_s
        assert float(row[5]) == rep.mean_s
        assert float(row[6]) == rep.std_s
        assert [int(v) for v in row[7:]] == [rep.passes.forward,
                                             rep.passes.frozen,
                                             rep.passes.transposed]


def test_csv_writes_to_path(tmp_path):
    net, x, u = bench_instance("mlp", 6)
    reports = run_benchmark(net, x, u, repetitions=10, warmup=0)
    dest = tmp_path / "out.csv"
    reports_to_csv(reports, dest)
    raw = dest.read_bytes()
    assert raw.startswith(b"strategy,d_in,d_out,")
    assert raw.count(b"\r\n") == 4


@pytest.mark.parametrize("arch", fixtures.ARCHITECTURES)
def test_clone_has_no_cancellation_at_huge_offsets(arch):
    # scaling every offset and x by 1e9 scales every pre-activation by 1e9
    # and keeps the region, so J u is unchanged. The clone slice never sees
    # an additive term: its J u must come out bit for bit as at scale 1,
    # not as the difference of two outputs of size 1e9
    net, x = fixtures.generate(arch, 0, scale=2)
    big, big_x = with_scaled_offsets(net, 1e9), x * 1e9
    assert region_equal_across(net, x, big, big_x)
    u = np.random.default_rng(31).standard_normal(x.shape)
    got, _ = strategy_clone(big, big_x, u)
    assert np.array_equal(got, strategy_clone(net, x, u)[0])
    want = jvp_input(big, big_x, u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    run_benchmark(big, big_x, u, repetitions=10, warmup=0)


def region_equal_across(net_a, x_a, net_b, x_b):
    _, sa = record_states(net_a, x_a)
    _, sb = record_states(net_b, x_b)
    return all(np.array_equal(getattr(sa, store)[k], getattr(sb, store)[k])
               for store in ("sign_masks", "argmax_indices", "keep_masks")
               for k in getattr(sa, store))
