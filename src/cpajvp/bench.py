"""Benchmark harness comparing three product strategies.

All three compute the same J u for the region at x:

* batch-jacobian: materialize every Jacobian row with one transposed
  replay per output coordinate, then multiply by u. One recording pass
  plus d_out transposed passes.
* double-vjp: one recording, one transposed pass on a ones cotangent
  whose result is thrown away, then one linear replay of u. So it
  measures one linear replay plus one discarded backward pass, not a
  true vjp-of-vjp; the name is kept because reports and CSVs use it.
* clone: a single batched pass over [x, u] with states taken from the
  x slice. Additive terms reach slice 0 only, so slice 1 comes out as
  J u directly, with no difference of two affine outputs, and f(x)
  falls out of slice 0 for free.

The harness cross-checks the strategies against each other before any
timing and refuses to produce numbers when they disagree.
"""
from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import dataclass, field
from statistics import mean, median, pstdev, quantiles

import numpy as np

from .affine import BudgetExceeded
from .network import Network, _forward_pass, _shaped, _single, _transposed_pass, \
    forward, record_states
from .numerics import NonFiniteInput, check_finite


class StrategyMismatch(RuntimeError):
    """Raised when strategies disagree beyond tolerance; no timing is
    reported in that case."""


@dataclass
class PassCounts:
    forward: int = 0
    frozen: int = 0
    transposed: int = 0


@dataclass
class BenchReport:
    strategy: str
    d_in: int
    d_out: int
    repetitions: int
    median_s: float
    mean_s: float
    std_s: float
    min_s: float
    iqr_s: float
    passes: PassCounts = field(default_factory=PassCounts)

    def __post_init__(self):
        if self.repetitions < 10:
            raise ValueError(f"need at least 10 repetitions, got {self.repetitions}")
        if not 0.0 <= self.min_s <= self.median_s:
            raise ValueError(f"min {self.min_s} must lie in [0, median "
                             f"{self.median_s}]")
        if not self.iqr_s >= 0.0:
            raise ValueError(f"interquartile range {self.iqr_s} must be >= 0")


# ---------------------------------------------------------------------------
# strategies

_MAX_JACOBIAN_ROWS = 4096  # batch-jacobian refuses nets with more outputs


def strategy_batch_jacobian(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J u by stacking all d_out Jacobian rows from transposed replays."""
    u = _single(net, u, "direction")
    out_shape, d_out = net.plan.out_shape, net.plan.d_out
    if d_out > _MAX_JACOBIAN_ROWS:
        raise BudgetExceeded(f"{d_out} Jacobian rows exceed the row budget {_MAX_JACOBIAN_ROWS}")
    _, state = record_states(net, x)
    rows = np.empty((d_out, net.plan.d_in))
    e = np.zeros(d_out)
    for i in range(d_out):
        e[i] = 1.0
        rows[i] = _transposed_pass(net, state, e.reshape((1,) + out_shape)).reshape(-1)
        e[i] = 0.0
    return (rows @ u.reshape(-1)).reshape(out_shape)


def strategy_double_vjp(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J u from one linear replay of u, after a transposed replay of a
    ones cotangent whose result is thrown away: not a vjp-of-vjp."""
    u = _single(net, u, "direction")
    _, state = record_states(net, x)
    _transposed_pass(net, state, np.ones((1,) + net.plan.out_shape))  # result discarded
    out, _ = _forward_pass(net, u, 0, state)
    return out[0]


def strategy_clone(net: Network, x: np.ndarray,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J u from one batched pass over [x, u] with additive terms on the
    x slice only; returns (J u, f(x)), the network output being a free
    side product of the x slice."""
    batch = np.empty((2,) + net.input_shape)  # filled: np.stack costs more than a scan
    batch[0] = _shaped(x, net.input_shape, "input", "network input")
    batch[1] = _shaped(u, net.input_shape, "direction", "network input")
    try:
        check_finite(batch, "input")
    except NonFiniteInput:  # only then are x and u scanned apart, to name the bad one
        check_finite(batch[0], "input")
        check_finite(batch[1], "direction")
    out, _ = _forward_pass(net, batch, 1)
    return out[1], out[0]


# Each strategy's J u and its passes per call (recordings, frozen and
# transposed) as a function of d_out. A J u entry looks its strategy up
# when called, so a patched module attribute takes effect.
_STRATEGIES = {
    "batch-jacobian": (lambda *a: strategy_batch_jacobian(*a), lambda d: PassCounts(1, 0, d)),
    "double-vjp": (lambda *a: strategy_double_vjp(*a), lambda d: PassCounts(1, 1, 1)),
    "clone": (lambda *a: strategy_clone(*a)[0], lambda d: PassCounts(0, 1, 0)),
}


# ---------------------------------------------------------------------------
# harness

def _time_callable(fn, repetitions: int, warmup: int) -> dict[str, float]:
    """Per-call wall times after warmup: median, mean, std, min and IQR.
    Calls run at the process's BLAS thread count; the README says how to
    pin it to one thread.
    As with ``timeit.Timer.autorange``, a repetition times a loop of n calls
    and counts loop time / n; n is picked once, from the fastest warmup
    call, as the least count whose loop takes 2 ms (1 without warmup)."""
    if repetitions < 10:
        raise ValueError(f"need at least 10 repetitions, got {repetitions}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    def timed(n):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    fastest = min((timed(1) for _ in range(warmup)), default=math.inf)
    n = math.ceil(2e-3 / fastest) if 0.0 < fastest < 2e-3 else 1
    times = [timed(n) for _ in range(repetitions)]
    q1, _, q3 = quantiles(times, n=4)
    return {"median_s": median(times), "mean_s": mean(times),
            "std_s": pstdev(times), "min_s": min(times), "iqr_s": q3 - q1}


def run_benchmark(net: Network, x: np.ndarray, u: np.ndarray,
                  repetitions: int = 100, warmup: int = 5) -> list[BenchReport]:
    """Cross-check the strategies, then time each one.

    Every strategy must reproduce every other within 1e-9 relative
    error on this instance, else StrategyMismatch aborts the run and
    nothing is timed. Wall time per call is measured with a monotonic
    clock, in loops of calls, after warmup discard runs.
    """
    plan = net.plan
    results = {name: run(net, x, u) for name, (run, _) in _STRATEGIES.items()}
    for first, second in itertools.combinations(results, 2):
        a, b = results[first], results[second]
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
        err = float(np.max(np.abs(a - b))) / scale
        if err > 1e-9:
            raise StrategyMismatch(
                f"{first} and {second} disagree (relative error "
                f"{err:.3e}); not timing a wrong answer")
    return [BenchReport(strategy=name, d_in=plan.d_in, d_out=plan.d_out,
                        repetitions=repetitions, passes=law(plan.d_out),
                        **_time_callable(lambda run=run: run(net, x, u), repetitions, warmup))
            for name, (run, law) in _STRATEGIES.items()]


def benchmark_forward(net: Network, x: np.ndarray, repetitions: int = 100,
                      warmup: int = 5) -> BenchReport:
    """Baseline timing of the plain forward pass, for slowdown ratios."""
    stats = _time_callable(lambda: forward(net, x), repetitions, warmup)
    return BenchReport(strategy="forward", d_in=net.plan.d_in, d_out=net.plan.d_out,
                       repetitions=repetitions, passes=PassCounts(1, 0, 0), **stats)


CSV_HEADER = ["strategy", "d_in", "d_out", "reps", "median_s", "mean_s",
              "std_s", "passes_forward", "passes_frozen", "passes_transposed"]


def reports_to_csv(reports: list[BenchReport], dest) -> None:
    """Write reports as RFC 4180 CSV to a path or text file object."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    handle = open(dest, "w", newline="") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([r.strategy, r.d_in, r.d_out, r.repetitions,
                             repr(r.median_s), repr(r.mean_s), repr(r.std_s),
                             r.passes.forward, r.passes.frozen,
                             r.passes.transposed])
    finally:
        if own:
            handle.close()
