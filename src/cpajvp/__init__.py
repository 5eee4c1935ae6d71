"""Autodiff-free Jacobian-vector products for piecewise-affine networks.

A network built from affine layers and state-driven nonlinearities
(leaky activations, max pooling, dropout) is affine on each activation
region. Recording the nonlinearity states at a point x freezes that
affine map, and replaying the frozen pass gives exact Jacobian-vector
and vector-Jacobian products without any autodiff machinery. On top of
those two primitives sit a materialized-affine oracle, matrix-free
spectral algorithms, and a benchmark harness.
"""
from .numerics import (
    NonFiniteInput,
    ShapeMismatch,
    conv2d,
    conv2d_input_adjoint,
    matmul,
    maxpool_argmax,
    qr_householder,
)
from .network import (
    Activation,
    Add,
    BatchNormInference,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FrozenState,
    GraphError,
    INPUT_ID,
    MaxPool,
    Network,
    Node,
    Recurrent,
    dropout_mask,
    forward,
    record_states,
    shape_infer,
    validate,
)
from .clone import (
    frozen_forward,
    frozen_vjp,
    jvp_input,
    jvp_weight,
    vjp_input,
)
from .affine import (
    AffineMap,
    BudgetExceeded,
    materialize_affine_direct,
    materialize_affine_via_rop,
    region_equal,
)
from .spectral import (
    AdjointMismatch,
    LinearProbe,
    SpectralResult,
    frobenius_norm_mc,
    probe_from_network,
    top_k_eigen,
    top_k_svd,
    trace_mc,
)
from .bench import (
    BenchReport,
    PassCounts,
    StrategyMismatch,
    benchmark_forward,
    reports_to_csv,
    run_benchmark,
    strategy_batch_jacobian,
    strategy_clone,
    strategy_double_vjp,
)
from .tenio import (
    NetworkSchemaError,
    TensorFormatError,
    parse_network,
    read_tensor,
    save_network,
    write_tensor,
)

__version__ = "0.1.0"
