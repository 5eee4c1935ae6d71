"""Hand-built networks shared across test modules."""
import dataclasses

import numpy as np

from cpajvp.network import (Activation, Add, BatchNormInference, Concat,
                            Conv2D, Dense, Dropout, Flatten, MaxPool, Network,
                            Node, Recurrent)


def dense_relu_chain(seed, dims, leakiness=0.0):
    """Dense -> Activation stack with the given layer dims."""
    rng = np.random.default_rng(seed)
    nodes = []
    prev = "input"
    for i in range(1, len(dims)):
        w = rng.standard_normal((dims[i], dims[i - 1])) / np.sqrt(dims[i - 1])
        b = rng.standard_normal(dims[i]) * 0.1
        nodes.append(Node(f"fc{i}", Dense(w, b), [prev]))
        nodes.append(Node(f"act{i}", Activation(leakiness), [f"fc{i}"]))
        prev = f"act{i}"
    return Network((dims[0],), nodes, prev)


def square_net(seed, d, depth=2, leakiness=0.1):
    """Chain with equal input and output dims, for trace estimators."""
    return dense_relu_chain(seed, [d] * (depth + 1), leakiness)


def all_positive_region_net(w, x):
    """Dense(w, b) -> ReLU with b chosen so every unit is active at x.

    The region slope matrix at x is then exactly w.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b = 1.0 + np.abs(w @ x)
    nodes = [Node("fc", Dense(w, b), ["input"]),
             Node("act", Activation(0.0), ["fc"])]
    return Network((w.shape[1],), nodes, "act")


def tiny_cnn(seed=0):
    rng = np.random.default_rng(seed)
    f1 = rng.standard_normal((3, 3, 2, 4)) * 0.3
    nodes = [
        Node("conv", Conv2D(f1, rng.standard_normal(4) * 0.1,
                            stride=(1, 1), padding="same"), ["input"]),
        Node("act", Activation(0.1), ["conv"]),
        Node("pool", MaxPool((2, 2), (2, 2), "valid"), ["act"]),
        Node("flat", Flatten(), ["pool"]),
        Node("head", Dense(rng.standard_normal((3, 2 * 2 * 4)) * 0.2,
                           rng.standard_normal(3) * 0.1), ["flat"]),
    ]
    return Network((1, 4, 4, 2), nodes, "head")


def branchy_net(seed=0):
    """Add + Concat + BatchNorm + Dropout in one graph."""
    rng = np.random.default_rng(seed)
    d = 6
    w1 = rng.standard_normal((d, d)) * 0.4
    w2 = rng.standard_normal((d, d)) * 0.4
    nodes = [
        Node("a", Dense(w1, rng.standard_normal(d) * 0.1), ["input"]),
        Node("a_act", Activation(0.0), ["a"]),
        Node("b", Dense(w2, rng.standard_normal(d) * 0.1), ["input"]),
        Node("b_act", Activation(0.3), ["b"]),
        Node("sum", Add(), ["a_act", "b_act"]),
        Node("cat", Concat(0), ["sum", "a_act"]),
        Node("bn", BatchNormInference(rng.standard_normal(2 * d) * 0.5 + 1.0,
                                      rng.standard_normal(2 * d) * 0.1,
                                      rng.standard_normal(2 * d) * 0.1,
                                      np.abs(rng.standard_normal(2 * d)) + 0.5),
             ["cat"]),
        Node("drop", Dropout(0.25, training=True, seed=11), ["bn"]),
        Node("head", Dense(rng.standard_normal((4, 2 * d)) * 0.3,
                           rng.standard_normal(4) * 0.1), ["drop"]),
    ]
    return Network((d,), nodes, "head")


def tiny_rnn(seed=0, steps=3, d_in=4, d_h=5):
    rng = np.random.default_rng(seed)
    nodes = [
        Node("rec", Recurrent(rng.standard_normal((d_h, d_h)) * 0.4,
                              rng.standard_normal((d_h, d_in)) * 0.4,
                              rng.standard_normal(d_h) * 0.1,
                              0.1, steps), ["input"]),
        Node("head", Dense(rng.standard_normal((3, d_h)) * 0.3,
                           rng.standard_normal(3) * 0.1), ["rec"]),
    ]
    return Network((steps, d_in), nodes, "head")


def replace_weights(net, node_id, new_array):
    """Copy of net with one Dense/Conv2D node's weight array swapped."""
    nodes = []
    for node in net.nodes:
        if node.id == node_id:
            if isinstance(node.layer, Dense):
                lay = dataclasses.replace(node.layer, weights=new_array)
            else:
                lay = dataclasses.replace(node.layer, filters=new_array)
            nodes.append(Node(node.id, lay, list(node.inputs)))
        else:
            nodes.append(node)
    return Network(net.input_shape, nodes, net.output)


def with_scaled_offsets(net, factor):
    """Copy of net with every bias, recurrent bias and batch-norm shift
    (beta and running mean) multiplied by factor."""
    nodes = []
    for node in net.nodes:
        lay = node.layer
        if hasattr(lay, "bias"):
            lay = dataclasses.replace(lay, bias=lay.bias * factor)
        if hasattr(lay, "beta"):
            lay = dataclasses.replace(lay, beta=lay.beta * factor,
                                      running_mean=lay.running_mean * factor)
        nodes.append(Node(node.id, lay, node.inputs))
    return Network(net.input_shape, nodes, net.output)
