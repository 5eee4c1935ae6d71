"""Seeded random networks for tests and the CLI generator.

Five families at desk scale (widths capped at 64): plain mlp, cnn with
conv/max-pool/flatten, rnn with an unrolled recurrent cell, resnet-mini
with an additive skip, and unet-mini with encoder/decoder concat skips
at constant spatial size. Every draw comes from a counter-based
generator keyed by (seed, family, role), so generation is reproducible
bit for bit and independent of call order.
"""
from __future__ import annotations

import numpy as np

from .network import (
    Activation, Add, BatchNormInference, Concat, Conv2D, Dense, Dropout,
    Flatten, MaxPool, Network, Node, Recurrent,
)
from .numerics import keyed_rng as _rng

ARCHITECTURES = ("mlp", "cnn", "rnn", "resnet-mini", "unet-mini")

_LEAK_CHOICES = (0.0, 0.0, 0.1, 0.3, -1.0)


def _dense(rng, d_out: int, d_in: int) -> Dense:
    w = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
    return Dense(weights=w, bias=rng.standard_normal(d_out) * 0.1)


def _conv(rng, kh: int, kw: int, c: int, f: int, stride=(1, 1),
          padding="same") -> Conv2D:
    filt = rng.standard_normal((kh, kw, c, f)) / np.sqrt(kh * kw * c)
    return Conv2D(filters=filt, bias=rng.standard_normal(f) * 0.1,
                  stride=stride, padding=padding)


def _bn(rng, feat: int) -> BatchNormInference:
    return BatchNormInference(gamma=rng.uniform(0.5, 1.5, feat),
                              beta=rng.standard_normal(feat) * 0.1,
                              running_mean=rng.standard_normal(feat) * 0.2,
                              running_var=rng.uniform(0.5, 2.0, feat),
                              epsilon=1e-5)


def _cap(v: int, hi: int = 64) -> int:
    return max(1, min(int(v), hi))


def _mlp(seed: int, scale: int):
    rng = _rng(seed, "mlp")
    d_in = int(rng.integers(3, _cap(12 * scale, 256) + 1))
    depth = int(rng.integers(2, 6))
    width_hi = _cap(8 * scale, 32)
    nodes = []
    prev, prev_d = "input", d_in
    for i in range(depth - 1):
        w = int(rng.integers(3, width_hi + 1))
        nodes.append(Node(f"fc{i}", _dense(rng, w, prev_d), (prev,)))
        prev, prev_d = f"fc{i}", w
        if rng.random() < 0.25:
            nodes.append(Node(f"bn{i}", _bn(rng, w), (prev,)))
            prev = f"bn{i}"
        leak = float(rng.choice(_LEAK_CHOICES))
        nodes.append(Node(f"act{i}", Activation(leak), (prev,)))
        prev = f"act{i}"
        roll = rng.random()
        if roll < 0.15:
            nodes.append(Node(f"do{i}", Dropout(rate=0.25, training=True,
                                                seed=seed * 31 + i), (prev,)))
            prev = f"do{i}"
        elif roll < 0.25:
            nodes.append(Node(f"do{i}", Dropout(rate=0.5), (prev,)))
            prev = f"do{i}"
    d_out = int(rng.integers(2, _cap(6 * scale, 64) + 1))
    nodes.append(Node("head", _dense(rng, d_out, prev_d), (prev,)))
    return Network((d_in,), nodes, "head"), rng


def _cnn(seed: int, scale: int):
    rng = _rng(seed, "cnn")
    h = int(rng.integers(5, 9))
    w = int(rng.integers(5, 9))
    c = int(rng.integers(1, 4))
    f1 = _cap(int(rng.integers(2, 4 + 2 * scale)), 8)
    f2 = _cap(int(rng.integers(2, 4 + 2 * scale)), 8)
    leak = float(rng.choice(_LEAK_CHOICES))
    nodes = [
        Node("conv1", _conv(rng, 3, 3, c, f1), ("input",)),
        Node("act1", Activation(leak), ("conv1",)),
        Node("pool1", MaxPool(ksize=(2, 2), stride=(2, 2), padding="same"),
             ("act1",)),
        Node("conv2", _conv(rng, 3, 3, f1, f2, padding="valid"), ("pool1",)),
        Node("act2", Activation(float(rng.choice(_LEAK_CHOICES))), ("conv2",)),
        Node("flat", Flatten(), ("act2",)),
    ]
    prev = "flat"
    ph, pw = -(-h // 2), -(-w // 2)
    flat_d = (ph - 2) * (pw - 2) * f2
    if rng.random() < 0.3:
        nodes.append(Node("do", Dropout(rate=0.25, training=True, seed=seed),
                          ("flat",)))
        prev = "do"
    d_out = int(rng.integers(2, _cap(6 * scale, 64) + 1))
    nodes.append(Node("head", _dense(rng, d_out, flat_d), (prev,)))
    return Network((1, h, w, c), nodes, "head"), rng


def _rnn(seed: int, scale: int):
    rng = _rng(seed, "rnn")
    steps = int(rng.integers(2, 7))
    d_in = int(rng.integers(2, _cap(6 * scale, 32) + 1))
    hid = int(rng.integers(3, _cap(8 * scale, 32) + 1))
    cell = Recurrent(
        w_hidden=rng.standard_normal((hid, hid)) / np.sqrt(hid) * 0.7,
        w_input=rng.standard_normal((hid, d_in)) / np.sqrt(d_in),
        bias=rng.standard_normal(hid) * 0.1,
        leakiness=float(rng.choice(_LEAK_CHOICES)),
        steps=steps)
    d_out = int(rng.integers(2, _cap(6 * scale, 64) + 1))
    nodes = [
        Node("cell", cell, ("input",)),
        Node("act", Activation(0.1), ("cell",)),
        Node("head", _dense(rng, d_out, hid), ("act",)),
    ]
    return Network((steps, d_in), nodes, "head"), rng


def _resnet(seed: int, scale: int):
    rng = _rng(seed, "resnet-mini")
    d_in = int(rng.integers(3, _cap(10 * scale, 64) + 1))
    w = int(rng.integers(4, _cap(8 * scale, 32) + 1))
    leak = float(rng.choice(_LEAK_CHOICES))
    d_out = int(rng.integers(2, _cap(6 * scale, 64) + 1))
    nodes = [
        Node("stem", _dense(rng, w, d_in), ("input",)),
        Node("stem_act", Activation(leak), ("stem",)),
        Node("res_fc1", _dense(rng, w, w), ("stem_act",)),
        Node("res_act", Activation(leak), ("res_fc1",)),
        Node("res_fc2", _dense(rng, w, w), ("res_act",)),
        Node("join", Add(), ("stem_act", "res_fc2")),
        Node("join_act", Activation(leak), ("join",)),
        Node("head", _dense(rng, d_out, w), ("join_act",)),
    ]
    return Network((d_in,), nodes, "head"), rng


def _unet(seed: int, scale: int):
    rng = _rng(seed, "unet-mini")
    h = int(rng.integers(4, 7))
    w = int(rng.integers(4, 7))
    c = int(rng.integers(1, 3))
    f = _cap(int(rng.integers(2, 3 + scale)), 6)
    leak = float(rng.choice(_LEAK_CHOICES))
    # constant spatial size: stride-1 same-padding pooling stands in for
    # down/upsampling so the skip concats line up
    nodes = [
        Node("enc1", _conv(rng, 3, 3, c, f), ("input",)),
        Node("enc1_act", Activation(leak), ("enc1",)),
        Node("pool", MaxPool(ksize=(2, 2), stride=(1, 1), padding="same"),
             ("enc1_act",)),
        Node("mid", _conv(rng, 3, 3, f, f), ("pool",)),
        Node("mid_act", Activation(leak), ("mid",)),
        Node("skip", Concat(axis=3), ("enc1_act", "mid_act")),
        Node("dec", _conv(rng, 3, 3, 2 * f, f), ("skip",)),
        Node("dec_act", Activation(leak), ("dec",)),
        Node("flat", Flatten(), ("dec_act",)),
    ]
    d_out = int(rng.integers(2, _cap(6 * scale, 64) + 1))
    nodes.append(Node("head", _dense(rng, d_out, h * w * f), ("flat",)))
    return Network((1, h, w, c), nodes, "head"), rng


_BUILDERS = {"mlp": _mlp, "cnn": _cnn, "rnn": _rnn, "resnet-mini": _resnet,
             "unet-mini": _unet}


def generate(arch: str, seed: int, scale: int = 1) -> tuple[Network, np.ndarray]:
    """Build one (network, sample input) pair. Same (arch, seed, scale)
    always gives the same bits."""
    if arch not in _BUILDERS:
        raise ValueError(f"unknown architecture {arch!r}; choose from "
                         f"{ARCHITECTURES}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    net, _ = _BUILDERS[arch](int(seed), int(scale))
    x = _rng(seed, arch, "sample-input").standard_normal(net.input_shape)
    return net, x


def with_dense_head(net: Network, k: int, seed: int) -> Network:
    """Append a seeded dense head mapping the (flattened) output to k
    coordinates; used by the benchmark output-size sweep."""
    out_shape = net.plan.out_shape
    nodes = list(net.nodes)
    prev = net.output
    if len(out_shape) != 1:
        nodes.append(Node("sweep_flat", Flatten(), (prev,)))
        prev = "sweep_flat"
    rng = _rng(seed, "sweep-head", k)
    nodes.append(Node("sweep_head", _dense(rng, int(k), net.plan.d_out), (prev,)))
    return Network(net.input_shape, nodes, "sweep_head")
