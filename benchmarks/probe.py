"""Kernel probe: the public conv2d and Tensor.backward on two fixed shapes.

``hot`` is the 16->16 3x3 conv at 64x64 that dominates phase 1; ``head``
is the 64->56 3x3 conv at 4x4 that leads the scanpath head. Forward and
backward are timed apart (median of several repetitions after one warm-up).
FLOPs and im2col bytes are computed from the shapes, not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from salypath.tensor import ConvLayer, Tensor, conv2d

SHAPES = {  # name: (in_ch, out_ch, kernel, spatial, batch)
    "hot": (16, 16, 3, 64, 16),
    "head": (64, 56, 3, 4, 16),
}


def conv_flops(cin: int, cout: int, k: int, hw: int, batch: int) -> int:
    """Multiply-adds x 2 of one stride-1 'same' conv forward."""
    return 2 * batch * hw * hw * cout * cin * k * k


def im2col_bytes(cin: int, k: int, hw: int, batch: int) -> int:
    """The float32 column buffer conv2d builds: [B, OH*OW, C*k*k]."""
    return 4 * batch * hw * hw * cin * k * k


def run(reps: int = 7, seed: int = 0) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}
    for name, (cin, cout, k, hw, batch) in SHAPES.items():
        layer = ConvLayer.init(cin, cout, k, rng, padding=k // 2)
        x = Tensor(rng.standard_normal((batch, cin, hw, hw)).astype(np.float32),
                   requires_grad=True)
        fwd, bwd = [], []
        for _ in range(reps + 1):
            for t in (x, layer.weight, layer.bias):
                t.grad = None
            t0 = time.perf_counter()
            y = conv2d(x, layer)
            t1 = time.perf_counter()
            loss = y.sum()
            t2 = time.perf_counter()
            loss.backward()
            t3 = time.perf_counter()
            fwd.append((t1 - t0) * 1e3)
            bwd.append((t3 - t2) * 1e3)
        f_ms, b_ms = statistics.median(fwd[1:]), statistics.median(bwd[1:])
        out[f"tensor.conv2d.{name}.fwd_ms"] = (f_ms, "ms")
        out[f"tensor.conv2d.{name}.bwd_ms"] = (b_ms, "ms")
        if name == "hot":
            # backward runs two GEMMs of the forward's size (dW and dX)
            flops = 3 * conv_flops(cin, cout, k, hw, batch)
            out["tensor.conv2d.hot.gflop_per_s"] = (flops / ((f_ms + b_ms) * 1e-3) / 1e9,
                                                    "GFLOP/s")
            out["tensor.conv2d.hot.im2col_mib"] = (im2col_bytes(cin, k, hw, batch) / 2**20,
                                                   "MiB")
    return out
