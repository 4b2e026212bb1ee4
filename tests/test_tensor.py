"""Tensor core: op semantics against independent oracles, autodiff against
central finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salypath.errors import ConfigError, ContractError, DimensionError, NumericError
from salypath.tensor import (
    _CONV_CHUNK_BYTES,
    ConvLayer,
    Tensor,
    concat,
    conv2d,
    maxpool2,
    no_grad,
    softmax2d,
    upsample2,
)

from conftest import distinct_values, away_from_zero, gradcheck, graph_nodes


# -- oracles (independent, float64, loop-based) ---------------------------

def conv2d_oracle(x, w, b, stride, padding):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    bs, c, h, ww = x.shape
    oc, ic, kh, kw = w.shape
    assert c == ic
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, oc, oh, ow))
    for bi in range(bs):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    win = xp[bi, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[bi, o, i, j] = b[o] + (win * w[o]).sum()
    return out


def conv2d_channel_major_oracle(x, w, bias, stride, padding, g):
    """conv2d as shift-and-GEMM over a channel-major flat grid ``[C, cols]``,
    each tap one numpy matmul into a partial product that is then added
    into the accumulator, with its own chunk size. Same gap pitch and
    lead/tail as the pixel-major BLAS version, and the same taps in the
    same order, so where both reach BLAS kernels that sum the channels
    alike, forward and input gradient match it bit for bit. Returns
    (out, dx, dw, db) for output gradient g."""
    b, c, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    s, p = stride, padding
    hp, wp = h + max(p, 2 * p - kh + 1), wd + max(p, 2 * p - kw + 1)
    plane = hp * wp
    n = b * plane
    lead, tail = p * wp + p, (kh - 1) * wp + kw - 1
    offsets = [ki * wp + kj for ki in range(kh) for kj in range(kw)]
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(-1, out_ch, c)
    per_col = 4 * max(c + 2 * out_ch, out_ch + 3 * c)
    step = max(1, (512 * 1024) // (per_col * plane)) * plane
    chunks = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
    crop = (slice(None), slice(None), slice(0, h + 2 * p - kh + 1, s),
            slice(0, wd + 2 * p - kw + 1, s))
    xf = np.zeros((c, n + max(lead, tail)), dtype=np.float32)
    xf[:, lead:lead + n].reshape(c, b, hp, wp)[..., :h, :wd] = x.transpose(1, 0, 2, 3)
    acc = np.empty((out_ch, n), dtype=np.float32)
    part = np.empty((out_ch, min(step, n)), dtype=np.float32)
    for lo, hi in chunks:
        a, pa = acc[:, lo:hi], part[:, :hi - lo]
        np.matmul(wt[0], xf[:, lo:hi], out=a)
        for w_t, off in zip(wt[1:], offsets[1:]):
            np.matmul(w_t, xf[:, lo + off:hi + off], out=pa)
            a += pa
    grid = acc.reshape(out_ch, b, hp, wp)[crop].transpose(1, 0, 2, 3)
    out = np.empty(grid.shape, dtype=np.float32)
    np.add(grid, bias[:, None, None], out=out)

    gf = np.zeros((out_ch, b, hp, wp), dtype=np.float32)
    gf[crop] = g.transpose(1, 0, 2, 3)
    gf = gf.reshape(out_ch, n)
    dw = np.zeros((len(offsets), out_ch, c), dtype=np.float32)
    dxf = np.zeros(xf.shape, dtype=np.float32)
    part = np.empty((c, min(step, n)), dtype=np.float32)
    for lo, hi in chunks:
        gc, pa = gf[:, lo:hi], part[:, :hi - lo]
        for dw_t, w_t, off in zip(dw, wt, offsets):
            dw_t += gc @ xf[:, lo + off:hi + off].T
            np.matmul(w_t.T, gc, out=pa)
            dxf[:, lo + off:hi + off] += pa
    dw = np.ascontiguousarray(dw.reshape(kh, kw, out_ch, c).transpose(2, 3, 0, 1))
    dx = dxf[:, lead:lead + n].reshape(c, b, hp, wp)[..., :h, :wd]
    return out, np.ascontiguousarray(dx.transpose(1, 0, 2, 3)), dw, g.sum(axis=(0, 2, 3))


def maxpool2_oracle(x):
    x = np.asarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2))
    for bi in range(b):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[bi, ci, i, j] = x[bi, ci, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
    return out


def maxpool2_argmax_oracle(x, g):
    """The argmax formulation of 2x2 pooling: a transposed [..., 4] window
    copy, argmax, and a put_along_axis scatter. Returns the pooled values
    and the input gradient for output gradient g, both float32."""
    b, c, h, w = x.shape
    win = (x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
           .reshape(b, c, h // 2, w // 2, 4))
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dwin = np.zeros(win.shape, np.float32)
    np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
    dx = dwin.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return out, dx


def upsample2_grad_oracle(g):
    """Input gradient of 2x nearest upsampling as numpy's own window sum."""
    b, c, h, w = g.shape
    return g.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def pooling_inputs(rng, shape):
    """Maps that exercise 2x2 window maxima: distinct values, ties after
    quantization to quarters, constant windows, and windows that mix -0.0
    and +0.0 (equal under comparison, different in their bits)."""
    yield "random", rng.normal(size=shape)
    yield "quantized", np.round(rng.normal(size=shape) * 4) / 4
    yield "constant", np.full(shape, 0.75)
    yield "signed zeros", rng.choice(np.array([0.0, -0.0]), size=shape)


# Conv cases where flat-grid indexing is easiest to get wrong, as
# (batch, in_ch, out_ch, H, W, k), each a k x k "same" conv (padding k // 2):
# non-square input, 1x1, 5x5 and 7x7 kernels, odd extents, and kernels
# wider than the input. The last five give the BLAS operands a unit axis,
# where a view can be C- and F-contiguous at once: one input channel, one
# output channel, the attention gate's 2->1 7x7 conv at 4x4, a 1x1 conv on
# 1x1 planes, and one output channel over a batch of three 40x40 planes,
# one grid chunk each.
CONV_EDGE_CASES = [
    (2, 2, 3, 4, 7, 3),
    (2, 3, 2, 5, 3, 1),
    (1, 2, 2, 5, 6, 7),
    (2, 2, 3, 7, 9, 3),
    (1, 3, 2, 7, 5, 3),
    (2, 2, 3, 3, 3, 5),
    (2, 1, 3, 5, 6, 3),
    (2, 3, 1, 5, 6, 3),
    (2, 2, 1, 4, 4, 7),
    (3, 4, 2, 1, 1, 1),
    (3, 24, 1, 40, 40, 3),
]

# (in_ch, out_ch, H=W) of the desk model's 16 encoder and decoder convs,
# all 3x3, in forward order.
DESK_CONV_SHAPES = [
    (3, 16, 64), (16, 16, 64), (16, 32, 32), (32, 32, 32),
    (32, 48, 16), (48, 48, 16), (48, 64, 8), (64, 64, 8),
    (64, 64, 8), (64, 48, 8), (48, 48, 16), (48, 32, 16),
    (32, 32, 32), (32, 16, 32), (16, 16, 64), (16, 16, 64),
]


# 16 -> 16 channels at 24x24 give conv2d groups of 4 images: a batch of 6
# runs as a group of 4, then a shorter one of 2 on the same scratch grid
UNEVEN_GROUPS = (6, 16, 16, 24, 24, 3)


def random_conv_cases(rng, count=20):
    """Small random conv cases in the CONV_EDGE_CASES tuple layout: of
    ``count`` draws, the ones whose drawn padding is k // 2."""
    cases = []
    for _ in range(count):
        b = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        o = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        k = int(rng.choice([1, 3]))
        rng.choice([1, 2])  # unused; keeps every later draw, and so every case, fixed
        if int(rng.choice([0, 1])) == k // 2:
            cases.append((b, c, o, h, w, k))
    return cases


# -- forward semantics ------------------------------------------------------

def test_conv_box_sum():
    x = Tensor(np.ones((1, 1, 3, 3), np.float32))
    layer = ConvLayer(Tensor(np.ones((1, 1, 3, 3), np.float32)),
                      Tensor(np.zeros(1, np.float32)))
    y = conv2d(x, layer)
    assert y.data[0, 0, 1, 1] == 9.0
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert y.data[0, 0, i, j] == 4.0


def test_conv_layer_weight_must_be_an_odd_square_kernel():
    # one rule, one error each: even, non-square and even non-square
    # kernels, and a weight without its four axes
    b = Tensor(np.zeros(1, np.float32))
    for shape in [(1, 1, 4, 4), (1, 1, 3, 5), (1, 1, 2, 3), (1, 1, 3)]:
        with pytest.raises(ConfigError) as err:
            ConvLayer(Tensor(np.zeros(shape, np.float32)), b)
        assert str(err.value) == ("ConvLayer: weight must be [out, in, k, k] with k odd, "
                                  f"got {shape}")


def test_conv_layer_init_takes_only_the_same_padding():
    # benchmarks/probe.py builds its layers with padding=k // 2
    for k in (1, 3, 7):
        layer = ConvLayer.init(2, 3, k, np.random.default_rng(0), padding=k // 2)
        plain = ConvLayer.init(2, 3, k, np.random.default_rng(0))
        assert layer.weight.data.tobytes() == plain.weight.data.tobytes()
        assert conv2d(Tensor(np.ones((1, 2, 5, 4), np.float32)), layer).shape == (1, 3, 5, 4)
        for bad in (k // 2 + 1, k // 2 - 1, float(k // 2), True):
            with pytest.raises(ConfigError, match="^ConvLayer.init: padding must be"):
                ConvLayer.init(2, 3, k, np.random.default_rng(0), padding=bad)


@pytest.mark.parametrize("padding", [1.7, 1.0, True, -1])
def test_conv_layer_padding_must_be_a_non_negative_int(padding):
    # the padding left is ConvLayer.init's checked keyword: a float, a bool or
    # a negative value raises, and a numpy integer equal to k // 2 builds
    with pytest.raises(ConfigError, match="^ConvLayer.init: padding must be"):
        ConvLayer.init(1, 1, 3, np.random.default_rng(0), padding=padding)
    layer = ConvLayer.init(1, 1, 3, np.random.default_rng(0), padding=np.int64(1))
    assert layer.weight.shape == (1, 1, 3, 3)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", [(1, 2, 0, 4), (1, 2, 4, 0)], ids=["no-rows", "no-columns"])
def test_conv_rejects_an_empty_plane(shape, k):
    layer = ConvLayer(Tensor(np.zeros((1, 2, k, k), np.float32)), Tensor(np.zeros(1, np.float32)))
    h, w = shape[2:]
    with pytest.raises(DimensionError, match=rf"^conv2d: empty spatial plane {h}x{w}$"):
        conv2d(Tensor(np.zeros(shape, np.float32)), layer)


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 5, 5)).astype(np.float32)
    w = np.zeros((1, 1, 3, 3), np.float32)
    w[0, 0, 1, 1] = 1.0
    layer = ConvLayer(Tensor(w), Tensor(np.zeros(1, np.float32)))
    y = conv2d(Tensor(x), layer)
    np.testing.assert_array_equal(y.data, x)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for case in random_conv_cases(rng) + CONV_EDGE_CASES:
        b, c, o, h, w, k = case
        x = rng.normal(size=(b, c, h, w)).astype(np.float32)
        wt = rng.normal(size=(o, c, k, k)).astype(np.float32)
        bias = rng.normal(size=o).astype(np.float32)
        layer = ConvLayer(Tensor(wt), Tensor(bias))
        got = conv2d(Tensor(x), layer).data
        want = conv2d_oracle(x, wt, bias, 1, k // 2)
        np.testing.assert_allclose(got, want, atol=1e-5, err_msg=str(case))


def _conv_with_grads(x, w, bias, g, op=conv2d):
    xt = Tensor(x, requires_grad=True)
    layer = ConvLayer(Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True))
    y = op(xt, layer)
    (y * Tensor(g)).sum().backward()
    return y.data, xt.grad, layer.weight.grad, layer.bias.grad


def _oracle_inputs(rng, case):
    b, c, o, h, w, k = case
    x = rng.normal(size=(b, c, h, w)).astype(np.float32)
    wt = (rng.normal(size=(o, c, k, k)) * 0.3).astype(np.float32)
    bias = rng.normal(size=o).astype(np.float32)
    g = rng.normal(size=(b, o, h, w)).astype(np.float32)
    return x, wt, bias, g


def _channel_major(x, w, bias, g):
    return conv2d_channel_major_oracle(x, w, bias, 1, w.shape[-1] // 2, g)


def test_conv_bitwise_matches_channel_major_oracle():
    # forward, input and bias gradients sum the same products in the same
    # order as the channel-major matmul-and-add version; the weight
    # gradient accumulates K blocks inside BLAS, so its rounding moves.
    # The random cases are the loop-oracle test's (same seed).
    rng = np.random.default_rng(7)
    desk = [(2, ci, co, hw, hw, 3) for ci, co, hw in DESK_CONV_SHAPES]
    for case in random_conv_cases(rng) + CONV_EDGE_CASES + desk + [UNEVEN_GROUPS]:
        args = _oracle_inputs(rng, case)
        got = _conv_with_grads(*args)
        want = _channel_major(*args)
        for name, a, b in zip(("out", "dx", "dw", "db"), got, want):
            assert a.shape == b.shape, (case, name)
            if name == "dw":
                np.testing.assert_allclose(a, b, rtol=5e-6, atol=5e-6 * np.abs(b).max(),
                                           err_msg=str(case))
            else:
                assert a.tobytes() == b.tobytes(), (case, name)


def test_conv_reordering_kernel_shapes_match_channel_major_oracle():
    # Shapes where OpenBLAS runs the transposed problem (numpy's row-major
    # matmul against a column-major sgemm) through kernels that sum the
    # input channels in another order, so values agree to float32
    # rounding, not in bits: the desk head convs at 4x4 and the gate's
    # channel MLP on 1x1 planes (16+ input channels, few grid positions),
    # and one output channel from four input channels.
    rng = np.random.default_rng(22)
    head = [(64, 64), (64, 56), (56, 48), (48, 40), (40, 32), (32, 24),
            (24, 20), (20, 16), (16, 12), (12, 8)]
    cases = [(b, ci, co, 4, 4, 3) for ci, co in head for b in (1, 2, 16)]
    cases += [(b, ci, co, 1, 1, 1) for ci, co in ((64, 16), (16, 64)) for b in (1, 2)]
    cases += [(2, 4, 1, 5, 6, k) for k in (1, 3)]
    for case in cases:
        args = _oracle_inputs(rng, case)
        got = _conv_with_grads(*args)
        want = _channel_major(*args)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max(),
                                       err_msg=str(case))


def test_conv_batch_equals_stacked_single_images():
    # 16 channels at 40x40 make conv2d split a batch into groups of one
    # image, each on its own grid: the same grid a single image gets
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(4, 16, 40, 40)).astype(np.float32)
    layer = ConvLayer(Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1,
                             requires_grad=True),
                      Tensor(rng.normal(size=16).astype(np.float32), requires_grad=True))
    coeffs = rng.normal(size=(4, 16, 40, 40)).astype(np.float32)

    def run(lo, hi):
        x = Tensor(xs[lo:hi], requires_grad=True)
        layer.weight.grad = layer.bias.grad = None
        y = conv2d(x, layer)
        (y * Tensor(coeffs[lo:hi])).sum().backward()
        return y.data, x.grad, layer.weight.grad, layer.bias.grad

    y, dx, dw, db = run(0, 4)
    singles = [run(i, i + 1) for i in range(4)]
    np.testing.assert_allclose(y, np.concatenate([r[0] for r in singles]), rtol=0, atol=1e-5)
    np.testing.assert_allclose(dx, np.concatenate([r[1] for r in singles]), rtol=0, atol=1e-5)
    np.testing.assert_allclose(dw, sum(r[2] for r in singles), rtol=1e-5, atol=1e-3)
    np.testing.assert_allclose(db, sum(r[3] for r in singles), rtol=1e-5, atol=1e-3)


def test_conv_input_without_grad_keeps_parameter_grads():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
    layer = ConvLayer(Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                             requires_grad=True),
                      Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True))
    grads = []
    for needs in (True, False):
        x = Tensor(xs, requires_grad=needs)
        layer.weight.grad = layer.bias.grad = None
        y = conv2d(x, layer)
        (y * y).sum().backward()
        assert (x.grad is not None) == needs
        grads.append((layer.weight.grad, layer.bias.grad))
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


def test_conv_input_from_an_op_still_returns_dx():
    # the conv's input is an op output, not a leaf: it must still hand dx
    # back so the leaf behind it gets a gradient, and keep no .grad itself
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 5, 6)).astype(np.float32), requires_grad=True)
    layer = ConvLayer(Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                             requires_grad=True),
                      Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True))
    h = x * 2.0
    y = conv2d(h, layer)
    g = rng.normal(size=y.shape).astype(np.float32)
    dx = y._vjp(g)[0]
    assert dx is not None and dx.shape == h.shape
    (y * Tensor(g)).sum().backward()
    assert h.grad is None and y.grad is None
    assert x.grad.tobytes() == (dx * np.float32(2.0)).tobytes()


def test_conv_repeat_calls_are_bitwise_identical():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4, 10, 7)).astype(np.float32), requires_grad=True)
    layer = ConvLayer(Tensor(rng.normal(size=(5, 4, 3, 3)).astype(np.float32),
                             requires_grad=True),
                      Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True))
    coeffs = Tensor(rng.normal(size=(3, 5, 10, 7)).astype(np.float32))
    runs = []
    for _ in range(2):
        for t in (x, layer.weight, layer.bias):
            t.grad = None
        y = conv2d(x, layer)
        (y * coeffs).sum().backward()
        runs.append([y.data.copy()] + [t.grad.copy() for t in (x, layer.weight, layer.bias)])
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


def _fused(x, layer):
    return conv2d(x, layer, relu=True)


def _unfused(x, layer):
    return conv2d(x, layer).relu()


def _assert_same_bits(got, want, case):
    for name, a, b in zip(("out", "dx", "dw", "db"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (case, name)


def test_conv_fused_relu_bitwise_matches_unfused():
    # the random cases are the loop-oracle test's (same seed); the last
    # two split the batch into several groups, the very last unevenly
    rng = np.random.default_rng(7)
    chunked = [(4, 16, 16, 40, 40, 3), UNEVEN_GROUPS]
    for case in random_conv_cases(rng) + CONV_EDGE_CASES + chunked:
        args = _oracle_inputs(rng, case)
        _assert_same_bits(_conv_with_grads(*args, op=_fused),
                          _conv_with_grads(*args, op=_unfused), case)


def test_conv_fused_relu_bitwise_at_zeros_and_nan():
    # all-zero windows give pre-activations equal to the bias: exact +0.0
    # from a 0.0 and a -0.0 bias; the NaN input spreads to its 3x3
    # neighbourhood. BLAS sums signed-zero products to +0.0, so no conv
    # pre-activation is -0.0; the mask rule out > 0 <=> a > 0 is checked
    # on such values directly below.
    rng = np.random.default_rng(23)
    x, w, _, g = _oracle_inputs(rng, (2, 2, 3, 5, 6, 3))
    x[:, :, :, :3] = 0.0
    x[0, 1, 1, 1] = -0.0
    x[1, 0, 3, 4] = np.nan
    bias = np.array([0.0, -0.0, 0.5], np.float32)
    pre = conv2d(Tensor(x), ConvLayer(Tensor(w), Tensor(bias))).data
    assert (pre == 0).any() and np.isnan(pre).any() and (pre < 0).any()
    _assert_same_bits(_conv_with_grads(x, w, bias, g, op=_fused),
                      _conv_with_grads(x, w, bias, g, op=_unfused), "zeros/nan")

    a = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1.5, -1.5],
                 np.float32)
    out = a.copy()
    np.maximum(out, 0, out=out)
    assert out.tobytes() == Tensor(a).relu().data.tobytes()
    np.testing.assert_array_equal(out > 0, a > 0)


def test_conv_sites_retain_only_their_outputs():
    # Between forward and backward a conv site may hold its output and
    # small per-layer arrays, not its padded grid, accumulator or a second
    # (pre-activation) output: two chained sites leave about two
    # activations live. Keeping the grid as well reads over six.
    rng = np.random.default_rng(31)
    layers = [ConvLayer(Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1,
                               requires_grad=True),
                        Tensor(np.zeros(16, np.float32), requires_grad=True))
              for _ in range(2)]
    x = Tensor(rng.normal(size=(4, 16, 32, 32)).astype(np.float32), requires_grad=True)
    layers[0](x, relu=True)  # loads sgemm outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = layers[1](layers[0](x, relu=True), relu=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * x.data.nbytes, held / x.data.nbytes
    y.sum().backward()
    assert x.grad is not None and layers[0].weight.grad is not None


def test_conv_scratch_is_group_sized():
    # Peak traced memory over a fused conv and its vjp at a batch of 16
    # 64x64 images (16 groups of one): the output, the masked gradient and
    # the input gradient must be held, each the input's size; the grids,
    # accumulator and gradient grids are one group each. Batch-sized
    # grids add three more input-sized arrays.
    rng = np.random.default_rng(37)
    layer = ConvLayer(Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1,
                             requires_grad=True),
                      Tensor(np.zeros(16, np.float32), requires_grad=True))
    x = Tensor(rng.normal(size=(16, 16, 64, 64)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=x.shape).astype(np.float32)
    layer(Tensor(x.data[:1]), relu=True)  # loads sgemm outside the measurement
    tracemalloc.start()
    try:
        y = layer(x, relu=True)
        dx, dw, db = y._vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape and dw.shape == layer.weight.shape
    bound = 3 * x.data.nbytes + 4 * _CONV_CHUNK_BYTES
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_conv_one_image_groups_give_each_image_its_own_bits():
    # At 64x64, 16->16, 3x3 a group is one image (one image's grid rows
    # pass _CONV_CHUNK_BYTES), so every GEMM has the same size whatever the
    # batch: an image's output and input gradient in a batch of 3 are its
    # bits alone. Where a group holds several images they need not be.
    rng = np.random.default_rng(41)
    layer = ConvLayer(Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1),
                      Tensor(rng.normal(size=16).astype(np.float32)))
    assert 4 * (16 + 2 * 16) * 65 * 65 > _CONV_CHUNK_BYTES
    x = Tensor(rng.normal(size=(3, 16, 64, 64)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=x.shape).astype(np.float32)
    y = layer(x, relu=True)
    dx = y._vjp(g)[0]
    for i in range(3):
        xi = Tensor(x.data[i:i + 1], requires_grad=True)
        yi = layer(xi, relu=True)
        assert yi.data.tobytes() == y.data[i:i + 1].tobytes()
        assert yi._vjp(g[i:i + 1])[0].tobytes() == dx[i:i + 1].tobytes()


def test_conv_channel_mismatch_names_axis():
    x = Tensor(np.zeros((1, 3, 4, 4), np.float32))
    layer = ConvLayer(Tensor(np.zeros((2, 4, 3, 3), np.float32)),
                      Tensor(np.zeros(2, np.float32)))
    with pytest.raises(DimensionError, match="axis 1"):
        conv2d(x, layer)


def test_maxpool_single_window():
    y = maxpool2(Tensor(np.array([[[[1, 2], [3, 4]]]], np.float32)))
    assert y.data.reshape(()) == 4.0


def test_maxpool_matches_window_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        got = maxpool2(Tensor(x)).data
        np.testing.assert_allclose(got, maxpool2_oracle(x), atol=0)


def test_maxpool_tie_gradient_goes_first_index():
    x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
    maxpool2(x).sum().backward()
    np.testing.assert_array_equal(
        x.grad, np.array([[[[1, 0], [0, 0]]]], np.float32))


def test_maxpool_bitwise_matches_argmax_oracle():
    rng = np.random.default_rng(17)
    for shape in [(2, 3, 4, 6), (1, 2, 2, 2), (3, 2, 6, 2), (2, 16, 32, 32)]:
        for kind, values in pooling_inputs(rng, shape):
            x = values.astype(np.float32)
            g = rng.normal(size=shape[:2] + (shape[2] // 2, shape[3] // 2)).astype(np.float32)
            xt = Tensor(x, requires_grad=True)
            y = maxpool2(xt)
            (y * Tensor(g)).sum().backward()
            want, want_dx = maxpool2_argmax_oracle(x, g)
            assert y.data.tobytes() == want.tobytes(), (shape, kind)
            assert xt.grad.tobytes() == want_dx.tobytes(), (shape, kind)


def test_maxpool_signed_zero_window_keeps_first_cell():
    # -0.0 == +0.0, so the first cell wins and its bits are the output;
    # np.maximum(-0.0, +0.0) would return +0.0
    x = Tensor(np.array([[[[-0.0, 0.0], [0.0, -0.0]]]], np.float32), requires_grad=True)
    y = maxpool2(x)
    assert np.signbit(y.data).all()
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, np.array([[[[1, 0], [0, 0]]]], np.float32))


def test_maxpool_odd_extent_rejected():
    with pytest.raises(DimensionError, match="axis 2"):
        maxpool2(Tensor(np.zeros((1, 1, 3, 4), np.float32)))
    with pytest.raises(DimensionError, match="axis 3"):
        maxpool2(Tensor(np.zeros((1, 1, 4, 5), np.float32)))


def test_upsample_values_and_shape_roundtrip():
    x = Tensor(np.array([[[[1, 2], [3, 4]]]], np.float32))
    y = upsample2(x)
    want = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]],
                    np.float32)
    np.testing.assert_array_equal(y.data, want)
    z = np.random.default_rng(0).normal(size=(2, 3, 6, 4)).astype(np.float32)
    assert upsample2(maxpool2(Tensor(z))).shape == z.shape


def test_upsample_gradient_all_fours():
    x = Tensor(np.zeros((1, 2, 3, 3), np.float32), requires_grad=True)
    upsample2(x).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 3, 3), 4.0, np.float32))


def test_upsample_gradient_bitwise_matches_window_sum():
    # numpy sums each 2x2 window pairwise, as upsample2 does, except at
    # width 1, where it adds the four cells in sequence; width 1 is left out
    rng = np.random.default_rng(19)
    for shape in [(1, 1, 1, 2), (2, 3, 2, 3), (2, 3, 5, 4), (1, 2, 8, 7), (2, 16, 16, 16)]:
        x = Tensor(np.zeros(shape, np.float32), requires_grad=True)
        for kind, values in pooling_inputs(rng, shape[:2] + (2 * shape[2], 2 * shape[3])):
            g = values.astype(np.float32)
            x.grad = None
            (upsample2(x) * Tensor(g)).sum().backward()
            assert x.grad.tobytes() == upsample2_grad_oracle(g).tobytes(), (shape, kind)


def test_sigmoid_zero_is_half():
    assert Tensor(np.zeros(3, np.float32)).sigmoid().data.tolist() == [0.5] * 3


def test_softmax_uniform_plane():
    for beta in (0.1, 1.0, 10.0):
        p = softmax2d(Tensor(np.full((1, 1, 4, 4), 3.7, np.float32)), beta)
        np.testing.assert_allclose(p.data, 1.0 / 16.0, atol=1e-7)


def test_softmax_matches_hand_evaluation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3)).astype(np.float32)
    got = softmax2d(Tensor(x), beta=2.0).data
    z = 2.0 * x.astype(np.float64)
    e = np.exp(z - z.max())
    np.testing.assert_allclose(got, e / e.sum(), atol=1e-6)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 10_000),
    beta=st.sampled_from([0.1, 1.0, 10.0]),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    c=st.integers(1, 3),
    scale=st.sampled_from([1.0, 100.0, 10_000.0]),
)
def test_softmax_planes_sum_to_one(seed, beta, h, w, c, scale):
    x = np.random.default_rng(seed).normal(size=(1, c, h, w)) * scale
    p = softmax2d(Tensor(x.astype(np.float32)), beta)
    sums = p.data.sum(axis=(-2, -1))
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_softmax_rejects_nonfinite_and_bad_beta():
    bad = np.zeros((1, 1, 2, 2), np.float32)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        softmax2d(Tensor(bad), 1.0)
    with pytest.raises(ContractError):
        softmax2d(Tensor(np.zeros((1, 1, 2, 2), np.float32)), 0.0)


@pytest.mark.parametrize("shape", [(0, 4), (2, 1, 4, 0), (1, 1, 0, 0)],
                         ids=["hw-0x4", "bchw-4x0", "bchw-0x0"])
def test_softmax_rejects_empty_plane(shape):
    h, w = shape[-2:]
    with pytest.raises(DimensionError, match=f"^softmax2d: empty spatial plane {h}x{w}$"):
        softmax2d(Tensor(np.zeros(shape, np.float32)), 1.0)


# -- backward contract ------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), np.float32))


def test_backward_square_known_values():
    x = Tensor(np.array([1, 2, 3], np.float32), requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, np.array([2, 4, 6], np.float32))


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, 2 * first)
    x.grad = None
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_repeated_on_same_graph_no_double_count():
    x = Tensor(np.array([3.0], np.float32), requires_grad=True)
    y = x * x
    loss = y.sum()
    loss.backward()
    loss.backward()
    # two passes over one graph accumulate exactly twice the true gradient
    np.testing.assert_allclose(x.grad, np.array([12.0], np.float32))


def test_backward_keeps_grad_on_leaves_only():
    # one graph through every op of the module: after backward only the
    # leaves that ask for a gradient hold one; op outputs and constants do not
    rng = np.random.default_rng(41)
    x = Tensor(away_from_zero(rng, (2, 3, 4, 4)), requires_grad=True)
    layer = ConvLayer(Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32),
                             requires_grad=True),
                      Tensor(np.zeros(2, np.float32), requires_grad=True))
    scale = Tensor(np.float32(1.5), requires_grad=True)
    y = upsample2(softmax2d(maxpool2(conv2d(x, layer, relu=True)) * scale - 0.5))
    z = concat([y, conv2d(x, layer).relu().sigmoid()], axis=1)
    z = (z + 1.0).log().sqrt() / (z.max(axis=1, keepdims=True) + 2.0)
    loss = z[0].reshape(-1).mean() - z.sum() * 0.01 + -z.mean()
    loss.backward()
    nodes = graph_nodes(loss)
    leaves = [n for n in nodes if n._vjp is None and n.requires_grad]
    assert {id(n) for n in leaves} == {id(t) for t in (x, layer.weight, layer.bias, scale)}
    assert all(n.grad is not None and n.grad.shape == n.shape for n in leaves)
    others = [n for n in nodes if n._vjp is not None or not n.requires_grad]
    assert len(others) > 25 and all(n.grad is None for n in others)


def test_backward_rejects_nonscalar():
    x = Tensor(np.zeros((2, 2), np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2).backward()


def test_diamond_graph_gradient():
    # f = sum((x + x) * x) = 2 * sum(x^2); df/dx = 4x
    x = Tensor(np.array([1.0, -2.0, 0.5], np.float32), requires_grad=True)
    ((x + x) * x).sum().backward()
    np.testing.assert_allclose(x.grad, 4 * x.data, rtol=1e-6)


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert y._vjp is None and not y.requires_grad


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    b = Tensor(np.ones((1, 3), np.float32), requires_grad=True)
    c = Tensor(np.ones((), np.float32), requires_grad=True)
    ((a + b) * c).sum().backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0, np.float32))
    assert c.grad.shape == ()
    assert float(c.grad) == 12.0  # sum of (a + b) over all six cells


def test_max_reduction_first_index_ties():
    x = Tensor(np.array([[2.0, 2.0], [2.0, 2.0]], np.float32), requires_grad=True)
    x.max().backward()
    np.testing.assert_array_equal(x.grad, np.array([[1, 0], [0, 0]], np.float32))
    y = Tensor(np.array([[1.0, 5.0], [5.0, 0.0]], np.float32), requires_grad=True)
    y.max(axis=1).sum().backward()
    np.testing.assert_array_equal(y.grad, np.array([[0, 1], [1, 0]], np.float32))


@pytest.mark.parametrize("axis", [(2, 3), (3, 2), (-1, -2)], ids=["in-order", "reversed",
                                                                    "negative-reversed"])
def test_max_tie_goes_to_row_major_first_for_any_axis_order(axis):
    # the cells (0, 1) and (1, 0) tie; (0, 1) comes first in row-major order
    x = Tensor(np.array([[[[0.0, 5.0], [5.0, 0.0]]]], np.float32), requires_grad=True)
    x.max(axis=axis).sum().backward()
    np.testing.assert_array_equal(x.grad[0, 0], np.array([[0, 1], [0, 0]], np.float32))


def test_getitem_scatters_gradient():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    (x[1] * 2).sum().backward()
    want = np.zeros((3, 4), np.float32)
    want[1] = 2.0
    np.testing.assert_array_equal(x.grad, want)


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    (concat([a, b], axis=1) * 3).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 3.0, np.float32))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 3.0, np.float32))
    with pytest.raises(DimensionError):
        concat([a, Tensor(np.ones((3, 2), np.float32))], axis=1)


@pytest.mark.parametrize("op", ["max", "concat"])
@pytest.mark.parametrize("axis", [3, -4])
def test_out_of_range_axis_raises_axis_error(op, axis):
    # a modulo-ndim reading would reduce or join along another axis
    x = Tensor(np.zeros((2, 3, 4), np.float32))
    with pytest.raises(np.exceptions.AxisError):
        x.max(axis=axis) if op == "max" else concat([x, x], axis=axis)


def test_max_rejects_repeated_axis():
    with pytest.raises(ValueError, match="repeated axis"):
        Tensor(np.zeros((2, 3, 4), np.float32)).max(axis=(1, 1))


@pytest.mark.parametrize("other", [(2, 3), (2, 4, 5)], ids=["rank", "extent"])
def test_concat_mismatch_raises_dimension_error(other):
    x = Tensor(np.zeros((2, 3, 4), np.float32))
    with pytest.raises(DimensionError, match="^concat: "):
        concat([x, Tensor(np.zeros(other, np.float32))], axis=2)


# -- finite-difference sweeps ------------------------------------------------

def check_op(build, tensors, seed):
    """Gradcheck ``build`` through a frozen random linear readout (drawn
    once, so every finite-difference evaluation sees the same function),
    mean-scaled to keep the loss near unit magnitude for float32."""
    shape = build().shape
    coeffs = Tensor(np.random.default_rng(seed).uniform(0.5, 1.5, size=shape)
                    .astype(np.float32))
    n = np.float32(max(1, coeffs.size))
    gradcheck(lambda: (build() * coeffs).sum() / n, tensors)


def test_gradcheck_arithmetic_ops():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = Tensor(away_from_zero(rng, (3, 4)), requires_grad=True)
        b = Tensor(away_from_zero(rng, (3, 4), min_abs=0.2), requires_grad=True)
        check_op(lambda: (a * b + a - b) / (b * b + 1.0), [a, b], seed + 1000)
        c = Tensor(rng.uniform(0.2, 2.0, (2, 5)).astype(np.float32), requires_grad=True)
        check_op(lambda: c.log() + c.sqrt() + (-c).sigmoid(), [c], seed + 1500)


def test_gradcheck_activations():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(away_from_zero(rng, (2, 3, 4, 2)), requires_grad=True)
        check_op(lambda: x.relu(), [x], seed + 2000)
        check_op(lambda: x.sigmoid(), [x], seed + 2100)
        y = Tensor(rng.normal(size=(1, 2, 3, 4)).astype(np.float32), requires_grad=True)
        check_op(lambda: softmax2d(y, 2.0), [y], seed + 2200)


def test_gradcheck_reductions_and_shapes():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(distinct_values(rng, (2, 3, 4)), requires_grad=True)
        check_op(lambda: x.sum(axis=1), [x], seed + 3000)
        check_op(lambda: x.mean(axis=(0, 2), keepdims=True), [x], seed + 3100)
        check_op(lambda: x.max(axis=2), [x], seed + 3200)
        check_op(lambda: x.max(axis=(1, 2), keepdims=True), [x], seed + 3300)
        check_op(lambda: x.reshape(6, 4), [x], seed + 3400)
        check_op(lambda: x[1, :, 1:3], [x], seed + 3500)


def check_conv(rng, x, layer, seed):
    """Gradcheck ``conv2d(x, layer)``, then its fused-ReLU form. For the
    fused form ``x`` is redrawn until no pre-activation lies within 5e-3 of
    the kink, beyond what a 1e-3 probe step moves one at these scales."""
    params = [x, layer.weight, layer.bias]
    check_op(lambda: conv2d(x, layer), params, seed)
    for _ in range(20):
        if np.abs(conv2d(x, layer).data).min() >= 5e-3:
            break
        x.data[...] = rng.normal(size=x.shape)
    else:
        raise AssertionError("no kink-free input found for the fused gradcheck")
    check_op(lambda: conv2d(x, layer, relu=True), params, seed)


def test_gradcheck_conv2d():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rng.choice([1, 2])  # unused padding draws; they keep every later draw fixed
        rng.choice([0, 1])
        x = Tensor(rng.normal(size=(1, 2, 6, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * 0.5,
                   requires_grad=True)
        b = Tensor(rng.normal(size=3).astype(np.float32) * 0.1, requires_grad=True)
        layer = ConvLayer(w, b)
        check_conv(rng, x, layer, seed + 4000)
    for i, (bs, c, o, h, ww, k) in enumerate(CONV_EDGE_CASES):
        if bs * c * h * ww > 4096:
            continue  # two forwards per input element; the oracles cover it
        rng = np.random.default_rng(4100 + i)
        x = Tensor(rng.normal(size=(bs, c, h, ww)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(o, c, k, k)).astype(np.float32) * 0.5,
                   requires_grad=True)
        b = Tensor(rng.normal(size=o).astype(np.float32) * 0.1, requires_grad=True)
        layer = ConvLayer(w, b)
        check_conv(rng, x, layer, 4200 + i)


def test_gradcheck_pooling_and_upsampling():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(distinct_values(rng, (1, 2, 4, 6)), requires_grad=True)
        check_op(lambda: maxpool2(x), [x], seed + 5000)
        check_op(lambda: upsample2(x), [x], seed + 5100)


def test_repr_shows_shape_and_grad_flag():
    # parameter names live in SalypathModel.parameters(), not on the tensor
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    assert repr(t) == "Tensor(shape=(2, 3), requires_grad=True)"
    assert repr(Tensor(1.0)) == "Tensor(shape=())"
    assert not hasattr(t, "name")
