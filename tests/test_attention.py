"""Attention gate: channel and spatial branches against hand-rolled
float64 oracles, the gated-residual composition, and finite-difference
gradient checks with inputs screened away from relu/argmax kinks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from salypath.attention import AttentionGate, attend, channel_attention, spatial_attention
from salypath.errors import ConfigError
from salypath.errors import ContractError
from salypath.tensor import Tensor, kaiming_uniform, recording

from conftest import distinct_values, gradcheck


# -- oracles ----------------------------------------------------------------

def _sigmoid64(a):
    return 1.0 / (1.0 + np.exp(-np.asarray(a, dtype=np.float64)))


def channel_attention_oracle(x, gate):
    """Loop evaluation of sigmoid(MLP(avg) + MLP(max)) in float64."""
    x = np.asarray(x, dtype=np.float64)
    bdim, c = x.shape[0], x.shape[1]
    w1 = gate.ch_mlp[0].weight.data.astype(np.float64)[:, :, 0, 0]
    b1 = gate.ch_mlp[0].bias.data.astype(np.float64)
    w2 = gate.ch_mlp[1].weight.data.astype(np.float64)[:, :, 0, 0]
    b2 = gate.ch_mlp[1].bias.data.astype(np.float64)
    hidden = w1.shape[0]

    def mlp(desc):  # desc: [C] -> [C]
        h = np.zeros(hidden)
        for hh in range(hidden):
            h[hh] = max(0.0, sum(w1[hh, cc] * desc[cc] for cc in range(c)) + b1[hh])
        out = np.zeros(c)
        for cc in range(c):
            out[cc] = sum(w2[cc, hh] * h[hh] for hh in range(hidden)) + b2[cc]
        return out

    out = np.zeros((bdim, c, 1, 1))
    for bi in range(bdim):
        avg = np.array([x[bi, cc].mean() for cc in range(c)])
        mx = np.array([x[bi, cc].max() for cc in range(c)])
        out[bi, :, 0, 0] = _sigmoid64(mlp(avg) + mlp(mx))
    return out


def spatial_attention_oracle(x, gate):
    """Loop evaluation of sigmoid(conv_k([mean_c, max_c])) in float64."""
    x = np.asarray(x, dtype=np.float64)
    bdim, _, h, w = x.shape
    k = gate.spatial_kernel
    pad = (k - 1) // 2
    kw = gate.sp_conv.weight.data.astype(np.float64)
    kb = float(gate.sp_conv.bias.data[0])
    desc = np.stack([x.mean(axis=1), x.max(axis=1)], axis=1)
    dp = np.pad(desc, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((bdim, 1, h, w))
    for bi in range(bdim):
        for i in range(h):
            for j in range(w):
                acc = kb
                for ci in range(2):
                    for ki in range(k):
                        for kj in range(k):
                            acc += dp[bi, ci, i + ki, j + kj] * kw[0, ci, ki, kj]
                out[bi, 0, i, j] = _sigmoid64(acc)
    return out


def attend_oracle(x, gate):
    x = np.asarray(x, dtype=np.float64)
    refined = x * channel_attention_oracle(x, gate)
    z = x * spatial_attention_oracle(refined, gate)
    return x + float(gate.gamma.data) * z


def new_gate(channels, reduction, spatial_kernel, seed=0):
    """Gate with fresh weights drawn from ``seed``, and its name -> parameter
    table."""
    params = {}
    make = recording(kaiming_uniform(np.random.default_rng(seed)), params)
    return AttentionGate(channels, reduction, spatial_kernel, make=make), params


def _zero_gate(channels=4, reduction=4, spatial_kernel=3):
    gate, params = new_gate(channels, reduction, spatial_kernel)
    for p in params.values():
        p.data[...] = 0.0
    return gate


# -- construction contracts --------------------------------------------------

def test_reduction_must_divide_channels():
    with pytest.raises(ConfigError, match="divisible"):
        new_gate(channels=6, reduction=4, spatial_kernel=7)


def test_spatial_kernel_must_be_odd():
    # ConvLayer owns the rule, and checks it before the weight is drawn
    for k in (4, 0, -1):
        with pytest.raises(ConfigError, match=r"^ConvLayer: weight must be \[out, in, k, k\] "
                                              r"with k odd, got \(1, 2, "):
            new_gate(channels=8, reduction=4, spatial_kernel=k)


@pytest.mark.parametrize("channels, reduction, spatial_kernel, field", [
    (64.7, 4, 7, "channels"),
    (64, True, 7, "reduction"),
    (64, 4, 7.9, "spatial_kernel"),
    (8.0, 4, 7, "channels"),
    (8, 4, "7", "spatial_kernel"),
])
def test_sizes_must_be_ints(channels, reduction, spatial_kernel, field):
    # int() would truncate 64.7 to 64, read True as reduction 1 and 7.9 as 7
    with pytest.raises(ConfigError, match=f"AttentionGate: {field} must be an int"):
        new_gate(channels, reduction, spatial_kernel)


def test_numpy_int_sizes_accepted():
    gate, _ = new_gate(np.int64(8), np.int32(4), np.int64(3))
    assert (gate.channels, gate.reduction, gate.spatial_kernel) == (8, 4, 3)
    assert type(gate.channels) is int


def test_gamma_starts_at_zero_and_requires_grad():
    gate, _ = new_gate(8, 4, 3)
    assert float(gate.gamma.data) == 0.0
    assert gate.gamma.requires_grad


def test_parameter_names():
    _, params = new_gate(8, 4, 7)
    assert list(params) == [
        "att.ch_mlp.0.weight", "att.ch_mlp.0.bias",
        "att.ch_mlp.1.weight", "att.ch_mlp.1.bias",
        "att.sp_conv.weight", "att.sp_conv.bias",
        "att.gamma",
    ]


def test_make_is_required():
    with pytest.raises(TypeError, match="make"):
        AttentionGate(8, 4, 7)


def test_recording_refuses_a_name_made_twice():
    made = {}
    make = recording(kaiming_uniform(np.random.default_rng(0)), made)
    first = make("att.gamma", ())
    with pytest.raises(ContractError, match="att.gamma"):
        make("att.gamma", ())
    assert made == {"att.gamma": first}


# -- channel branch -----------------------------------------------------------

def test_identical_channels_get_identical_weights(rng):
    # Permutation symmetry: when the MLP treats channels symmetrically
    # (constant weights within each layer), identical channel planes must
    # receive identical gains.
    plane = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
    x = Tensor(np.repeat(plane, 4, axis=1))
    gate, _ = new_gate(4, 2, 3, seed=7)
    gate.ch_mlp[0].weight.data[...] = 0.3
    gate.ch_mlp[0].bias.data[...] = 0.1
    gate.ch_mlp[1].weight.data[...] = -0.7
    gate.ch_mlp[1].bias.data[...] = 0.2
    w = channel_attention(x, gate).data
    assert w.shape == (2, 4, 1, 1)
    for bi in range(2):
        np.testing.assert_array_equal(w[bi], np.full((4, 1, 1), w[bi, 0, 0, 0]))


def test_zero_mlp_gives_half_weights(rng):
    gate = _zero_gate(channels=4, reduction=4)
    x = Tensor(rng.normal(size=(3, 4, 5, 5)).astype(np.float32))
    w = channel_attention(x, gate).data
    np.testing.assert_array_equal(w, np.full((3, 4, 1, 1), 0.5, np.float32))


def test_channel_attention_unit_mlp_hand_value():
    # 2 channels, 2x2 planes, reduction 2 (hidden width 1), all-ones MLP.
    # Per batch item: weight_c = sigmoid(relu(a0 + a1) + relu(m0 + m1))
    # where a/m are the per-channel spatial means and maxima.
    gate, params = new_gate(2, 2, 3)
    for p in params.values():
        p.data[...] = 0.0
    gate.ch_mlp[0].weight.data[...] = 1.0
    gate.ch_mlp[1].weight.data[...] = 1.0
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]],
                   [[-1.0, 0.0], [0.5, 2.0]]]], np.float32)
    a = [2.5, 0.375]
    m = [4.0, 2.0]
    expect = 1.0 / (1.0 + np.exp(-(max(0.0, a[0] + a[1]) + max(0.0, m[0] + m[1]))))
    w = channel_attention(Tensor(x), gate).data
    np.testing.assert_allclose(w, np.full((1, 2, 1, 1), expect), rtol=1e-6)


def test_channel_attention_matches_oracle(rng):
    x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
    gate, _ = new_gate(8, 4, 3, seed=11)
    got = channel_attention(Tensor(x), gate).data
    want = channel_attention_oracle(x, gate)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


# -- spatial branch -----------------------------------------------------------

def test_zero_conv_gives_half_plane(rng):
    gate = _zero_gate(channels=4, reduction=2, spatial_kernel=7)
    x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
    w = spatial_attention(x, gate).data
    assert w.shape == (2, 1, 6, 6)
    np.testing.assert_array_equal(w, np.full((2, 1, 6, 6), 0.5, np.float32))


def test_constant_input_constant_plane():
    # With a 1x1 kernel there is no border effect: a spatially constant
    # input maps to a spatially constant plane for any constant.
    gate, _ = new_gate(4, 2, 1, seed=3)
    x = np.ones((1, 4, 5, 5), np.float32) * np.array([0.2, -1.0, 3.0, 0.0], np.float32).reshape(1, 4, 1, 1)
    w = spatial_attention(Tensor(x), gate).data
    np.testing.assert_array_equal(w, np.full(w.shape, w[0, 0, 0, 0]))

    # Wider kernels see padding zeros at the border; the symmetry claim
    # then holds on the fully supported interior.
    gate7, _ = new_gate(4, 2, 7, seed=3)
    x12 = np.full((1, 4, 12, 12), 0.75, np.float32)
    w7 = spatial_attention(Tensor(x12), gate7).data[0, 0, 3:9, 3:9]
    np.testing.assert_allclose(w7, np.full((6, 6), w7[0, 0]), rtol=0, atol=0)

    # And a zero input is constant everywhere regardless of kernel size.
    wz = spatial_attention(Tensor(np.zeros((1, 4, 8, 8), np.float32)), gate7).data
    np.testing.assert_array_equal(wz, np.full(wz.shape, wz[0, 0, 0, 0]))


def test_spatial_attention_matches_oracle(rng):
    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    gate, _ = new_gate(2, 2, 3, seed=5)
    got = spatial_attention(Tensor(x), gate).data
    np.testing.assert_allclose(got, spatial_attention_oracle(x, gate),
                               rtol=1e-5, atol=1e-6)

    x2 = rng.normal(size=(2, 6, 5, 8)).astype(np.float32)
    gate7, _ = new_gate(6, 3, 7, seed=6)
    got2 = spatial_attention(Tensor(x2), gate7).data
    assert got2.shape == (2, 1, 5, 8)
    np.testing.assert_allclose(got2, spatial_attention_oracle(x2, gate7),
                               rtol=1e-5, atol=1e-6)


# -- composition --------------------------------------------------------------

def test_attend_is_identity_at_gamma_zero(rng):
    gate, _ = new_gate(8, 4, 3, seed=2)
    x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
    out = attend(Tensor(x), gate).data
    np.testing.assert_array_equal(out, x)


def test_attend_zero_input_zero_output():
    gate, _ = new_gate(8, 4, 3, seed=2)
    gate.gamma.data[...] = 0.7
    out = attend(Tensor(np.zeros((1, 8, 4, 4), np.float32)), gate).data
    np.testing.assert_array_equal(out, np.zeros((1, 8, 4, 4), np.float32))


def test_attend_matches_composed_oracle(rng):
    gate, _ = new_gate(8, 4, 3, seed=13)
    gate.gamma.data[...] = 0.6
    x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
    got = attend(Tensor(x), gate).data
    np.testing.assert_allclose(got, attend_oracle(x, gate), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("shape,reduction,k", [
    ((1, 4, 4, 4), 4, 3),
    ((2, 8, 6, 10), 2, 7),
    ((3, 2, 2, 2), 1, 3),
])
def test_attend_preserves_shape(shape, reduction, k, rng):
    gate, _ = new_gate(shape[1], reduction, k, seed=1)
    gate.gamma.data[...] = 0.5
    x = Tensor(rng.normal(size=shape).astype(np.float32))
    assert attend(x, gate).shape == shape


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@example(1, 1, 256)     # a channel logit past float32's sigmoid saturation
def test_weights_strictly_inside_unit_interval(h, w, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-3.0, 3.0, size=(1, 4, h, w)).astype(np.float32))
    gate, _ = new_gate(4, 2, 3, seed=seed + 1)
    cw = channel_attention(x, gate).data
    sw = spatial_attention(x, gate).data
    for arr in (cw, sw):
        assert np.all(arr > 0.0) and np.all(arr < 1.0)


# -- gradients ----------------------------------------------------------------

def _margin(x, gate):
    """Smallest distance to a non-smooth point along the attend graph:
    relu pre-activations in the channel MLP and runner-up gaps for both
    max reductions. Finite differences are only trustworthy when this is
    comfortably larger than the probe step."""
    x64 = x.astype(np.float64)
    w1 = gate.ch_mlp[0].weight.data.astype(np.float64)[:, :, 0, 0]
    b1 = gate.ch_mlp[0].bias.data.astype(np.float64)
    worst = np.inf
    for bi in range(x.shape[0]):
        for desc in (x64[bi].mean(axis=(1, 2)), x64[bi].max(axis=(1, 2))):
            worst = min(worst, np.abs(w1 @ desc + b1).min())
    # spatial max over channels runs on the channel-refined tensor
    refined = x64 * channel_attention_oracle(x64, gate)
    b, c, h, w = x64.shape
    per_channel = x64.reshape(b * c, h * w)
    per_pixel = refined.transpose(0, 2, 3, 1).reshape(-1, c)
    for flat in (per_channel, per_pixel):
        top2 = np.sort(flat, axis=-1)[:, -2:]
        worst = min(worst, float((top2[:, 1] - top2[:, 0]).min()))
    return worst


def _screened_case():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = distinct_values(rng, (1, 4, 6, 6))
        gate, params = new_gate(4, 2, 3, seed=seed + 1000)
        gate.gamma.data[...] = 0.7
        if _margin(x, gate) > 8e-3:
            return x, gate, params
    raise AssertionError("no kink-free seed found")


def test_gradcheck_channel_attention():
    x, gate, _ = _screened_case()
    xt = Tensor(x.copy(), requires_grad=True)
    coeffs = Tensor(np.random.default_rng(42).uniform(0.5, 1.5, (1, 4, 1, 1)).astype(np.float32))
    gradcheck(lambda: (channel_attention(xt, gate) * coeffs).sum(), [xt])


def test_gradcheck_spatial_attention():
    x, gate, _ = _screened_case()
    xt = Tensor(x.copy(), requires_grad=True)
    coeffs = Tensor(np.random.default_rng(43).uniform(0.5, 1.5, (1, 1, 6, 6)).astype(np.float32))
    gradcheck(lambda: (spatial_attention(xt, gate) * coeffs).sum() / 36.0, [xt])


def test_gradcheck_attend_wrt_input_params_and_gamma():
    x, gate, params = _screened_case()
    xt = Tensor(x.copy(), requires_grad=True)
    coeffs = Tensor(np.random.default_rng(44).uniform(0.5, 1.5, (1, 4, 6, 6)).astype(np.float32))
    gradcheck(lambda: (attend(xt, gate) * coeffs).sum() / 144.0, [xt, *params.values()])
