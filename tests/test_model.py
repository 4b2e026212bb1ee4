"""Model assembly: shape contracts, soft-argmax against direct summation,
determinism, checkpoint round trips, and finite-difference spot checks of
the end-to-end gradient."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from salypath.checkpoint import load_checkpoint, save_checkpoint
from salypath.errors import CheckpointError, ConfigError, ContractError, DimensionError
from salypath.model import ModelConfig, SalypathModel, soft_argmax
from salypath.tensor import Tensor, conv2d, maxpool2, softmax2d, upsample2

from conftest import distinct_values, gradcheck

TINY = dict(
    input_size=(8, 8),
    encoder_blocks=((1, 4), (1, 8)),
    head_channels=(8,) * 10,
    attention_reduction=2,
    spatial_kernel=3,
)


# -- config validation --------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    dict(input_size=(60, 64)),                       # 60 % 16 != 0
    dict(input_size=(8, 8)),                         # smaller than 2^4
    dict(head_channels=(64, 32, 16, 8)),             # not 10 entries
    dict(head_channels=(64,) * 9 + (12,)),           # last != 8
    dict(head_channels=(64, 32, 48, 40, 32, 24, 20, 16, 12, 8)),  # increases
    dict(beta=0.0),
    dict(beta=-2.0),
    dict(encoder_blocks=((2, 16), (0, 32))),         # zero convs in a block
    dict(encoder_blocks=((2, 16), (2, 30)), input_size=(4, 4)),   # 30 % 4 != 0
    dict(spatial_kernel=4),
    dict(beta=float("nan")),
    dict(beta=float("inf")),
    dict(attention_reduction=0),
])
def test_config_rejects(overrides):
    with pytest.raises(ConfigError):
        ModelConfig(**overrides)


@pytest.mark.parametrize("overrides, error", [
    (dict(head_channels=(8.0,) * 10), r"ModelConfig\.head_channels\[0\]: expected int, got 8\.0"),
    (dict(input_size=(16, 16), beta=True), r"ModelConfig\.beta: expected float, got True"),
    (dict(attention_enabled=1), r"ModelConfig\.attention_enabled: expected bool, got 1"),
], ids=["float-head-channels", "bool-beta", "int-attention-flag"])
def test_config_constructor_checks_types(overrides, error):
    # a config built in Python follows config_from_dict's rules; beta=True
    # once built a model whose checkpoint SalypathModel.load rejected
    with pytest.raises(ConfigError, match=error):
        ModelConfig.desk(**overrides)


def test_config_constructor_reads_lists_and_numpy_numbers_as_from_dict_does():
    cfg = ModelConfig(**{**TINY, "input_size": [8, 8], "encoder_blocks": [[1, 4], [1, np.int64(8)]],
                         "beta": 2, "spatial_kernel": np.int32(3)})
    assert cfg == ModelConfig(**{**TINY, "beta": 2.0})
    assert type(cfg.input_size) is tuple and type(cfg.encoder_blocks[1]) is tuple
    assert type(cfg.encoder_blocks[1][1]) is int and type(cfg.spatial_kernel) is int
    assert type(cfg.beta) is float
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_presets():
    desk = ModelConfig.desk()
    assert desk.bottleneck_channels == 64
    full = ModelConfig.full_scale()
    assert full.input_size == (224, 320)
    assert full.bottleneck_channels == 512
    assert len(full.head_channels) == 10 and full.head_channels[-1] == 8


def test_config_round_trips_through_dict():
    cfg = ModelConfig(beta=3.5, attention_enabled=False)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# each field value is malformed in a way that once escaped as TypeError,
# ValueError or ZeroDivisionError
MALFORMED_CONFIG_FIELDS = [
    ("input_size", [64]),
    ("input_size", None),
    ("in_channels", "x"),
    ("encoder_blocks", [2]),
    ("encoder_blocks", [[2]]),
    ("head_channels", 8),
    ("beta", None),
    ("beta", "nan"),
    ("attention_reduction", 0),
    ("attention_enabled", "false"),
    ("in_channels", 3.0),
]


@pytest.mark.parametrize("key,value", MALFORMED_CONFIG_FIELDS)
def test_config_from_dict_rejects_malformed_field(key, value):
    d = ModelConfig.desk().to_dict()
    d[key] = value
    with pytest.raises(ConfigError, match=rf"ModelConfig\b.*\b{key}\b"):
        ModelConfig.from_dict(d)


@pytest.mark.parametrize("edit,error", [
    (lambda d: d.pop("beta"), r"ModelConfig\.beta: missing"),
    (lambda d: d.update(depth=3), r"ModelConfig\.depth: unknown"),
    (lambda d: d.update(encoder_blocks=[[2, 16], [2, True]]),
     r"ModelConfig\.encoder_blocks\[1\]\[1\]: expected int, got True"),
], ids=["missing", "unknown", "bool-in-int-tuple"])
def test_config_from_dict_names_the_field(edit, error):
    d = ModelConfig.desk().to_dict()
    edit(d)
    with pytest.raises(ConfigError, match=error):
        ModelConfig.from_dict(d)


def test_config_from_dict_reads_json_types():
    cfg = ModelConfig.from_dict(json.loads(json.dumps({**ModelConfig.desk().to_dict(),
                                                       "beta": 2})))
    assert cfg == ModelConfig.desk(beta=2.0) and type(cfg.beta) is float
    assert type(cfg.input_size) is tuple and type(cfg.encoder_blocks[0]) is tuple


# -- soft-argmax ---------------------------------------------------------------

def test_soft_argmax_uniform_plane_hits_grid_centroid():
    # mean of {0, 1/4, 2/4, 3/4} = 0.375, exact in binary arithmetic
    pts = soft_argmax(Tensor(np.ones((1, 1, 4, 4), np.float32)), beta=1.0)
    assert pts.shape == (1, 1, 2)
    assert pts.data[0, 0, 0] == np.float32(0.375)
    assert pts.data[0, 0, 1] == np.float32(0.375)


def test_soft_argmax_sharp_peak_approaches_argmax():
    x = np.zeros((1, 1, 4, 4), np.float32)
    x[0, 0, 1, 3] = 1.0          # row j=1, column i=3
    pts = soft_argmax(Tensor(x), beta=50.0).data[0, 0]
    assert abs(pts[0] - 0.75) < 1e-3
    assert abs(pts[1] - 0.25) < 1e-3


def test_soft_argmax_matches_direct_summation(rng):
    x = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
    got = soft_argmax(Tensor(x), beta=1.0).data[0, 0]
    e = np.exp(np.float64(x[0, 0]) - np.float64(x[0, 0]).max())
    p = e / e.sum()
    want_x = sum(p[j, i] * (i / 3.0) for j in range(3) for i in range(3))
    want_y = sum(p[j, i] * (j / 3.0) for j in range(3) for i in range(3))
    np.testing.assert_allclose(got, [want_x, want_y], rtol=1e-5, atol=1e-7)


def test_soft_argmax_beta_limit_is_argmax(rng):
    x = distinct_values(rng, (1, 2, 5, 7))
    pts = soft_argmax(Tensor(x), beta=1e3).data
    for c in range(2):
        j, i = np.unravel_index(np.argmax(x[0, c]), (5, 7))
        assert abs(pts[0, c, 0] - i / 7.0) < 1e-3
        assert abs(pts[0, c, 1] - j / 5.0) < 1e-3


def test_soft_argmax_translation_equivariance():
    # One-hot planes (beta large enough to underflow the off-peak mass to
    # exact zero): shifting the peak one column right moves x by exactly 1/W.
    a = np.zeros((1, 1, 4, 4), np.float32)
    b = np.zeros((1, 1, 4, 4), np.float32)
    a[0, 0, 2, 1] = 1.0
    b[0, 0, 2, 2] = 1.0
    pa = soft_argmax(Tensor(a), beta=200.0).data[0, 0]
    pb = soft_argmax(Tensor(b), beta=200.0).data[0, 0]
    assert pb[0] - pa[0] == np.float32(0.25)
    assert pb[1] == pa[1]

    # Smooth case: translate a compactly supported bump (no mass reaches the
    # wrap-around column thanks to an effectively -inf border).
    base = np.full((6, 8), -200.0, np.float32)
    bump = np.array([[0.3, 1.1], [0.7, 0.2]], np.float32)
    pads = base.copy()
    pads[2:4, 2:4] = bump
    shifted = base.copy()
    shifted[2:4, 3:5] = bump
    pa = soft_argmax(Tensor(pads[None, None]), beta=1.0).data[0, 0]
    pb = soft_argmax(Tensor(shifted[None, None]), beta=1.0).data[0, 0]
    assert abs((pb[0] - pa[0]) - 1.0 / 8.0) < 1e-6
    assert abs(pb[1] - pa[1]) < 1e-7


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_softmax_and_soft_argmax_reject_nonfinite_beta(beta):
    x = Tensor(np.zeros((1, 2, 3, 3), np.float32))
    with pytest.raises(ContractError, match="softmax2d: beta must be finite and > 0"):
        softmax2d(x, beta)
    with pytest.raises(ContractError, match="softmax2d: beta must be finite and > 0"):
        soft_argmax(x, beta)


def test_soft_argmax_rejects_empty_plane():
    with pytest.raises(DimensionError):
        soft_argmax(Tensor(np.zeros((1, 8, 4, 0), np.float32)), beta=1.0)
    with pytest.raises(DimensionError):
        soft_argmax(Tensor(np.zeros((8, 4, 4), np.float32)), beta=1.0)


# -- encoder / decoder shape and zero contracts ---------------------------------

def test_encode_shapes_and_zero_image():
    model = SalypathModel(ModelConfig.desk(), seed=0)
    x = Tensor(np.zeros((2, 3, 64, 64), np.float32))
    bott = model.encode(x)
    assert bott.shape == (2, 64, 4, 4)
    np.testing.assert_array_equal(bott.data, 0.0)  # zero biases at init


def test_encode_rejects_bad_inputs():
    model = SalypathModel(ModelConfig.desk(), seed=0)
    with pytest.raises(DimensionError, match="axis 1"):
        model.encode(Tensor(np.zeros((1, 4, 64, 64), np.float32)))
    with pytest.raises(DimensionError):
        model.encode(Tensor(np.zeros((1, 3, 32, 64), np.float32)))
    with pytest.raises(DimensionError):
        model.encode(Tensor(np.zeros((3, 64, 64), np.float32)))


@pytest.mark.parametrize("op", ["conv2d", "maxpool2", "upsample2", "soft_argmax", "encode"])
def test_rank_check_names_the_op(op):
    # every op that takes a [B, C, H, W] batch checks its rank by one rule
    model = SalypathModel(ModelConfig(**TINY), seed=0)
    call = {"conv2d": lambda x: conv2d(x, model.dec_out), "maxpool2": maxpool2,
            "upsample2": upsample2, "soft_argmax": lambda x: soft_argmax(x, beta=1.0),
            "encode": model.encode}[op]
    with pytest.raises(DimensionError,
                       match=rf"^{op}: input must have 4 axes \[B,C,H,W\], got 3$"):
        call(Tensor(np.zeros((3, 16, 16), np.float32)))


def test_encode_is_deterministic_across_instances(rng):
    x = rng.uniform(size=(1, 3, 64, 64)).astype(np.float32)
    a = SalypathModel(ModelConfig.desk(), seed=7).encode(Tensor(x)).data
    b = SalypathModel(ModelConfig.desk(), seed=7).encode(Tensor(x)).data
    np.testing.assert_array_equal(a, b)


def test_decode_range_and_shape(rng):
    model = SalypathModel(ModelConfig.desk(), seed=0)
    bott = Tensor(rng.normal(size=(2, 64, 4, 4)).astype(np.float32))
    m = model.decode(bott)
    assert m.shape == (2, 1, 64, 64)
    assert np.all(m.data > 0.0) and np.all(m.data < 1.0)


def test_decode_zero_final_layer_gives_half_map(rng):
    model = SalypathModel(ModelConfig.desk(), seed=0)
    model.dec_out.weight.data[...] = 0.0
    model.dec_out.bias.data[...] = 0.0
    bott = Tensor(rng.normal(size=(1, 64, 4, 4)).astype(np.float32))
    np.testing.assert_array_equal(model.decode(bott).data,
                                  np.full((1, 1, 64, 64), 0.5, np.float32))


def test_full_round_trip_emits_input_sized_map(rng):
    model = SalypathModel(ModelConfig.desk(), seed=1)
    x = Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32))
    m = model.decode(model.attend(model.encode(x)))
    assert m.shape == (1, 1, 64, 64)


# -- scanpath head ---------------------------------------------------------------

def test_head_shape_contract(rng):
    model = SalypathModel(ModelConfig.desk(), seed=0)
    bott = Tensor(rng.normal(size=(1, 64, 4, 4)).astype(np.float32))
    feats = model.scanpath_features(bott)
    assert feats.shape == (1, 8, 4, 4)


def test_zero_head_lands_every_point_on_centroid(rng):
    model = SalypathModel(ModelConfig.desk(), seed=0)
    for layer in model.head:
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    bott = Tensor(rng.normal(size=(1, 64, 4, 4)).astype(np.float32))
    feats = model.scanpath_features(bott)
    np.testing.assert_array_equal(feats.data, 0.0)
    pts = soft_argmax(feats, beta=1.0).data
    np.testing.assert_array_equal(pts, np.full((1, 8, 2), 0.375, np.float32))


# -- forward ----------------------------------------------------------------------

def test_forward_produces_domain_objects(rng):
    model = SalypathModel(ModelConfig.desk(), seed=3)
    image = rng.uniform(size=(3, 64, 64)).astype(np.float32)
    smap, path = model.forward(image)
    assert isinstance(smap, np.ndarray) and isinstance(path, np.ndarray)
    assert smap.dtype == np.float32 and smap.shape == (64, 64)
    assert np.all(smap >= 0.0) and np.all(smap <= 1.0)
    assert path.dtype == np.float32 and path.shape == (8, 2)
    assert np.all(path >= 0.0) and np.all(path <= 1.0)


def test_forward_returns_forward_tensors_bits(rng):
    # sigmoid and soft_argmax already land inside [0, 1]: nothing is clipped
    model = SalypathModel(ModelConfig.desk(), seed=3)
    for image in (rng.uniform(size=(3, 64, 64)), np.full((3, 64, 64), 50.0),
                  rng.normal(0.0, 100.0, size=(3, 64, 64))):
        image = image.astype(np.float32)
        smap, path = model.forward(image)
        maps, points = model.forward_tensors(Tensor(image[None]))
        assert smap.tobytes() == maps.data[0, 0].tobytes()
        assert path.tobytes() == points.data[0].tobytes()


def test_forward_is_deterministic(rng):
    model = SalypathModel(ModelConfig.desk(), seed=3)
    image = rng.uniform(size=(3, 64, 64)).astype(np.float32)
    m1, p1 = model.forward(image)
    m2, p2 = model.forward(image)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(p1, p2)


def test_gamma_zero_equals_attention_disabled(rng):
    # same seed => identical trunk weights thanks to the fixed rng draw order
    on = SalypathModel(ModelConfig.desk(attention_enabled=True), seed=5)
    off = SalypathModel(ModelConfig.desk(attention_enabled=False), seed=5)
    for name, p in off.parameters().items():
        np.testing.assert_array_equal(p.data, on.parameters()[name].data)

    assert float(on.att.gamma.data) == 0.0
    x = Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32))
    m_on, p_on = on.forward_tensors(x)
    m_off, p_off = off.forward_tensors(x)
    np.testing.assert_array_equal(m_on.data, m_off.data)
    np.testing.assert_array_equal(p_on.data, p_off.data)

    # and bypassing the gate on the same model agrees
    bott = on.encode(x)
    np.testing.assert_array_equal(on.decode(bott).data, m_on.data)
    np.testing.assert_array_equal(
        soft_argmax(on.scanpath_features(bott), on.config.beta).data, p_on.data)


def test_parameter_names_cover_all_submodules():
    model = SalypathModel(ModelConfig.desk(), seed=0)
    names = set(model.parameters())
    assert "enc.b0.c0.weight" in names
    assert "dec.out.bias" in names
    assert "head.9.weight" in names
    assert "att.gamma" in names


@pytest.mark.parametrize("attention", [True, False])
def test_parameters_are_grouped_in_checkpoint_order(attention):
    model = SalypathModel(ModelConfig.desk(attention_enabled=attention), seed=0)
    names = list(model.parameters())
    assert len(names) == len(set(names))
    groups = [n.split(".", 1)[0] for n in names]
    want = ["enc", "dec", "head", "att"] if attention else ["enc", "dec", "head"]
    assert set(groups) == set(want)
    assert groups == sorted(groups, key=want.index)
    att = [n for n in names if n.startswith("att.")]
    assert names[len(names) - len(att) - 2:] == ["head.9.weight", "head.9.bias", *att]


@pytest.mark.parametrize("groups", [
    ("enc", "att", "dec"),    # phase 1
    ("head",),                # frozen phase 2
    ("enc", "att", "head"),   # unfrozen phase 2
])
def test_group_filter_returns_the_prefix_set(groups):
    model = SalypathModel(ModelConfig(**TINY), seed=0)
    names = list(model.parameters())
    assert list(model.parameters(groups)) == [
        n for n in names if n.startswith(tuple(g + "." for g in groups))]


# -- persistence -------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, rng):
    model = SalypathModel(ModelConfig(**TINY), seed=9)
    model.att.gamma.data[...] = 0.25
    path = tmp_path / "model.ckpt"
    model.save(path)
    clone = SalypathModel.load(path)
    assert clone.config == model.config
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(clone.parameters()[name].data, p.data)
    x = rng.uniform(size=(1, 3, 8, 8)).astype(np.float32)
    m1, p1 = model.forward_tensors(Tensor(x))
    m2, p2 = clone.forward_tensors(Tensor(x))
    np.testing.assert_array_equal(m1.data, m2.data)
    np.testing.assert_array_equal(p1.data, p2.data)


def _param_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.parameters().items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def test_fresh_weights_are_pinned():
    # guards the rng draw order (encoder, decoder, head, attention) that
    # makes equal seeds give byte-identical training checkpoints; the digest
    # walks parameters() in that same order
    digest = _param_digest(SalypathModel(ModelConfig.desk(), seed=0))
    assert digest == "6320740fa35ea05546bbdb72d93baa03b1a09b01fbc92e5d019bb89a52011231"


def test_checkpoint_payload_is_the_parameters_in_make_order(tmp_path):
    model = SalypathModel(ModelConfig(**TINY), seed=1)
    model.save(tmp_path / "m.ckpt")
    values, _ = load_checkpoint(tmp_path / "m.ckpt")
    params = model.parameters()
    assert values.tobytes() == b"".join(p.data.tobytes() for p in params.values())
    att = [n.startswith("att.") for n in params]
    assert any(att) and att == sorted(att)


@pytest.mark.parametrize("attention", [True, False])
def test_checkpoint_in_the_old_group_order_loads_unchecked(tmp_path, attention):
    # a file saved in the earlier group order (enc, att, dec, head) has the
    # same header and size: with attention off the two orders are one; with
    # it on, the file loads, each value after the encoder in a wrong place
    model = SalypathModel(ModelConfig(**TINY, attention_enabled=attention), seed=1)
    params = model.parameters()
    old = sorted(params, key=lambda n: ["enc", "att", "dec", "head"].index(n.partition(".")[0]))
    save_checkpoint(tmp_path / "old.ckpt", [params[n].data for n in old], model.config.to_dict())
    loaded = SalypathModel.load(tmp_path / "old.ckpt").parameters()
    moved = [n for n, p in params.items() if not np.array_equal(loaded[n].data, p.data)]
    if attention:
        assert moved and not any(n.startswith("enc.") for n in moved)
    else:
        assert moved == []


def test_load_draws_nothing_and_round_trips_bitwise(tmp_path, monkeypatch):
    import salypath.model
    import salypath.tensor

    model = SalypathModel(ModelConfig.desk(), seed=4)
    model.att.gamma.data = np.float32(0.75)
    path = tmp_path / "a.ckpt"
    model.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("SalypathModel.load drew random weights")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for module in (salypath.tensor, salypath.model):
        monkeypatch.setattr(module, "kaiming_uniform", no_draws)
    clone = SalypathModel.load(path)
    monkeypatch.undo()

    assert _param_digest(clone) == _param_digest(model)
    clone.save(tmp_path / "b.ckpt")
    assert (tmp_path / "b.ckpt").read_bytes() == path.read_bytes()


def test_loaded_parameters_are_writable_and_separate(tmp_path):
    model = SalypathModel(ModelConfig(**TINY), seed=2)
    model.save(tmp_path / "m.ckpt")
    clone = SalypathModel.load(tmp_path / "m.ckpt")
    params = clone.parameters()
    for p in params.values():
        assert p.data.flags.writeable and p.data.flags.aligned
        assert p.data.dtype == np.float32
    for a, b in itertools.combinations(params.values(), 2):
        assert not np.may_share_memory(a.data, b.data)
    before = {k: p.data.copy() for k, p in params.items()}
    params["enc.b0.c0.bias"].data[...] = 7.0
    for name, p in params.items():
        if name != "enc.b0.c0.bias":
            np.testing.assert_array_equal(p.data, before[name])


def _t(name, shape, offset):
    return {"name": name, "shape": shape, "offset": offset}


# (id, header tensor entries, payload bytes): tensor tables of the older
# format, each of which once loaded silently, loaded garbage, or raised a bare
# TypeError; a header that carries one is now rejected before it is read
MALFORMED_CHECKPOINTS = [
    ("negative-dim", [_t("a", [-1], 0), _t("b", [4], 0), _t("c", [1], 12)], 16),
    ("string-dim", [_t("a", ["2"], 0)], 8),
    ("float-offset", [_t("a", [2], 0.0)], 8),
    ("bool-dim", [_t("a", [True], 0)], 4),
    ("non-string-name", [_t(5, [1], 0)], 4),
    ("duplicate-name", [_t("a", [1], 0), _t("a", [1], 4)], 8),
    ("overlap", [_t("a", [2], 0), _t("b", [1], 4)], 12),
    ("gap", [_t("a", [1], 0), _t("b", [1], 8)], 12),
    ("out-of-order", [_t("a", [1], 4), _t("b", [1], 0)], 8),
    ("too-many-axes", [_t("a", [1] * 80, 0)], 4),
    ("tensors-not-a-list", {"a": 1}, 0),
    ("entry-not-an-object", [["a", [1], 0]], 4),
]
# (id, header, payload bytes) of headers that are not one config object
MALFORMED_HEADERS = [
    *((case, {"tensors": entries, "config": {}}, n) for case, entries, n in MALFORMED_CHECKPOINTS),
    ("no-config", {}, 4),
    ("extra-key", {"config": {}, "digest": "0"}, 4),
]


@pytest.mark.parametrize("header,n_bytes", [c[1:] for c in MALFORMED_HEADERS],
                         ids=[c[0] for c in MALFORMED_HEADERS])
def test_checkpoint_rejects_malformed_header(tmp_path, header, n_bytes):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(n_bytes))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: header must hold one 'config' object and nothing else"


def test_checkpoint_rejects_non_object_config(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"config": [1, 2]}\n' + bytes(4))
    with pytest.raises(CheckpointError, match="header must hold one 'config' object"):
        load_checkpoint(path)


def test_checkpoint_zero_size_and_scalar_tensors_round_trip(tmp_path):
    path = tmp_path / "m.ckpt"
    arrays = [np.zeros((0, 3), np.float32), np.float32(2.5), np.arange(3, dtype=np.float32),
              np.arange(6, dtype=np.float32).reshape(2, 3).T]  # F order is written in C order
    save_checkpoint(path, arrays, {"k": [1]})
    values, config = load_checkpoint(path)
    assert config == {"k": [1]}
    assert values.dtype == np.float32 and values.flags.writeable and values.flags.aligned
    np.testing.assert_array_equal(values, [2.5, 0, 1, 2, 0, 3, 1, 4, 2, 5])


@pytest.mark.parametrize("edit", [lambda raw: raw + b"\0",
                                  lambda raw: raw[:-1]], ids=["trailing", "short"])
def test_checkpoint_payload_must_match_its_tensors(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [np.ones((2, 3), np.float32), np.zeros(4, np.float32)], {})
    assert load_checkpoint(path)[0].size == 10
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match="is not whole float32 values"):
        load_checkpoint(path)


def test_checkpoint_failed_save_leaves_previous_file(tmp_path, monkeypatch):
    import salypath.checkpoint as ck

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [np.ones(3, np.float32)], {})
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(ck.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, [np.zeros(300, np.float32)], {})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_load_rejects_payload_of_another_size(tmp_path):
    path = tmp_path / "m.ckpt"
    SalypathModel(ModelConfig(**TINY), seed=0).save(path)
    raw = path.read_bytes()
    for edited, error in [(raw + bytes(4), "has 6790 float32 values, but its config takes 6789"),
                          (raw[:-4], "has 6788 float32 values, too few for its config")]:
        path.write_bytes(edited)
        with pytest.raises(CheckpointError) as exc:
            SalypathModel.load(path)
        assert str(exc.value) == f"{path}: payload {error}"


# -- gradients ----------------------------------------------------------------------

def _relu_margins(model, x):
    """Min |pre-activation| across every relu in encoder and head, plus the
    runner-up gap in each maxpool window whose winner is live. All-dead
    windows are locally constant (their pres sit below -margin already), so
    a 0-0 tie there is not a kink. Large margins keep central differences
    on the smooth branch of every non-smooth op."""
    import salypath.tensor as T

    worst = np.inf
    t = Tensor(x)
    for block in model.encoder:
        for layer in block:
            pre = layer(t)
            worst = min(worst, float(np.abs(pre.data).min()))
            t = pre.relu()
        b, c, h, w = t.shape
        win = t.data.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        top2 = np.sort(win, axis=-1)[:, -2:]
        live = top2[:, 1] > 0.0
        if live.any():
            gaps = top2[live, 1] - top2[live, 0]
            worst = min(worst, float(gaps.min()))
        t = T.maxpool2(t)
    for li, layer in enumerate(model.head):
        pre = layer(t)
        if li != len(model.head) - 1:
            worst = min(worst, float(np.abs(pre.data).min()))
            t = pre.relu()
        else:
            t = pre
    return worst


def _screened_model(threshold=3e-3, tries=300):
    # A 1e-3 probe step shifts any pre-activation by at most ~1e-3 for unit
    # scale inputs, so a 3e-3 margin keeps every relu and pool pick frozen
    # during central differencing.
    for seed in range(tries):
        rng = np.random.default_rng(seed)
        x = distinct_values(rng, (1, 3, 8, 8))
        model = SalypathModel(
            ModelConfig(**{**TINY, "attention_enabled": False}), seed=seed + 500)
        if _relu_margins(model, x) > threshold:
            return model, x
    raise AssertionError("no kink-free seed found for the model gradcheck")


def _head_margin(model, bott_data):
    worst = np.inf
    t = Tensor(bott_data)
    for li, layer in enumerate(model.head):
        pre = layer(t)
        if li != len(model.head) - 1:
            worst = min(worst, float(np.abs(pre.data).min()))
            t = pre.relu()
        else:
            t = pre
    return worst


def test_gradcheck_head_wrt_bottleneck():
    model, _ = _screened_model()
    bott_data = None
    for seed in range(300):
        cand = distinct_values(np.random.default_rng(seed), (1, 8, 2, 2))
        if _head_margin(model, cand) > 2e-3:
            bott_data = cand
            break
    assert bott_data is not None, "no kink-free bottleneck found"
    bott = Tensor(bott_data, requires_grad=True)
    # 5e-4 probe: shifts each first-layer pre by < 3e-4, inside the margin
    gradcheck(lambda: model.scanpath_features(bott).mean(), [bott], eps=5e-4)


def test_end_to_end_gradient_reaches_encoder(rng):
    model = SalypathModel(ModelConfig(**TINY), seed=2)
    model.att.gamma.data[...] = 0.3
    x = Tensor(rng.uniform(size=(2, 3, 8, 8)).astype(np.float32))
    target = Tensor(rng.uniform(size=(2, 8, 2)).astype(np.float32))
    assert all(p.grad is None for p in model.parameters().values())
    _, pts = model.forward_tensors(x)
    d = pts - target
    (d * d).sum().backward()
    for name in ("enc.b0.c0.weight", "enc.b1.c0.weight", "att.gamma"):
        g = model.parameters()[name].grad
        assert g is not None and np.any(g != 0.0), name


def test_fd_spot_checks_on_encoder_weights():
    model, x = _screened_model()
    target = Tensor(np.random.default_rng(23).uniform(0.2, 0.8, (1, 8, 2)).astype(np.float32))
    xt = Tensor(x)

    def loss():
        _, pts = model.forward_tensors(xt)
        d = pts - target
        return (d * d).sum()

    assert all(p.grad is None for p in model.parameters().values())
    loss().backward()
    eps = 1e-3
    checked = 0
    for name in ("enc.b0.c0.weight", "enc.b0.c0.bias", "enc.b1.c0.weight"):
        p = model.parameters()[name]
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        idxs = np.linspace(0, flat.size - 1, 3, dtype=int)
        for i in idxs:
            orig = flat[i].copy()
            flat[i] = orig + np.float32(eps)
            fp = float(loss().data)
            flat[i] = orig - np.float32(eps)
            fm = float(loss().data)
            flat[i] = orig
            num = (fp - fm) / (2.0 * eps)
            ana = float(gflat[i])
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-2)
            assert rel < 1e-2, f"{name}[{i}]: analytic {ana:.6g} vs numeric {num:.6g}"
            checked += 1
    assert checked == 9
