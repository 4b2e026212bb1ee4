"""The saliency + scanpath network.

Encoder: blocks of 3x3 conv + ReLU, each block followed by 2x2 max
pooling, channel plan given by the config. Bottleneck runs through the
attention gate (identity when disabled). Two consumers share the attended
bottleneck:

* decoder: mirror of the encoder (nearest-neighbour 2x upsampling, then
  the block's convs, the last conv of each block stepping the channel
  count down), finished by a 1x1 conv + sigmoid -> [B, 1, H, W]. Each
  block's upsampling and first conv run as one sub-pixel conv
  (``conv2d(..., upsample=True)``): four 2x2 convs of the low-resolution
  input, one per output phase, so no upsampled activation exists;
* scanpath head: ten 3x3 convs tapering to 8 channels (ReLU after all
  but the last), then a spatial soft-argmax turning each of the 8 channel
  planes into one normalized (x, y) fixation.

Everything is float32 and fully differentiable end to end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attention import AttentionGate, attend
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DimensionError
from .tensor import (ConvLayer, ParamMaker, Tensor, _nchw, concat, kaiming_uniform, maxpool2,
                     no_grad, recording, softmax2d)
# unused since the decoder folds it into a conv; benchmarks/tracing.py patches
# model.upsample2 by name, so it stays until the tracer patches nothing (ROADMAP item 4)
from .tensor import upsample2  # noqa: F401
from .types import config_from_dict, read_fields

DESK_BLOCKS = ((2, 16), (2, 32), (2, 48), (2, 64))
DESK_HEAD = (64, 56, 48, 40, 32, 24, 20, 16, 12, 8)
FULL_BLOCKS = ((2, 64), (2, 128), (3, 256), (3, 512), (3, 512))
FULL_HEAD = (512, 448, 384, 320, 256, 192, 128, 64, 32, 8)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. ``beta`` is the soft-argmax sharpness
    (fixed, not learned)."""

    input_size: tuple[int, int] = (64, 64)  # (H, W)
    in_channels: int = 3
    encoder_blocks: tuple[tuple[int, int], ...] = DESK_BLOCKS  # (convs, channels)
    head_channels: tuple[int, ...] = DESK_HEAD
    beta: float = 1.0
    attention_enabled: bool = True
    attention_reduction: int = 4
    spatial_kernel: int = 7

    def __post_init__(self):
        read_fields(self)
        h, w = self.input_size
        n_blocks = len(self.encoder_blocks)
        if n_blocks < 1:
            raise ConfigError("ModelConfig: need at least one encoder block")
        div = 2 ** n_blocks
        if h < div or w < div or h % div or w % div:
            raise ConfigError(
                f"ModelConfig: input_size {self.input_size} must be divisible "
                f"by 2^{n_blocks} = {div}"
            )
        for i, (count, ch) in enumerate(self.encoder_blocks):
            if count < 1 or ch < 1:
                raise ConfigError(
                    f"ModelConfig: encoder block {i} has invalid (convs, channels) "
                    f"({count}, {ch})"
                )
        head = tuple(self.head_channels)
        if len(head) != 10:
            raise ConfigError(
                f"ModelConfig: head_channels must have exactly 10 entries, "
                f"got {len(head)}"
            )
        if head[-1] != 8:
            raise ConfigError(
                f"ModelConfig: head_channels must end at 8, got {head[-1]}"
            )
        if any(a < b for a, b in zip(head, head[1:])):
            raise ConfigError("ModelConfig: head_channels must be non-increasing")
        if not 0 < self.beta < float("inf"):
            raise ConfigError(f"ModelConfig: beta must be finite and > 0, got {self.beta}")
        if self.in_channels < 1:
            raise ConfigError("ModelConfig: in_channels must be >= 1")
        bott = self.encoder_blocks[-1][1]
        if self.attention_enabled and (self.attention_reduction < 1
                                       or bott % self.attention_reduction):
            raise ConfigError(
                f"ModelConfig: bottleneck channels ({bott}) must be divisible "
                f"by attention_reduction ({self.attention_reduction})"
            )
        if self.spatial_kernel < 1 or self.spatial_kernel % 2 == 0:
            raise ConfigError(
                f"ModelConfig: spatial_kernel must be odd, got {self.spatial_kernel}"
            )

    @property
    def bottleneck_channels(self) -> int:
        return self.encoder_blocks[-1][1]

    @classmethod
    def desk(cls, **overrides) -> "ModelConfig":
        """Small configuration that trains in minutes on a CPU."""
        return cls(**overrides)

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        """VGG-16 scale encoder at 224x320 input (the published geometry)."""
        return cls(input_size=(224, 320), encoder_blocks=FULL_BLOCKS,
                   head_channels=FULL_HEAD)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; ``config_from_dict`` lists the rules."""
        return config_from_dict(cls, d)


def soft_argmax(features: Tensor, beta: float) -> Tensor:
    """Differentiable argmax of each channel plane.

    features: [B, C, H, W]. Returns [B, C, 2] normalized (x, y): the
    softmax-weighted average of the column grid i/W and row grid j/H,
    indices running 0..W-1 and 0..H-1. A uniform plane lands on the
    centroid; as beta grows the output approaches the true argmax.
    """
    features = _nchw(features, "soft_argmax")
    b, c, h, w = features.shape
    p = softmax2d(features, beta)
    xs = Tensor((np.arange(w, dtype=np.float32) / np.float32(w)).reshape(1, 1, 1, w))
    ys = Tensor((np.arange(h, dtype=np.float32) / np.float32(h)).reshape(1, 1, h, 1))
    px = (p * xs).sum(axis=(2, 3))  # [B, C]
    py = (p * ys).sum(axis=(2, 3))
    return concat([px.reshape(b, c, 1), py.reshape(b, c, 1)], axis=2)


class SalypathModel:
    """Encoder + attention gate + decoder + scanpath head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, kaiming_uniform(np.random.default_rng(seed)))

    def _build(self, config: ModelConfig, make: ParamMaker) -> None:
        """Lay out the layers, each parameter made once by ``make`` and filed
        under its name, in the checkpoint's order: encoder, decoder, head,
        attention, so at equal seed attention on and off share trunk weights."""
        self.config = config
        self._params: dict[str, Tensor] = {}
        make = recording(make, self._params)

        self.encoder: list[list[ConvLayer]] = []
        in_ch = config.in_channels
        for bi, (count, ch) in enumerate(config.encoder_blocks):
            self.encoder.append([
                ConvLayer.build(make, f"enc.b{bi}.c{ci}", ch if ci else in_ch, ch, 3)
                for ci in range(count)])
            in_ch = ch

        # block k mirrors encoder block n-1-k; its last conv steps the
        # channel count down to the next block's
        self.decoder: list[list[ConvLayer]] = []
        blocks = config.encoder_blocks[::-1]
        for k, (count, ch) in enumerate(blocks):
            out_ch = blocks[k + 1][1] if k + 1 < len(blocks) else ch
            self.decoder.append([
                ConvLayer.build(make, f"dec.b{k}.c{ci}", ch, out_ch if ci == count - 1 else ch, 3)
                for ci in range(count)])
        self.dec_out = ConvLayer.build(make, "dec.out", blocks[-1][1], 1, 1)

        self.head: list[ConvLayer] = []
        head_in = config.bottleneck_channels
        for hi, hc in enumerate(config.head_channels):
            self.head.append(ConvLayer.build(make, f"head.{hi}", head_in, hc, 3))
            head_in = hc

        self.att = (AttentionGate(config.bottleneck_channels, config.attention_reduction,
                                  config.spatial_kernel, make=make)
                    if config.attention_enabled else None)

    def parameters(self, groups: tuple[str, ...] | None = None) -> dict[str, Tensor]:
        """Name -> tensor in make order, for the named groups of name prefixes
        ``enc``, ``dec``, ``head`` and ``att`` (all of them by default)."""
        if groups is None:
            return dict(self._params)
        return {k: v for k, v in self._params.items() if k.partition(".")[0] in groups}

    # -- forward pieces ---------------------------------------------------

    def _check_input(self, x) -> Tensor:
        """``x`` as a Tensor, checked against the model's input shape."""
        x = _nchw(x, "encode")
        h, w = self.config.input_size
        if x.shape[1] != self.config.in_channels:
            raise DimensionError(
                f"encode: input axis 1 has {x.shape[1]} channels, "
                f"expected {self.config.in_channels}"
            )
        if x.shape[2] != h or x.shape[3] != w:
            raise DimensionError(
                f"encode: input spatial axes (2, 3) are {x.shape[2]}x{x.shape[3]}, "
                f"expected {h}x{w}"
            )
        return x

    def encode(self, x: Tensor) -> Tensor:
        """Image batch -> raw bottleneck [B, C_bott, H/2^k, W/2^k]."""
        x = self._check_input(x)
        for block in self.encoder:
            for layer in block:
                x = layer(x, relu=True)
            x = maxpool2(x)
        return x

    def attend(self, bottleneck: Tensor) -> Tensor:
        if self.att is None:
            return bottleneck
        return attend(bottleneck, self.att)

    def decode(self, bottleneck: Tensor) -> Tensor:
        """Attended bottleneck -> saliency map batch [B, 1, H, W] in (0, 1).

        A block's first conv takes its input's nearest 2x upsampling inside
        ``conv2d`` (``upsample=True``), equal to ``upsample2`` then the conv
        up to float32 rounding."""
        x = bottleneck
        for first, *rest in self.decoder:
            x = first(x, relu=True, upsample=True)
            for layer in rest:
                x = layer(x, relu=True)
        return self.dec_out(x).sigmoid()

    def scanpath_features(self, bottleneck: Tensor) -> Tensor:
        """Attended bottleneck -> [B, 8, h, w] fixation feature planes."""
        x = bottleneck
        for layer in self.head[:-1]:
            x = layer(x, relu=True)
        return self.head[-1](x)

    def forward_tensors(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Full differentiable forward pass: (maps [B,1,H,W], points [B,8,2])."""
        bott = self.attend(self.encode(x))
        maps = self.decode(bott)
        feats = self.scanpath_features(bott)
        points = soft_argmax(feats, self.config.beta)
        return maps, points

    def forward(self, image) -> tuple[np.ndarray, np.ndarray]:
        """Single image [3, H, W] (array or Tensor) -> its [H, W] float32
        saliency map and its [8, 2] float32 scanpath of normalized (x, y)
        points (one per head channel)."""
        arr = image.data if isinstance(image, Tensor) else np.asarray(image, np.float32)
        if arr.ndim != 3:
            raise DimensionError(
                f"forward: image must be [C,H,W], got rank {arr.ndim}"
            )
        with no_grad():
            maps, points = self.forward_tensors(Tensor(arr[None]))
        return maps.data[0, 0], points.data[0]

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, [p.data for p in self._params.values()], self.config.to_dict())

    @classmethod
    def load(cls, path) -> "SalypathModel":
        """Model built from a checkpoint's config, nothing drawn: each parameter
        ``_build`` asks for is a writable view of the next slice of the file's
        one read buffer, and the payload must hold exactly the config's number
        of float32 values. The count is checked before each slice, so a config
        larger than its payload fails before anything of its size is made."""
        values, config = load_checkpoint(path)
        start = 0

        def make(name: str, shape: tuple[int, ...]) -> Tensor:
            nonlocal start
            stop = start + math.prod(shape)
            if stop > values.size:
                raise CheckpointError(
                    f"{path}: payload has {values.size} float32 values, too few for its config")
            view, start = values[start:stop].reshape(shape), stop
            return Tensor(view, requires_grad=True)

        model = cls.__new__(cls)
        model._build(ModelConfig.from_dict(config), make)
        if start != values.size:
            raise CheckpointError(f"{path}: payload has {values.size} float32 values, but its "
                                  f"config takes {start}")
        return model
