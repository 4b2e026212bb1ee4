"""Convolutional block attention for the bottleneck.

Channel branch: spatial average-pool and max-pool descriptors pushed
through one shared two-layer 1x1-conv MLP (reduction r, ReLU between),
summed, squashed with a sigmoid -> [B, C, 1, 1].

Spatial branch: channel-wise mean and max maps concatenated and convolved
with a single k x k "same" conv (k odd, default 7), squashed
-> [B, 1, H, W]. ``ConvLayer`` owns the odd-kernel rule.

Composition, deliberately and exactly:

    z  = x * spatial(x * channel(x))
    x' = x + gamma * z

The spatial weights multiply the raw input x, not the channel-refined
tensor. gamma is a learnable scalar initialized to 0, so a fresh gate is
the identity map (up to adding a literal zero).
"""

from __future__ import annotations

from .errors import ConfigError
from .tensor import ConvLayer, ParamMaker, Tensor, concat
from .types import check_int


class AttentionGate:
    """Parameter bundle for the attention block at a given channel width.

    Each parameter comes from ``make`` (see ``tensor.ParamMaker``) under an
    ``att.`` checkpoint name; wrap ``make`` in ``tensor.recording`` to
    collect them by name."""

    def __init__(self, channels: int, reduction: int = 4, spatial_kernel: int = 7, *,
                 make: ParamMaker):
        channels = check_int(channels, "AttentionGate: channels")
        reduction = check_int(reduction, "AttentionGate: reduction")
        spatial_kernel = check_int(spatial_kernel, "AttentionGate: spatial_kernel")
        if channels < 1:
            raise ConfigError(f"AttentionGate: channels must be >= 1, got {channels}")
        if reduction < 1 or channels % reduction != 0:
            raise ConfigError(
                f"AttentionGate: channels ({channels}) must be divisible by "
                f"reduction ({reduction})"
            )
        hidden = channels // reduction
        self.channels = channels
        self.reduction = reduction
        self.spatial_kernel = spatial_kernel
        self.ch_mlp = (
            ConvLayer.build(make, "att.ch_mlp.0", channels, hidden, 1),
            ConvLayer.build(make, "att.ch_mlp.1", hidden, channels, 1),
        )
        self.sp_conv = ConvLayer.build(make, "att.sp_conv", 2, 1, spatial_kernel)
        self.gamma = make("att.gamma", ())

    def _mlp(self, d: Tensor) -> Tensor:
        return self.ch_mlp[1](self.ch_mlp[0](d, relu=True))


def channel_attention(x: Tensor, gate: AttentionGate) -> Tensor:
    """Per-channel gains in (0, 1), shape [B, C, 1, 1]."""
    avg = x.mean(axis=(2, 3), keepdims=True)
    mx = x.max(axis=(2, 3), keepdims=True)
    return (gate._mlp(avg) + gate._mlp(mx)).sigmoid()


def spatial_attention(x: Tensor, gate: AttentionGate) -> Tensor:
    """Per-pixel gains in (0, 1), shape [B, 1, H, W]."""
    mean_map = x.mean(axis=1, keepdims=True)
    max_map = x.max(axis=1, keepdims=True)
    return gate.sp_conv(concat([mean_map, max_map], axis=1)).sigmoid()


def attend(x: Tensor, gate: AttentionGate) -> Tensor:
    """Gated residual attention; identity when gamma == 0."""
    refined = x * channel_attention(x, gate)
    z = x * spatial_attention(refined, gate)
    return x + z * gate.gamma
