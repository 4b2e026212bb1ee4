"""
The gated channel+spatial attention block
=========================================

The bottleneck applies channel attention (an MLP over pooled channel
descriptors) and spatial attention (a conv over pooled channel maps), then
blends the result back in through a learned scalar gamma:

    out = x + gamma * (x * ch_gain * sp_gain)

gamma starts at zero, so an untrained gate is an exact identity and
training can only move away from that as the gradients ask for it.
"""

import numpy as np

from salypath import AttentionGate, Tensor, attend, channel_attention, spatial_attention
from salypath.tensor import kaiming_uniform

rng = np.random.default_rng(7)
x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))

# make(name, shape) hands out each parameter; kaiming_uniform draws fresh ones
gate = AttentionGate(channels=8, reduction=4, spatial_kernel=7,
                     make=kaiming_uniform(np.random.default_rng(1)))
print("fresh gamma =", float(gate.gamma.data))

out = attend(x, gate)
print("identity at gamma=0:", bool(np.array_equal(out.data, x.data)))

# Both gains are sigmoids, so they live strictly inside (0, 1): the gate
# can suppress but never amplify or invert a feature.
ch = channel_attention(x, gate).data.reshape(-1)
sp = spatial_attention(x, gate).data
print("channel gains:", np.array2string(ch, precision=3))
print("spatial gain range: [%.3f, %.3f]" % (sp.min(), sp.max()))

# Crank gamma up and watch the residual branch take hold.
for g in (0.0, 0.5, 1.0, 2.0):
    gate.gamma.data = np.float32(g)
    delta = np.abs(attend(x, gate).data - x.data).mean()
    print(f"gamma={g:<4}  mean |out - x| = {delta:.4f}")

# The gate is fully differentiable, gamma included.
gate.gamma.data = np.float32(0.8)
xt = Tensor(x.data.copy(), requires_grad=True)
attend(xt, gate).sum().backward()
print("\ngamma grad:", float(gate.gamma.grad))
print("input grad mean |g|:", float(np.abs(xt.grad).mean()))
