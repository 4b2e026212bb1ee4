"""
Reverse-mode autodiff on float32 arrays
=======================================

The whole package runs on one small Tensor class: eager numpy ops that
record a tape, and a backward() that walks it. This script builds a few
graphs by hand and checks the gradients against central differences.
"""

import numpy as np

from salypath import ConvLayer, Tensor, conv2d, maxpool2
from salypath.tensor import kaiming_uniform

rng = np.random.default_rng(0)

# A tensor only accumulates gradients if asked. Leaves default to
# requires_grad=False so data arrays stay cheap.
x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)

y = (x * w).sigmoid()
loss = (y * y).mean()
loss.backward()
print("loss        =", loss.item())
print("x.grad shape:", x.grad.shape, " w.grad shape:", w.grad.shape)

# Check one coordinate of w.grad numerically. Central differences on the
# float32 forward pass agree to ~1e-4 relative; good enough to catch any
# real chain-rule mistake.
def f():
    y = (x * w).sigmoid()
    return (y * y).mean().item()

eps = 1e-3
orig = float(w.data[1, 0])
w.data[1, 0] = orig + eps
up = f()
w.data[1, 0] = orig - eps
dn = f()
w.data[1, 0] = orig

numeric = (up - dn) / (2 * eps)
print(f"w.grad[1,0] analytic {w.grad[1, 0]:+.6f}  numeric {numeric:+.6f}")

# There is deliberately no dense/matmul op: everywhere the network needs
# a linear layer it uses a 1x1 convolution (see the attention MLP), so
# conv2d is the one matmul-shaped workhorse.

# The conv/pool path used by the encoder. Gradients flow through the
# shift-and-GEMM convolution and 2x2 max pooling the same way. relu=True
# applies the ReLU inside conv2d: one graph node and one output buffer
# instead of two.
img = Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32), requires_grad=True)
layer = ConvLayer.build(kaiming_uniform(rng), "demo", 3, 4, 3)
pre = conv2d(img, layer, relu=True)
pooled = maxpool2(pre)
print("\nconv->relu->pool:", img.shape, "->", pooled.shape)

pooled.sum().backward()
print("d(sum)/d(img) mean |g| =", float(np.abs(img.grad).mean()))

# Only leaves keep .grad: pre is an op output, so its gradient lived only
# inside that backward pass. To look at it, wrap the activation's array in
# a leaf of a second graph. Max pooling routes gradient only to the
# winner of each 2x2 window, so at most a quarter of the pre-pool
# activations see any gradient (less where relu already zeroed the winner).
act = Tensor(pre.data, requires_grad=True)
maxpool2(act).sum().backward()
frac = float((act.grad != 0).mean())
print(f"fraction of pre-pool activations with nonzero grad = {frac:.3f} (max 0.25)")

# The fused form is the same arithmetic as conv2d(...).relu(), and its
# gradient mask out > 0 holds exactly where the pre-activation's a > 0
# does, so both forms agree bit for bit, gradients included.
fused_grad = img.grad
img.grad = None
unfused = conv2d(img, layer).relu()
maxpool2(unfused).sum().backward()
same = (pre.data.tobytes() == unfused.data.tobytes()
        and fused_grad.tobytes() == img.grad.tobytes())
print("conv2d(img, layer, relu=True) and conv2d(img, layer).relu() agree bitwise:", same)
