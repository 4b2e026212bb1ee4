"""
Two-phase training on synthetic data
====================================

Phase 1 fits the saliency branch (weighted KL + MSE - NSS); phase 2
freezes the trunk and fits the scanpath head (mean squared point
distance through the soft-argmax). Everything is seeded, so a rerun
reproduces the loss curves bit for bit.

Runs in under a minute on a laptop CPU. For a quick look, shrink the
epochs below; for the acceptance-grade run, see tests/test_acceptance.py.
"""

import tempfile
from pathlib import Path

import numpy as np

from salypath import (
    ModelConfig,
    SalypathModel,
    TrainConfig,
    cc,
    generate_synthetic,
    multimatch,
    train,
)

work = Path(tempfile.mkdtemp(prefix="salypath-demo-"))

# 16 images, 32x32, blobs kept away from the center so a center prior
# can't trivially win.
data = generate_synthetic(16, seed=0, size=(32, 32), out_dir=work / "data",
                          min_center_dist=0.25)
print(f"dataset: {len(data)} records under {data.root}")

model = SalypathModel(ModelConfig.desk(input_size=(32, 32)), seed=0)
n_params = sum(int(np.prod(p.data.shape)) for p in model.parameters().values())
print(f"model: {n_params:,} parameters")

config = TrainConfig(phase1_epochs=8, phase2_epochs=8, batch_size=8, seed=0)
r1, r2 = train(model, data, config, checkpoint_path=work / "model.ckpt")

print("\nphase 1 (saliency) loss per epoch:")
print("  " + "  ".join(f"{v:.4f}" for v in r1.epoch_losses))
print("phase 2 (scanpath) loss per epoch:")
print("  " + "  ".join(f"{v:.4f}" for v in r2.epoch_losses))
print(f"wall time: {r1.wall_time_s + r2.wall_time_s:.1f}s")

# Score the fit against the training targets (a sanity check, not an
# evaluation; held-out scoring goes through the eval-* CLI commands).
ccs, mms = [], []
for i in range(len(data)):
    pred_map, pred_path = model.forward(data.load_stimulus(i))
    ccs.append(cc(pred_map, data.load_map(i)))
    mms.append(multimatch(pred_path, data.load_scanpaths(i)[0]).mean)

print(f"\ntrain-set fit: cc {np.mean(ccs):.3f}   multimatch mean {np.mean(mms):.3f}")
print(f"checkpoint written to {work / 'model.ckpt'}")
