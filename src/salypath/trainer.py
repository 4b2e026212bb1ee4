"""Two-phase training.

Phase 1 fits encoder + attention + decoder under the composite saliency
loss; the scanpath head is untouched. Phase 2 fits the scanpath head under
the pointwise MSE loss, on the schedule ``TrainConfig.phase2_mode`` names:
"frozen" (default) runs it after phase 1 with encoder and attention frozen,
so bottleneck features stay put; "unfrozen" trains them too; and
"alternating" (ablation) also trains them, one epoch of each phase per
round. A frozen phase 2 computes each sample's attended bottleneck once,
when its first epoch starts, and every batch of every epoch reads its rows
from that array.

One epoch loop and one batch loss serve both phases and every schedule.
``train()`` builds each phase's state once (optimizer, shuffling
Generator, report), so in alternating mode each phase's optimizer moments
and shuffle stream carry over from round to round exactly as they do
across sequential epochs. A batch's forward, backward and optimizer step
run in one call that returns the float loss, so a step's graph is freed
before the next batch.

Bookkeeping rules: lr for epoch e is exactly base * decay**e; shuffling
comes from one seeded Generator per phase, so a rerun with the same seed
reproduces the loss curves and checkpoint bytes bit for bit (the first
conv sets scipy's OpenBLAS to one thread); a non-finite loss or gradient
aborts with TrainingDiverged naming the offending tensor (when a
checkpoint path is given, the file from the last finished epoch is left in
place).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import DatasetManifest, resample_map, resample_stimulus
from .errors import ConfigError, ContractError, NumericError, TrainingDiverged
from .losses import LossWeights, saliency_loss, scanpath_loss
from .model import SalypathModel, soft_argmax
from .tensor import Tensor, no_grad
from .types import FixationSet, config_from_dict, read_fields

__all__ = ["TrainConfig", "TrainReport", "SGD", "Adam", "lr_schedule", "train"]


def lr_schedule(epoch: int, base_lr: float, decay: float) -> float:
    """Exponential step schedule: base * decay**epoch."""
    return float(base_lr) * float(decay) ** int(epoch)


@dataclass(frozen=True)
class TrainConfig:
    phase1_epochs: int = 20
    phase2_epochs: int = 20
    phase1_lr: float = 1e-4
    phase2_lr: float = 1e-3
    lr_decay: float = 0.9
    batch_size: int = 16
    optimizer: str = "adam"
    seed: int = 0
    phase2_mode: str = "frozen"
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        read_fields(self)
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("TrainConfig: epochs must be >= 0")
        if not (0 < self.phase1_lr < np.inf and 0 < self.phase2_lr < np.inf):
            raise ConfigError("TrainConfig: learning rates must be finite and > 0")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError(
                f"TrainConfig: lr_decay must be in (0, 1], got {self.lr_decay}"
            )
        if self.batch_size < 1:
            raise ConfigError("TrainConfig: batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"TrainConfig: seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(
                f"TrainConfig: optimizer must be adam or sgd, got {self.optimizer!r}"
            )
        if self.phase2_mode not in ("frozen", "unfrozen", "alternating"):
            raise ConfigError("TrainConfig: phase2_mode must be frozen, unfrozen or "
                              f"alternating, got {self.phase2_mode!r}")

    @classmethod
    def full_scale(cls) -> "TrainConfig":
        """The published schedule: tiny lrs, meant for dataset-scale runs."""
        return cls(phase1_lr=1e-7, phase2_lr=1e-5)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of ``to_dict``; ``config_from_dict`` lists the rules."""
        return config_from_dict(cls, d)


@dataclass
class TrainReport:
    """One phase's per-epoch loss and lr curves; ``wall_time_s`` is the
    time spent in that phase's epochs alone."""

    phase: int
    epoch_losses: list[float]
    lrs: list[float]
    wall_time_s: float
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


# -- optimizers ------------------------------------------------------------


def _check_grad(name: str, p: Tensor) -> np.ndarray:
    if p.grad is None:
        raise ContractError(f"optimizer step: {name} has no gradient")
    if not np.isfinite(p.grad).all():
        raise NumericError(f"optimizer step: non-finite gradient in {name}")
    return p.grad


class SGD:
    """Plain gradient descent: w -= lr * g."""

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        for name, p in params.items():
            g = _check_grad(name, p)
            p.data = p.data - np.float32(lr) * g


class Adam:
    """Adam with bias correction, with Kingma & Ba's (2015) suggested
    BETA1, BETA2 and EPS as constants. The very first step moves each
    weight by about lr."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            g = _check_grad(name, p)
            m = b1 * self._m.get(name, 0.0) + (1.0 - b1) * g
            v = b2 * self._v.get(name, 0.0) + (1.0 - b2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            mhat = m / np.float32(c1)
            vhat = v / np.float32(c2)
            p.data = p.data - np.float32(lr) * mhat / (np.sqrt(vhat) + np.float32(self.EPS))


# -- data staging ------------------------------------------------------------


@dataclass
class _Sample:
    image: np.ndarray            # [3, H, W] float32 at model input size
    gt_map: np.ndarray           # [H, W] float32 at model input size
    fixations: FixationSet | None  # distinct fixated pixels, or None
    paths: np.ndarray            # [S, L, 2] float32 normalized, L = head length


def prepare_samples(model: SalypathModel, manifest: DatasetManifest) -> list[_Sample]:
    """Load, resample each stimulus and map from its own size to the model's
    input size (an image of that size stays bit for bit), and pool fixations."""
    h, w = model.config.input_size
    head_len = model.config.head_channels[-1]
    if (manifest.height, manifest.width) != (h, w):
        warnings.warn(
            f"dataset is {manifest.width}x{manifest.height}, resampling to "
            f"model input {w}x{h}",
            RuntimeWarning,
        )
    samples = []
    for i in range(len(manifest)):
        img = resample_stimulus(manifest.load_stimulus(i), w, h)
        gt = resample_map(manifest.load_map(i), w, h)
        paths = manifest.load_scanpaths(i)
        fix = None
        if paths:  # each fixated pixel once: the NSS term weighs a pixel 0 or 1
            pix = FixationSet.from_scanpaths(paths, w, h).points
            fix = FixationSet(np.unique(pix, axis=0), (h, w))
        keep = [p.points for p in paths if len(p) == head_len]
        pts = (np.stack(keep).astype(np.float32) if keep
               else np.zeros((0, head_len, 2), dtype=np.float32))
        samples.append(_Sample(image=img, gt_map=gt, fixations=fix, paths=pts))
    return samples


# -- the loop -----------------------------------------------------------------


def _mean(losses: list[Tensor]) -> Tensor:
    """Add in list order, then divide by the count."""
    return sum(losses[1:], losses[0]) / np.float32(len(losses))


class _Phase:
    """One phase's training state, built once per ``train()`` call.

    Everything that must carry over from one epoch of the phase to the
    next lives here: its samples and parameters, its optimizer, its
    shuffling Generator and its report. ``run_epoch`` is the only epoch
    loop, so every schedule carries that state the same way.

    A frozen phase 2 also keeps the attended bottleneck of its samples,
    computed once when its first epoch starts (``train()`` builds both
    phases before phase 1 trains the trunk, so not here).
    """

    def __init__(self, model: SalypathModel, samples: list[_Sample],
                 config: TrainConfig, phase: int, checkpoint_path=None):
        self.model, self.config, self.phase = model, config, phase
        self.checkpoint_path = checkpoint_path
        self.freeze = phase == 2 and config.phase2_mode == "frozen"
        # [N, C, h, w] float32, row k for self.samples[k]; frozen phase only
        self.bott: np.ndarray | None = None
        if phase == 1:
            groups = ("enc", "att", "dec")
            self.base_lr, self.epochs = config.phase1_lr, config.phase1_epochs
        else:
            # the scanpath graph runs encoder -> attention -> head; the
            # decoder never sees gradients in this phase
            groups = ("head",) if self.freeze else ("enc", "att", "head")
            self.base_lr, self.epochs = config.phase2_lr, config.phase2_epochs
            samples = [s for s in samples if s.paths.shape[0] > 0]
            if self.epochs and not samples:
                raise ContractError(
                    f"phase 2: no scanpaths of length {model.config.head_channels[-1]} "
                    "in the dataset"
                )
        if self.epochs and not samples:
            raise ContractError("training: empty dataset")
        self.params = model.parameters(groups)
        self.samples = samples
        self.optimizer = Adam() if config.optimizer == "adam" else SGD()
        self.rng = np.random.default_rng((config.seed, phase))
        self.report = TrainReport(phase=phase, epoch_losses=[], lrs=[],
                                  wall_time_s=0.0, n_samples=len(samples))

    def _images(self, idx) -> Tensor:
        return Tensor(np.stack([self.samples[k].image for k in idx]))

    def _attended_bottlenecks(self) -> np.ndarray:
        """The frozen trunk's attended bottleneck of every sample, in
        sample order, one batch at a time."""
        model, bs, n = self.model, self.config.batch_size, len(self.samples)
        with no_grad():
            chunks = [model.attend(model.encode(self._images(range(n)[lo:lo + bs]))).data
                      for lo in range(0, n, bs)]
        return np.concatenate(chunks)

    def _batch_loss(self, idx) -> Tensor:
        """The batch's mean sample loss: the saliency loss of the decoded map
        (phase 1), or the soft-argmax path's scanpath loss averaged over the
        sample's ground-truth paths (phase 2)."""
        model, samples = self.model, [self.samples[k] for k in idx]
        if self.freeze:
            bott = Tensor(self.bott[idx])
        else:
            bott = model.attend(model.encode(self._images(idx)))
        if self.phase == 1:
            maps = model.decode(bott)
            return _mean([saliency_loss(maps[i, 0], s.gt_map, s.fixations,
                                        weights=self.config.loss_weights)
                          for i, s in enumerate(samples)])
        points = soft_argmax(model.scanpath_features(bott), model.config.beta)
        return _mean([_mean([scanpath_loss(points[i], gt) for gt in s.paths])
                      for i, s in enumerate(samples)])

    def _step(self, idx, lr: float) -> float:
        """One batch's forward, backward and optimizer step; returns its loss."""
        for p in self.params.values():
            p.grad = None
        # non-finite activations surface in the forward pass before the loss does
        loss = self._batch_loss(idx)
        val = loss.item()
        if not np.isfinite(val):
            raise NumericError(f"loss went non-finite ({val})")
        loss.backward()
        self.optimizer.step(self.params, lr)
        return val

    def run_epoch(self, epoch: int) -> None:
        """Shuffle, take one optimizer step per batch, record the epoch's
        loss and lr, and checkpoint."""
        start = time.perf_counter()
        report = self.report
        lr = lr_schedule(epoch, self.base_lr, self.config.lr_decay)
        report.lrs.append(lr)
        order = self.rng.permutation(len(self.samples))
        bs = self.config.batch_size
        epoch_loss = 0.0
        try:
            if self.freeze and self.bott is None:
                self.bott = self._attended_bottlenecks()
            for lo in range(0, len(self.samples), bs):
                idx = order[lo:lo + bs]
                epoch_loss += self._step(idx, lr) * len(idx)
        except NumericError as e:
            report.wall_time_s += time.perf_counter() - start
            raise TrainingDiverged(
                f"phase {self.phase} epoch {epoch}: {e}", report=report
            ) from e
        report.epoch_losses.append(epoch_loss / len(self.samples))
        if self.checkpoint_path is not None:
            self.model.save(self.checkpoint_path)
        report.wall_time_s += time.perf_counter() - start


def train(model: SalypathModel, manifest: DatasetManifest, config: TrainConfig,
          checkpoint_path=None) -> tuple[TrainReport, TrainReport]:
    """Run the full schedule; returns the phase-1 and phase-2 reports.

    Sequential unless ``phase2_mode`` is "alternating": every epoch of
    phase 1, then every epoch of phase 2. Alternating (ablation) runs round
    e as epoch e of phase 1 then epoch e of phase 2, skipping a phase whose
    epochs are used up. Both phases are set up and checked before the first
    epoch, so a phase that cannot run fails before anything trains; a phase
    with 0 epochs needs no data.
    """
    samples = prepare_samples(model, manifest)
    phases = [_Phase(model, samples, config, p, checkpoint_path) for p in (1, 2)]
    if config.phase2_mode == "alternating":
        rounds = max(p.epochs for p in phases)
        schedule = [(p, e) for e in range(rounds) for p in phases if e < p.epochs]
    else:
        schedule = [(p, e) for p in phases for e in range(p.epochs)]
    for phase, epoch in schedule:
        phase.run_epoch(epoch)
    return phases[0].report, phases[1].report
