"""Two-phase training: schedule arithmetic, optimizer updates, phase
separation (what trains vs what stays frozen), bit-exact reproducibility,
and divergence handling.

Training-run tests use a 16x16 synthetic dataset and a two-block model so
each case stays well under a second.
"""

import dataclasses
import gc
import json
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from salypath import tensor, trainer
from salypath.checkpoint import load_checkpoint
from salypath.data import (
    generate_synthetic,
    load_manifest,
    read_pgm,
    read_ppm,
    resample_map,
    resample_stimulus,
    save_manifest,
)
from salypath.errors import ConfigError, ContractError, NumericError, TrainingDiverged
from salypath.losses import LossWeights, saliency_loss, scanpath_loss
from salypath.model import ModelConfig, SalypathModel, soft_argmax
from salypath.tensor import ConvLayer, Tensor, kaiming_uniform, no_grad, upsample2
from salypath.trainer import Adam, SGD, TrainConfig, TrainReport, lr_schedule, train
from salypath.types import pool_fixations

from conftest import graph_nodes, mis_sized_dataset

TINY = dict(
    input_size=(16, 16),
    encoder_blocks=((1, 4), (1, 8)),
    head_channels=(8,) * 10,
    attention_reduction=2,
    spatial_kernel=3,
)


TRUNK = ("enc", "att", "dec")
HEAD = ("head",)


def tiny_model(seed: int = 1) -> SalypathModel:
    return SalypathModel(ModelConfig(**TINY), seed=seed)


def train_only(phase: int, model, dataset, cfg: TrainConfig, checkpoint_path=None):
    """``train`` with the other phase at 0 epochs; returns this phase's report."""
    other = "phase2_epochs" if phase == 1 else "phase1_epochs"
    cfg = dataclasses.replace(cfg, **{other: 0})
    return train(model, dataset, cfg, checkpoint_path=checkpoint_path)[phase - 1]


def snapshot(params: dict) -> dict:
    return {k: v.data.copy() for k, v in params.items()}


def assert_bitwise_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-data")
    return generate_synthetic(8, seed=0, size=(16, 16), out_dir=root)


# -- schedule ---------------------------------------------------------------

class TestLrSchedule:
    def test_epoch_zero_is_base(self):
        assert lr_schedule(0, 1e-7, 0.9) == 1e-7
        assert lr_schedule(0, 0.25, 0.5) == 0.25

    def test_two_decays_of_published_base(self):
        assert lr_schedule(2, 1e-5, 0.9) == pytest.approx(8.1e-6, rel=1e-12)

    def test_no_decay_is_constant(self):
        assert [lr_schedule(e, 3e-4, 1.0) for e in range(5)] == [3e-4] * 5

    def test_closed_form(self):
        for e in range(12):
            assert lr_schedule(e, 2e-3, 0.8) == 2e-3 * 0.8 ** e


# -- optimizer steps ----------------------------------------------------------

class TestOptimizers:
    def test_sgd_on_quadratic(self):
        # f(w) = w^2 at w=1, lr=0.1: grad 2, one step lands on 0.8
        w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        (w * w).sum().backward()
        SGD().step({"w": w}, 0.1)
        assert w.data[0] == pytest.approx(0.8, rel=1e-6)

    def test_sgd_zero_lr_is_bitwise_noop(self, rng):
        w = Tensor(rng.normal(size=7).astype(np.float32), requires_grad=True)
        before = w.data.copy()
        (w * w).sum().backward()
        SGD().step({"w": w}, 0.0)
        assert np.array_equal(w.data, before)

    def test_adam_zero_lr_is_bitwise_noop(self, rng):
        w = Tensor(rng.normal(size=7).astype(np.float32), requires_grad=True)
        before = w.data.copy()
        (w * w).sum().backward()
        Adam().step({"w": w}, 0.0)
        assert np.array_equal(w.data, before)

    def test_adam_first_step_magnitude_is_lr(self):
        # bias correction makes step one ~ lr * sign(g) at any gradient scale
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.array([1e-6, 1.0, 1e3, -50.0], dtype=np.float32)
        Adam().step({"p": p}, 0.01)
        assert np.abs(np.abs(p.data) - 0.01).max() < 0.01 * 0.02
        assert p.data[3] > 0    # steps against the gradient

    def test_adam_quadratic_descends_monotonically(self):
        w = Tensor(np.array([3.0, -2.0, 1.5], dtype=np.float32), requires_grad=True)
        scale = np.array([1.0, 2.0, 0.5], dtype=np.float32)
        opt = Adam()
        losses = []
        for _ in range(50):
            w.grad = None
            loss = (w * w * scale).sum()
            loss.backward()
            opt.step({"w": w}, 0.05)
            losses.append(loss.item())
        diffs = np.diff(losses)
        assert (diffs[5:] < 0).all()        # monotone once past warmup
        assert losses[-1] < 0.1 * losses[0]

    def test_missing_gradient_names_tensor(self):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="enc.w has no gradient"):
            SGD().step({"enc.w": w}, 0.1)

    def test_non_finite_gradient_names_tensor(self):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        w.grad = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(NumericError, match="non-finite gradient in head.b"):
            Adam().step({"head.b": w}, 0.1)

    def test_adam_state_persists_between_calls(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        st = Adam()
        for _ in range(3):
            p.grad = np.array([1.0], dtype=np.float32)
            st.step({"p": p}, 0.1)
        assert st.t == 3


# -- config -------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr_decay == 0.9
        assert cfg.optimizer == "adam"
        assert cfg.phase2_mode == "frozen"
        assert len(cfg.to_dict()) == 10

    def test_full_scale_preset_uses_published_lrs(self):
        cfg = TrainConfig.full_scale()
        assert cfg.phase1_lr == 1e-7
        assert cfg.phase2_lr == 1e-5
        assert cfg.lr_decay == 0.9

    @pytest.mark.parametrize("bad", [
        dict(phase1_epochs=-1),
        dict(phase1_lr=0.0),
        dict(phase2_lr=-1e-3),
        dict(lr_decay=0.0),
        dict(lr_decay=1.5),
        dict(batch_size=0),
        dict(optimizer="rmsprop"),
        dict(phase2_epochs=-1),
        dict(seed=-1),
        dict(phase1_lr=float("nan")),
        dict(phase2_lr=float("inf")),
        dict(phase2_mode="joint"),
        dict(phase2_mode="Frozen"),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad, error", [
        (dict(batch_size=2.5), r"TrainConfig\.batch_size: expected int, got 2\.5"),
        (dict(seed=1.5), r"TrainConfig\.seed: expected int, got 1\.5"),
        (dict(phase1_epochs=True), r"TrainConfig\.phase1_epochs: expected int, got True"),
        (dict(loss_weights={"kl_w": 0.6, "mse_w": "0.3", "nss_w": 0.1}),
         r"TrainConfig\.loss_weights\.mse_w: expected float, got '0\.3'"),
    ], ids=["float-batch-size", "float-seed", "bool-epochs", "string-loss-weight"])
    def test_constructor_checks_types(self, bad, error):
        # the rules config_from_dict applies to a train --config file hold
        # for a config built in Python too; a float batch size once ended
        # in a bare TypeError from range, and True trained one epoch
        with pytest.raises(ConfigError, match=error):
            TrainConfig(**bad)

    def test_constructor_reads_values_as_a_config_dict_does(self):
        cfg = TrainConfig(phase1_lr=1, batch_size=np.int64(4), seed=np.int32(2),
                          loss_weights={"kl_w": 1, "mse_w": 0.5, "nss_w": np.float32(0.25)})
        assert cfg == TrainConfig.from_dict(cfg.to_dict())
        assert cfg.loss_weights == LossWeights(1.0, 0.5, 0.25)
        assert [type(v) for v in (cfg.phase1_lr, cfg.batch_size, cfg.seed)] == [float, int, int]
        assert type(cfg.loss_weights.nss_w) is float
        json.dumps(cfg.to_dict())

    @pytest.mark.parametrize("field", ["freeze_encoder_phase2", "joint_alternating"])
    def test_removed_schedule_field_rejected_naming_it(self, field):
        # phase2_mode replaced both booleans; a caller still setting one
        # must fail, not train a schedule it did not ask for
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: False})
        d = {**TrainConfig().to_dict(), field: False}
        with pytest.raises(ConfigError, match=rf"TrainConfig\.{field}: unknown field"):
            TrainConfig.from_dict(d)

    def test_dict_round_trip(self):
        cfg = TrainConfig(phase1_epochs=3, phase2_lr=2e-3, optimizer="sgd", seed=9)
        d = cfg.to_dict()
        assert d["loss_weights"] == {"kl_w": 0.6, "mse_w": 0.3, "nss_w": 0.1}
        assert TrainConfig.from_dict(d) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(d))) == cfg

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "16"),
        ("phase1_epochs", 1.5),
        ("phase2_epochs", True),
        ("joint_alternating", 0),
        ("optimizer", None),
        ("loss_weights", {"kl_w": 0.6, "mse_w": 0.3}),
        ("loss_weights", [0.6, 0.3, 0.1]),
        ("phase2_mode", False),
    ])
    def test_from_dict_rejects_mistyped_field(self, key, value):
        d = TrainConfig().to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=rf"TrainConfig\.{key}\b"):
            TrainConfig.from_dict(d)

    def test_from_dict_takes_ints_for_floats(self):
        cfg = TrainConfig.from_dict({**TrainConfig().to_dict(), "phase2_lr": 1})
        assert cfg.phase2_lr == 1.0 and type(cfg.phase2_lr) is float

    def test_report_dict(self):
        rep = TrainReport(phase=1, epoch_losses=[1.0, 0.5], lrs=[1e-3, 9e-4],
                          wall_time_s=0.2, n_samples=8)
        assert rep.to_dict() == {
            "phase": 1, "epoch_losses": [1.0, 0.5], "lrs": [1e-3, 9e-4],
            "wall_time_s": 0.2, "n_samples": 8,
        }


# -- phase 1 ------------------------------------------------------------------

class TestPhase1:
    def test_loss_decreases_and_head_untouched(self, dataset):
        model = tiny_model()
        head_before = snapshot(model.parameters(HEAD))
        cfg = TrainConfig(phase1_epochs=6, phase1_lr=1e-3, batch_size=4, seed=0)
        rep = train_only(1, model, dataset, cfg)
        assert rep.phase == 1
        assert rep.n_samples == 8
        assert len(rep.epoch_losses) == 6
        assert rep.epoch_losses[-1] < rep.epoch_losses[0]
        assert rep.wall_time_s > 0
        assert_bitwise_equal(snapshot(model.parameters(HEAD)), head_before)

    def test_lr_curve_follows_schedule_exactly(self, dataset):
        cfg = TrainConfig(phase1_epochs=5, phase1_lr=2e-3, lr_decay=0.8,
                          batch_size=8, seed=0)
        rep = train_only(1, tiny_model(), dataset, cfg)
        assert rep.lrs == [lr_schedule(e, 2e-3, 0.8) for e in range(5)]

    def test_same_seed_reproduces_curve_and_weights(self, dataset):
        cfg = TrainConfig(phase1_epochs=4, phase1_lr=1e-3, batch_size=4, seed=3)
        m1, m2 = tiny_model(), tiny_model()
        r1 = train_only(1, m1, dataset, cfg)
        r2 = train_only(1, m2, dataset, cfg)
        assert r1.epoch_losses == r2.epoch_losses
        assert_bitwise_equal(snapshot(m1.parameters()), snapshot(m2.parameters()))

    def test_different_seed_changes_curve(self, dataset):
        cfg_a = TrainConfig(phase1_epochs=3, phase1_lr=1e-3, batch_size=4, seed=0)
        cfg_b = dataclasses.replace(cfg_a, seed=1)
        r_a = train_only(1, tiny_model(), dataset, cfg_a)
        r_b = train_only(1, tiny_model(), dataset, cfg_b)
        assert r_a.epoch_losses != r_b.epoch_losses

    def test_divergence_aborts_with_report_and_checkpoint(self, dataset, tmp_path):
        # one sane epoch completes, then the blown-up weights go non-finite;
        # the epoch-0 checkpoint must survive the abort
        ckpt = tmp_path / "last.ckpt"
        cfg = TrainConfig(phase1_epochs=4, phase1_lr=1e10, optimizer="sgd",
                          batch_size=8, seed=0)
        with pytest.raises(TrainingDiverged, match="phase 1 epoch 1") as exc:
            train_only(1, tiny_model(), dataset, cfg, checkpoint_path=ckpt)
        assert len(exc.value.report.epoch_losses) == 1
        assert ckpt.exists()
        values, _ = load_checkpoint(ckpt)
        assert np.isfinite(values).all()

    def test_empty_dataset_rejected(self, tmp_path):
        from salypath.data import DatasetManifest
        man = DatasetManifest(name="none", width=16, height=16,
                              records=[], root=tmp_path)
        save_manifest(man, tmp_path / "manifest.json")
        empty = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(ContractError, match="empty dataset"):
            train_only(1, tiny_model(), empty, TrainConfig(phase1_epochs=1))

    def test_nss_term_reads_the_fixation_indicator(self, dataset):
        # the stored set holds each fixated pixel once, so the loss weighs a
        # pixel 0 or 1, not by multiplicity; the phase-1 loss is
        # saliency_loss with it
        def counts(pts):
            grid = np.zeros((16, 16))
            np.add.at(grid, (pts[:, 0], pts[:, 1]), 1.0)
            return grid

        model = tiny_model()
        pooled = [pool_fixations(dataset.load_scanpaths(i), 16, 16)
                  for i in range(len(dataset))]
        grids = [counts(pts) for pts in pooled]
        k = next(i for i, g in enumerate(grids) if g.max() > 1)  # a repeated fixation pixel
        phase = trainer._Phase(model, trainer.prepare_samples(model, dataset), TrainConfig(), 1)
        s = phase.samples[k]
        assert np.array_equal(counts(s.fixations), grids[k] > 0)
        maps = model.decode(model.attend(model.encode(Tensor(s.image[None]))))
        loss = phase._batch_loss([k]).item()
        assert loss == saliency_loss(maps[0, 0], s.gt_map, np.argwhere(grids[k])).item()
        assert loss != saliency_loss(maps[0, 0], s.gt_map, pooled[k]).item()

    def test_resampling_warns(self, tmp_path):
        man = generate_synthetic(2, seed=0, size=(24, 24), out_dir=tmp_path)
        cfg = TrainConfig(phase1_epochs=1, phase1_lr=1e-4, batch_size=2, seed=0)
        with pytest.warns(RuntimeWarning, match="resampling"):
            train_only(1, tiny_model(), man, cfg)

    def test_each_image_is_resampled_from_its_own_size(self, tmp_path):
        man = mis_sized_dataset(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the manifest has the model's size
            samples = trainer.prepare_samples(tiny_model(), man)
        for i, s in enumerate(samples):
            img, gt = read_ppm(man.stimulus_path(i)), read_pgm(man.map_path(i))
            assert s.image.shape == (3, 16, 16) and s.gt_map.shape == (16, 16)
            assert s.image.tobytes() == resample_stimulus(img, 16, 16).tobytes()
            assert s.gt_map.tobytes() == resample_map(gt, 16, 16).tobytes()
            if i != 1:
                assert s.image.tobytes() == img.tobytes()
            if i != 2:
                assert s.gt_map.tobytes() == gt.tobytes()


# -- phase 2 ------------------------------------------------------------------

class TestPhase2:
    def test_freeze_keeps_trunk_bitwise(self, dataset):
        model = tiny_model()
        trunk_before = snapshot(model.parameters(TRUNK))
        head_before = snapshot(model.parameters(HEAD))
        cfg = TrainConfig(phase2_epochs=5, phase2_lr=1e-3, batch_size=4, seed=0)
        rep = train_only(2, model, dataset, cfg)
        assert rep.phase == 2
        assert rep.epoch_losses[-1] < rep.epoch_losses[0]
        assert_bitwise_equal(snapshot(model.parameters(TRUNK)), trunk_before)
        moved = [k for k, v in model.parameters(HEAD).items()
                 if not np.array_equal(v.data, head_before[k])]
        assert moved

    def test_unfrozen_trunk_moves(self, dataset):
        model = tiny_model()
        trunk_before = snapshot(model.parameters(TRUNK))
        cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=4,
                          seed=0, phase2_mode="unfrozen")
        train_only(2, model, dataset, cfg)
        moved = [k for k, v in model.parameters(TRUNK).items()
                 if not np.array_equal(v.data, trunk_before[k])]
        assert moved

    def test_divergence_wrapped(self, dataset):
        cfg = TrainConfig(phase2_epochs=4, phase2_lr=1e10, optimizer="sgd",
                          batch_size=8, seed=0)
        with pytest.raises(TrainingDiverged, match="phase 2"):
            train_only(2, tiny_model(), dataset, cfg)

    @pytest.mark.parametrize("overrides, groups", [
        (dict(phase2_mode="frozen"), HEAD),
        (dict(phase2_mode="unfrozen"), ("enc", "att", "head")),
        (dict(phase2_mode="alternating"), ("enc", "att", "head")),
    ])
    def test_trains_exactly_its_groups(self, dataset, overrides, groups):
        model = tiny_model()
        samples = trainer.prepare_samples(model, dataset)
        cfg = TrainConfig(**overrides)
        names = list(model.parameters())
        for phase, want in ((1, TRUNK), (2, groups)):
            got = list(trainer._Phase(model, samples, cfg, phase).params)
            assert got == [n for n in names if n.split(".", 1)[0] in want]

    def test_no_matching_length_scanpaths_rejected(self, tmp_path):
        # head emits 8 points; a dataset of 6-point paths has nothing to fit
        man = generate_synthetic(3, seed=0, size=(16, 16), out_dir=tmp_path,
                                 length_weights={6: 1.0})
        cfg = TrainConfig(phase2_epochs=1, phase2_lr=1e-3, seed=0)
        with pytest.raises(ContractError, match="no scanpaths of length 8"):
            train_only(2, tiny_model(), man, cfg)

    def test_phase_with_no_epochs_needs_no_scanpaths(self, tmp_path):
        man = generate_synthetic(3, seed=0, size=(16, 16), out_dir=tmp_path,
                                 length_weights={6: 1.0})
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, phase1_lr=1e-3,
                          batch_size=2, seed=0)
        r1, r2 = train(tiny_model(), man, cfg)
        assert len(r1.epoch_losses) == 1
        assert r2.epoch_losses == [] and r2.n_samples == 0

    def test_unrunnable_phase_fails_before_any_training(self, tmp_path):
        man = generate_synthetic(3, seed=0, size=(16, 16), out_dir=tmp_path,
                                 length_weights={6: 1.0})
        ckpt = tmp_path / "model.ckpt"
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=1, phase1_lr=1e-3,
                          batch_size=2, seed=0)
        with pytest.raises(ContractError, match="no scanpaths of length 8"):
            train(tiny_model(), man, cfg, checkpoint_path=ckpt)
        assert not ckpt.exists()


# -- full schedule --------------------------------------------------------------

class TestFullTrain:
    def test_sequential_runs_both_phases(self, dataset, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=2, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=4, seed=0)
        r1, r2 = train(tiny_model(), dataset, cfg, checkpoint_path=ckpt)
        assert (r1.phase, r2.phase) == (1, 2)
        assert len(r1.epoch_losses) == 2 and len(r2.epoch_losses) == 2
        assert ckpt.exists()

    def test_full_run_reproducible_bitwise(self, dataset):
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=2, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=4, seed=5)
        m1, m2 = tiny_model(), tiny_model()
        train(m1, dataset, cfg)
        train(m2, dataset, cfg)
        assert_bitwise_equal(snapshot(m1.parameters()), snapshot(m2.parameters()))

    def test_alternating_mode_interleaves(self, dataset):
        cfg = TrainConfig(phase1_epochs=3, phase2_epochs=2, phase1_lr=1e-4,
                          phase2_lr=1e-4, batch_size=4, seed=0,
                          phase2_mode="alternating")
        r1, r2 = train(tiny_model(), dataset, cfg)
        assert len(r1.epoch_losses) == 3
        assert len(r2.epoch_losses) == 2
        assert r1.lrs[1] == pytest.approx(lr_schedule(1, 1e-4, 0.9))

    def test_phase_state_freed_on_return(self, dataset):
        # a reference cycle would keep each phase's samples and optimizer
        # moments alive until the collector's next full pass
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=4, seed=0)
        gc.collect()
        gc.disable()
        try:
            train(tiny_model(), dataset, cfg)
            alive = [o for o in gc.get_objects() if isinstance(o, trainer._Phase)]
        finally:
            gc.enable()
        assert alive == []

    def test_alternating_mode_keeps_optimizer_and_shuffle_state(self, dataset, monkeypatch):
        steps = []      # (optimizer id, its step count after the step)
        maps = []       # gt map of each phase-1 sample, in loss-call order
        adam_step = trainer.Adam.step
        saliency_loss = trainer.saliency_loss

        def record_step(self, params, lr):
            adam_step(self, params, lr)
            steps.append((id(self), self.t))

        def record_map(pred, gt, *args, **kwargs):
            maps.append(id(gt))
            return saliency_loss(pred, gt, *args, **kwargs)

        monkeypatch.setattr(trainer.Adam, "step", record_step)
        monkeypatch.setattr(trainer, "saliency_loss", record_map)
        cfg = TrainConfig(phase1_epochs=3, phase2_epochs=3, phase1_lr=1e-4,
                          phase2_lr=1e-4, batch_size=4, seed=0,
                          phase2_mode="alternating")
        train(tiny_model(), dataset, cfg)
        # 8 samples in batches of 4: two steps per phase per round
        per_opt = {}
        for opt, t in steps:
            per_opt.setdefault(opt, []).append(t)
        assert sorted(per_opt.values()) == [list(range(1, 7))] * 2
        rounds = [maps[k:k + 8] for k in range(0, len(maps), 8)]
        assert len(rounds) == 3 and sorted(rounds[0]) == sorted(rounds[1])
        assert rounds[1] != rounds[0]


# -- frozen phase 2: the attended bottleneck is computed once -------------------

class PerBatchFrozenPhase(trainer._Phase):
    """Oracle: the frozen phase-2 loss as it was before the bottleneck
    array, running the frozen trunk under no_grad on every batch. Other
    phases use the trainer's loss. ``calls`` gets the size of each batch
    the oracle builds; a test sets it to a fresh list."""

    calls: list[int] = []

    def _batch_loss(self, idx) -> Tensor:
        if not self.freeze:
            return super()._batch_loss(idx)
        self.calls.append(len(idx))
        model = self.model
        x = Tensor(np.stack([self.samples[k].image for k in idx]))
        with no_grad():
            bott = model.attend(model.encode(x))
        bott = Tensor(bott.data)
        feats = model.scanpath_features(bott)
        points = soft_argmax(feats, model.config.beta)
        total = None
        for i, k in enumerate(idx):
            s = self.samples[k]
            per_gt = None
            for gt_path in s.paths:
                lg = scanpath_loss(points[i], gt_path)
                per_gt = lg if per_gt is None else per_gt + lg
            li = per_gt / np.float32(len(s.paths))
            total = li if total is None else total + li
        return total / np.float32(len(idx))


def count_encode(monkeypatch) -> list[int]:
    """Patch SalypathModel.encode to record the batch size of each call."""
    sizes = []
    encode = SalypathModel.encode

    def counted(self, x):
        sizes.append(x.shape[0])
        return encode(self, x)

    monkeypatch.setattr(SalypathModel, "encode", counted)
    return sizes


def raw_bytes(params: dict) -> dict:
    return {k: v.data.tobytes() for k, v in params.items()}


class TestFrozenBottleneck:
    @pytest.mark.parametrize("bs", [3, 4, 8])
    def test_frozen_phase_runs_trunk_once(self, dataset, monkeypatch, bs):
        sizes = count_encode(monkeypatch)
        cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=bs, seed=0)
        rep = train_only(2, tiny_model(), dataset, cfg)
        assert len(rep.epoch_losses) == 3
        n = rep.n_samples
        # one pass in sample order, in chunks of batch_size
        assert sizes == [min(bs, n - lo) for lo in range(0, n, bs)]

    @pytest.mark.parametrize("mode", [dict(phase2_mode="unfrozen"),
                                      dict(phase2_mode="alternating")])
    def test_trainable_trunk_runs_once_per_batch(self, dataset, monkeypatch, mode):
        sizes = count_encode(monkeypatch)
        cfg = TrainConfig(phase1_epochs=0, phase2_epochs=3, phase2_lr=1e-3,
                          batch_size=3, seed=0, **mode)
        rep = train(tiny_model(), dataset, cfg)[1]
        assert len(sizes) == 3 * math.ceil(rep.n_samples / 3)

    @pytest.mark.parametrize("bs", [3, 8])
    def test_sequential_equals_phase_by_phase(self, dataset, bs):
        # phase 2 must see the trunk that phase 1 left, not the one that
        # existed when train() set the phases up
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=3, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=bs, seed=0)
        whole = tiny_model()
        r1, r2 = train(whole, dataset, cfg)
        split = tiny_model()
        s1 = train(split, dataset, dataclasses.replace(cfg, phase2_epochs=0))[0]
        s2 = train(split, dataset, dataclasses.replace(cfg, phase1_epochs=0))[1]
        assert r1.epoch_losses == s1.epoch_losses
        assert (r2.epoch_losses, r2.lrs, r2.n_samples) == (s2.epoch_losses, s2.lrs,
                                                           s2.n_samples)
        assert_bitwise_equal(snapshot(whole.parameters()), snapshot(split.parameters()))

    @pytest.mark.parametrize("bs", [3, 4, 8])
    def test_matches_per_batch_forward_bitwise(self, dataset, monkeypatch, bs):
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=3, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=bs, seed=2)
        cached = tiny_model()
        reports = train(cached, dataset, cfg)
        calls = []
        monkeypatch.setattr(PerBatchFrozenPhase, "calls", calls)
        monkeypatch.setattr(trainer, "_Phase", PerBatchFrozenPhase)
        oracle = tiny_model()
        expected = train(oracle, dataset, cfg)
        # the oracle built every phase-2 batch of every epoch
        n = expected[1].n_samples
        assert calls == 3 * [min(bs, n - lo) for lo in range(0, n, bs)]
        for got, want in zip(reports, expected):
            assert (got.epoch_losses, got.lrs) == (want.epoch_losses, want.lrs)
        assert_bitwise_equal(snapshot(cached.parameters()), snapshot(oracle.parameters()))

    def test_non_finite_trunk_still_diverges(self, dataset):
        model = tiny_model()
        model.parameters()["enc.b0.c0.weight"].data[0, 0, 0, 0] = np.nan
        trunk_before = raw_bytes(model.parameters(TRUNK))
        cfg = TrainConfig(phase2_epochs=3, phase2_lr=1e-3, batch_size=4, seed=0)
        with pytest.raises(TrainingDiverged, match="phase 2 epoch 0") as exc:
            train_only(2, model, dataset, cfg)
        assert exc.value.report.epoch_losses == []
        assert raw_bytes(model.parameters(TRUNK)) == trunk_before


# -- graph lifetime: a batch's graph is gone before the next batch's forward ------

def watch_batch_graphs(monkeypatch, methods) -> list[int]:
    """Wrap each (class, batch-loss method) so that, as every batch's loss is
    about to be built, it records how many tensors of earlier batches' graphs
    are still alive. Parameters outlive every batch and are not counted."""
    refs, alive = [], []

    def watch(build):
        def watched(self, idx):
            alive.append(sum(r() is not None for r in refs))
            loss = build(self, idx)
            params = {id(p) for p in self.model.parameters().values()}
            refs.extend(weakref.ref(n) for n in graph_nodes(loss) if id(n) not in params)
            return loss
        return watched

    for cls, name in methods:
        monkeypatch.setattr(cls, name, watch(getattr(cls, name)))
    return alive


class TestBatchGraphLifetime:
    @pytest.mark.parametrize("phase, mode", [
        (1, {}),
        (2, {}),
        (2, dict(phase2_mode="unfrozen")),
    ], ids=["phase1", "phase2-frozen", "phase2-unfrozen"])
    def test_previous_batch_graph_is_dead(self, dataset, monkeypatch, phase, mode):
        alive = watch_batch_graphs(monkeypatch, [(trainer._Phase, "_batch_loss")])
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=2, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=3, seed=0, **mode)
        rep = train_only(phase, tiny_model(), dataset, cfg)
        assert len(alive) == 2 * math.ceil(rep.n_samples / 3) >= 4
        assert alive == [0] * len(alive)

    def test_alternating_phases_free_each_others_graphs(self, dataset, monkeypatch):
        alive = watch_batch_graphs(monkeypatch, [(trainer._Phase, "_batch_loss")])
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=2, phase1_lr=1e-3,
                          phase2_lr=1e-3, batch_size=4, seed=0, phase2_mode="alternating")
        train(tiny_model(), dataset, cfg)
        assert len(alive) >= 8 and alive == [0] * len(alive)

    def test_per_batch_frozen_oracle_graph_is_dead(self, dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(PerBatchFrozenPhase, "calls", calls)
        monkeypatch.setattr(trainer, "_Phase", PerBatchFrozenPhase)
        alive = watch_batch_graphs(monkeypatch, [(PerBatchFrozenPhase, "_batch_loss")])
        cfg = TrainConfig(phase2_epochs=2, phase2_lr=1e-3, batch_size=3, seed=0)
        rep = train_only(2, tiny_model(), dataset, cfg)
        assert len(alive) == len(calls) == 2 * math.ceil(rep.n_samples / 3) >= 4
        assert alive == [0] * len(alive)


# -- work counts: what a step issues is a function of the shapes alone -----------

def counting_sgemm(monkeypatch) -> list[tuple[int, int, int]]:
    """Route conv2d's sgemm through a wrapper that records each call's
    (M, K, N), which issues 2*M*K*N flops; returns the record."""
    sgemm = tensor._sgemm()
    calls = []

    def counted(alpha, a, b, beta=0.0, c=None, trans_a=0, trans_b=0, overwrite_c=0):
        m, k = a.shape[::-1] if trans_a else a.shape
        calls.append((m, k, b.shape[0] if trans_b else b.shape[1]))
        return sgemm(alpha, a, b, beta=beta, c=c, trans_a=trans_a, trans_b=trans_b,
                     overwrite_c=overwrite_c)

    monkeypatch.setattr(tensor, "_sgemm", lambda: counted)
    return calls


def flops(calls) -> int:
    return sum(2 * m * k * n for m, k, n in calls)


class TestWorkCounts:
    def test_desk_phase1_step_issues_pinned_work(self, tmp_path, monkeypatch):
        # one desk phase-1 step, batch 16 at 64x64, forward and backward.
        # Upsample-then-conv at the four decoder sites issued 4329 calls and
        # 8_738_854_080 flops; folded, they issue fewer flops in more calls
        # (16 taps per group instead of 9), and the weight pre-sum and its
        # vjp add two calls at each site (4689 and 7_305_630_912 when they
        # ran on numpy's matmul)
        data = generate_synthetic(16, seed=0, size=(64, 64), out_dir=tmp_path)
        model = SalypathModel(ModelConfig.desk(), seed=0)
        phase = trainer._Phase(model, trainer.prepare_samples(model, data), TrainConfig(), 1)
        calls = counting_sgemm(monkeypatch)
        phase._step(np.arange(16), 1e-4)
        assert (len(calls), flops(calls)) == (4697, 7_310_054_592)

    @pytest.mark.parametrize("ch, h", [(64, 4), (48, 8), (32, 16), (16, 32)])
    def test_folded_decoder_site_issues_16_of_36_multiplies(self, monkeypatch, ch, h):
        # the desk decoder's four sites at batch 16, forward and backward
        rng = np.random.default_rng(ch)
        layer = ConvLayer.build(kaiming_uniform(rng), "site", ch, ch, 3)
        x = Tensor(rng.normal(size=(16, ch, h, h)).astype(np.float32), requires_grad=True)
        calls = counting_sgemm(monkeypatch)

        def work(run):
            calls.clear()
            run().sum().backward()
            # the folded weight pre-sum, [16, 9] @ [9, C*O], and its vjp
            folds = [call for call in calls if call[:2] in ((16, 9), (9, 16))]
            return flops(calls) - flops(folds), folds

        folded, folds = work(lambda: layer(x, relu=True, upsample=True))
        unfolded, no_folds = work(lambda: layer(upsample2(x), relu=True))
        assert folds == [(16, 9, ch * ch), (9, 16, ch * ch)] and no_folds == []
        # forward, dW and dx each issue 2*C*O flops per tap and grid position:
        # 16 taps over the (h+1)^2-position input grid, or 9 taps over the
        # (2h+1)^2-position upsampled one
        assert folded == 3 * 2 * ch * ch * 16 * 16 * (h + 1) ** 2
        assert unfolded == 3 * 2 * ch * ch * 9 * 16 * (2 * h + 1) ** 2
        # per output pixel of a grid position (a folded one yields four)
        per_pixel = Fraction(folded, 4 * (h + 1) ** 2) / Fraction(unfolded, (2 * h + 1) ** 2)
        assert per_pixel == Fraction(16, 36)
