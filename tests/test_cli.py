"""Command-line surface: every subcommand end to end, exit codes, report
formats, and determinism.

Commands run in-process through main(argv) so coverage and speed stay
reasonable; one subprocess case checks the installed console script.
"""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import salypath
from salypath import cli
from salypath.cli import SALIENCY_COLS, SCANPATH_COLS, main
from salypath.data import (
    DatasetManifest,
    ManifestRecord,
    generate_synthetic,
    load_manifest,
    read_pgm,
    read_scanpath_csv,
    save_manifest,
    write_pgm,
    write_ppm,
    write_scanpath_csv,
)
from salypath.model import ModelConfig, SalypathModel
from salypath.scanpath_metrics import multimatch
from salypath.types import norm_to_pixel_xy, pixel_to_norm

from conftest import mis_sized_dataset

# every ModelConfig field, so a checkpoint header built from it is complete
TINY_MODEL = dict(
    input_size=[16, 16],
    in_channels=3,
    encoder_blocks=[[1, 4], [1, 8]],
    head_channels=[8] * 10,
    beta=1.0,
    attention_enabled=True,
    attention_reduction=2,
    spatial_kernel=3,
)


def _t(name, shape, offset):
    return {"name": name, "shape": shape, "offset": offset}


OLD_FORMAT = "header must hold one 'config' object and nothing else"
# (tensor table of the older format or None, payload bytes, config overrides,
# error text) of checkpoints that each once loaded garbage or crashed
# `predict` with a traceback; a header that carries a table is now rejected
# before the table is read
MALFORMED_CHECKPOINTS = [
    ([_t("a", [-1], 0), _t("b", [4], 0), _t("c", [1], 12)], 16, {}, OLD_FORMAT),
    ([_t("a", ["2"], 0)], 8, {}, OLD_FORMAT),
    ([_t("a", [2], 0.0)], 8, {}, OLD_FORMAT),
    ([_t("a", [1], 0), _t("a", [1], 4)], 8, {}, OLD_FORMAT),
    ([_t("a", [2], 0), _t("b", [1], 4)], 12, {}, OLD_FORMAT),
    (None, 4, {"input_size": [64]}, "ModelConfig.input_size"),
    (None, 4, {"in_channels": "x"}, "ModelConfig.in_channels"),
    (None, 4, {"encoder_blocks": [2]}, "ModelConfig.encoder_blocks"),
    (None, 4, {"beta": None}, "ModelConfig.beta"),
    (None, 4, {"attention_enabled": "false"}, "ModelConfig.attention_enabled"),
    (None, 4, {"in_channels": 3.0}, "ModelConfig.in_channels"),
]

# (config document, extra argv, text the one stderr line must hold) of
# `train` runs that each once crashed with a traceback, or trained anyway:
# the "false" strings were read as true, and a NaN lr diverged after an epoch.
# The two schedule booleans are gone (phase2_mode replaced them), so setting
# one is an unknown field whatever its value.
BAD_TRAIN_CONFIGS = [
    ({"model": {"beta": None}}, [], "ModelConfig.beta"),
    ({"model": {"input_size": [64]}}, [], "ModelConfig.input_size"),
    ({"model": {"attention_enabled": "false"}}, [], "ModelConfig.attention_enabled"),
    ({"train": {"nonsense": 1}}, [], "TrainConfig.nonsense"),
    ({"train": {"batch_size": "16"}}, [], "TrainConfig.batch_size"),
    ({"train": {"phase1_epochs": 1.5}}, [], "TrainConfig.phase1_epochs"),
    ({"train": {"loss_weights": {"kl_w": "x"}}}, [], "TrainConfig.loss_weights.kl_w"),
    ({"train": {"freeze_encoder_phase2": "false"}}, [],
     "TrainConfig.freeze_encoder_phase2: unknown field"),
    ({"train": {"joint_alternating": "false"}}, [], "TrainConfig.joint_alternating: unknown field"),
    ([1], [], "config is not a JSON object"),
    ({"model": [1]}, [], "config section 'model' is not an object"),
    ({}, ["--seed", "-1"], "seed must be >= 0"),
    ({"train": {"phase1_lr": float("nan")}}, [], "learning rates must be finite"),
    (b'{"model": {"beta": 1.0}', [], "bad.json: invalid JSON"),
    ('{"model": {"name": "caf\u00e9"}}'.encode("latin-1"), [], "bad.json: invalid JSON"),
    ({"train": {"divisor": "points"}}, [], "TrainConfig.divisor"),
    ({"train": {"phase2_mode": "joint"}}, [],
     "phase2_mode must be frozen, unfrozen or alternating, got 'joint'"),
    (b"[" * 100000 + b"]" * 100000, [], "bad.json: invalid JSON"),
]

# (key path into the manifest document, value put there, text the one stderr
# line must hold) of manifests that each once crashed `stats` with a
# traceback, were read with a name, width or height the document did not
# hold, or loaded with a directory where a file belongs
MALFORMED_MANIFESTS = [
    (("name",), None, "'name' must be a string"),
    (("width",), "abc", "'width' must be an integer"),
    (("width",), None, "'width' must be an integer"),
    (("width",), 4.7, "'width' must be an integer"),
    (("height",), True, "'height' must be an integer"),
    ((), 5, "manifest is not a JSON object"),
    (("records",), 5, "'records' must be a list"),
    (("records", 0, "stimulus"), 5, "record 0: malformed entry"),
    (("records", 1, "scanpaths"), "p1.csv", "record 1: malformed entry"),
    (("records", 2, "map"), ".", "record 2: referenced path '.' does not exist as a file"),
]


TINY_TRAIN = dict(
    phase1_epochs=2, phase2_epochs=2, phase1_lr=1e-3, phase2_lr=1e-3,
    batch_size=4,
)


def _python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports this tree, with
    ``env`` added to its environment. The timeout turns a hang into a
    failure."""
    src = str(Path(salypath.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=60)


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m salypath *argv`` in a fresh process, importing this tree."""
    return _python("-m", "salypath", *argv)


def tiny_checkpoint(path: Path, **config) -> bytes:
    """Save a tiny model at ``path``, then swap its header's config fields
    for ``config``; returns the genuine payload."""
    SalypathModel(ModelConfig(**TINY_MODEL), seed=0).save(path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["config"].update(config)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return payload


def loaded_modules(code: str) -> set[str]:
    """The names in ``sys.modules`` once ``code`` has run in a fresh process
    that imports this tree."""
    proc = _python("-c", code + "\nimport sys; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def read_report(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    rc = main(["gen-synth", "--n", "6", "--seed", "0", "--size", "16x16",
               "--out", str(root)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("cli-train")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL, "train": TINY_TRAIN}))
    ckpt = root / "model.ckpt"
    report = root / "report.json"
    rc = main(["train", "--data", str(dataset / "manifest.json"),
               "--out", str(ckpt), "--config", str(cfg),
               "--report", str(report), "--seed", "0"])
    assert rc == 0
    return {"ckpt": ckpt, "report": report, "config": cfg}


@pytest.fixture(scope="module")
def perfect(tmp_path_factory):
    """Predictions identical to ground truth, fixations on the brightest
    pixels: every metric identity should come out exact."""
    root = tmp_path_factory.mktemp("cli-perfect")
    (root / "pred").mkdir()
    rng = np.random.default_rng(7)
    records = []
    for i in range(3):
        vals = rng.permutation(256)[:64].reshape(8, 8) / 255.0
        write_pgm(root / f"s{i}.pgm", vals)
        write_ppm(root / f"s{i}.ppm", np.stack([vals] * 3))
        flat = np.argsort(vals.ravel())[::-1][:3]
        rr, cc = np.unravel_index(flat, (8, 8))
        px = np.stack([cc, rr], axis=1).astype(np.float64)
        write_scanpath_csv(root / f"p{i}.csv", px)
        shutil.copy(root / f"s{i}.pgm", root / "pred" / f"s{i}.pgm")
        shutil.copy(root / f"p{i}.csv", root / "pred" / f"s{i}.csv")
        records.append(ManifestRecord(stimulus=f"s{i}.ppm", map=f"s{i}.pgm",
                                      scanpaths=[f"p{i}.csv"]))
    man = DatasetManifest(name="perfect", width=8, height=8,
                          records=records, root=root)
    save_manifest(man, root / "manifest.json")
    return root


# -- gen-synth / stats ------------------------------------------------------

class TestGenSynth:
    def test_writes_loadable_dataset(self, dataset, capsys):
        man = load_manifest(dataset / "manifest.json")
        assert len(man) == 6
        assert (man.width, man.height) == (16, 16)

    def test_deterministic_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["gen-synth", "--n", "3", "--seed", "4",
                       "--size", "16x16", "--out", str(tmp_path / sub)])
            assert rc == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_bad_size_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen-synth", "--n", "2", "--size", "sixteen",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--size" in err

    def test_length_weights_flag(self, tmp_path, capsys):
        rc = main(["gen-synth", "--n", "20", "--seed", "1", "--size", "16x16",
                   "--out", str(tmp_path),
                   "--length-weights", "8:0.7,6:0.2,10:0.1"])
        assert rc == 0
        capsys.readouterr()     # drop the gen-synth status line
        rc = main(["stats", "--manifest", str(tmp_path / "manifest.json")])
        assert rc == 0
        st = json.loads(capsys.readouterr().out)
        assert st["mode"] == 8
        assert set(st["histogram"]) <= {"6", "8", "10"}

    @pytest.mark.parametrize("weights", ["8", "x:1", "8:0", "8:-1,6:2", "8:nan"])
    def test_bad_length_weights_is_usage_error(self, tmp_path, capsys, weights):
        rc = main(["gen-synth", "--n", "2", "--size", "16x16",
                   "--out", str(tmp_path / "ds"), "--length-weights", weights])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "length" in err and "weights" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("flag, value, error", [
        ("--min-center-dist", "0.5", "min_center_dist"),
        ("--min-center-dist", "inf", "min_center_dist"),
        ("--min-center-dist", "nan", "min_center_dist"),
        ("--min-center-dist", "-0.1", "min_center_dist"),
        ("--min-center-dist", "0.4949", "min_center_dist"),
        ("--seed", "-1", "seed must be >= 0"),
    ])
    def test_bad_flag_exits_2_before_writing(self, tmp_path, flag, value, error):
        # no blob center can lie 0.5 or more from the image center, and
        # almost none 0.4949: the generator once drew forever
        proc = run_module("gen-synth", "--n", "1", "--size", "16x16",
                          "--out", str(tmp_path / "ds"), f"{flag}={value}")
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("salypath gen-synth: error:") and error in line
        assert not (tmp_path / "ds").exists()


class TestStats:
    def test_reports_default_length(self, dataset, capsys):
        rc = main(["stats", "--manifest", str(dataset / "manifest.json")])
        assert rc == 0
        st = json.loads(capsys.readouterr().out)
        assert st["mean"] == 8.0
        assert st["median"] == 8
        assert st["mode"] == 8
        assert st["histogram"] == {"8": 12}

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        rc = main(["stats", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("victim", ["manifest.json", "p1.csv"])
    def test_non_utf8_input_exits_2_naming_it(self, perfect, tmp_path, capsys, victim):
        root = tmp_path / "ds"
        shutil.copytree(perfect, root)
        raw = (root / victim).read_bytes()
        (root / victim).write_bytes(raw.replace(b"\n", "\u00e9\n".encode("latin-1"), 1))
        rc = main(["stats", "--manifest", str(root / "manifest.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{victim}: " in err

    @pytest.mark.parametrize("where, value, error", MALFORMED_MANIFESTS, ids=[
        "name-null", "width-string", "width-null", "width-float", "height-bool",
        "not-object", "records-int", "stimulus-int", "scanpaths-string", "map-directory"])
    def test_malformed_manifest_exits_2_with_one_line(self, perfect, tmp_path,
                                                      where, value, error):
        root = tmp_path / "ds"
        shutil.copytree(perfect, root)
        doc = json.loads((root / "manifest.json").read_text())
        if where:
            *parents, key = where
            node = doc
            for k in parents:
                node = node[k]
            node[key] = value
        else:
            doc = value
        (root / "manifest.json").write_text(json.dumps(doc))
        proc = run_module("stats", "--manifest", str(root / "manifest.json"))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("salypath stats: error: ")
        assert f"manifest.json: {error}" in line

    def test_nan_fixation_exits_2_naming_record_and_csv(self, perfect, tmp_path):
        root = tmp_path / "ds"
        shutil.copytree(perfect, root)
        px = read_scanpath_csv(root / "p1.csv")
        px[1, 0] = np.nan
        write_scanpath_csv(root / "p1.csv", px)
        proc = run_module("stats", "--manifest", str(root / "manifest.json"))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert "record 1: scanpath 'p1.csv' has fixations that are NaN" in line


# -- train --------------------------------------------------------------------

class TestTrain:
    def test_writes_checkpoint_and_report(self, trained, dataset, capsys):
        model = SalypathModel.load(trained["ckpt"])
        assert model.config.input_size == (16, 16)
        rep = json.loads(trained["report"].read_text())
        assert set(rep) == {"phase1", "phase2"}
        assert len(rep["phase1"]["epoch_losses"]) == 2
        assert len(rep["phase2"]["epoch_losses"]) == 2
        assert rep["phase1"]["n_samples"] == 6

    def test_same_seed_is_byte_identical(self, dataset, trained, tmp_path):
        out = tmp_path / "again.ckpt"
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--out", str(out), "--config", str(trained["config"]),
                   "--seed", "0"])
        assert rc == 0
        assert out.read_bytes() == trained["ckpt"].read_bytes()

    @pytest.mark.parametrize("phase", [1, 2])
    def test_phase_with_no_epochs_exits_0(self, dataset, tmp_path, capsys, phase):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL, "train": {
            **TINY_TRAIN, f"phase{phase}_epochs": 0}}))
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        assert f"L{phase} -," in capsys.readouterr().out
        assert SalypathModel.load(out).config.input_size == (16, 16)

    def test_unknown_config_section_rejected(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {}, "optimizer": {}}))
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)])
        assert rc == 2
        assert "unknown config section 'optimizer'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,argv,error", BAD_TRAIN_CONFIGS, ids=[
        "beta-null", "input_size-short", "attention_enabled-string", "unknown-field",
        "batch_size-string", "phase1_epochs-float", "kl_w-string",
        "freeze_encoder_phase2-string", "joint_alternating-string", "file-not-object",
        "section-not-object", "negative-seed", "phase1_lr-nan", "truncated-json",
        "latin-1-text", "divisor-removed-field", "phase2_mode-unknown", "deep-nesting"])
    def test_bad_config_exits_2_with_one_line(self, dataset, tmp_path, doc, argv, error):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "m.ckpt"
        proc = run_module("train", "--data", str(dataset / "manifest.json"),
                          "--out", str(out), "--config", str(cfg), *argv)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("salypath train: error:"), lines
        assert error in lines[0]
        assert not out.exists()

    def test_model_too_large_to_draw_exits_2_with_one_line(self, dataset, tmp_path, capsys):
        # a 2**40-channel block: kaiming_uniform asks for 288 TiB of weights
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"model": {"input_size": [16, 16],
                                             "encoder_blocks": [[1, 4], [1, 2**40]]}}))
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--out", str(out), "--config", str(cfg)])
        [line] = capsys.readouterr().err.splitlines()
        assert rc == 2 and line.startswith("salypath train: error: ") and "TiB" in line
        assert not out.exists()

    def test_missing_config_names_the_path(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "nope.json"
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"salypath train: error: {cfg}: ") and "No such file" in line

    def test_resampling_warning_is_one_line(self, tmp_path):
        # Python's own form was two lines: "<file>:<line>: RuntimeWarning: ..."
        # and the source line that warned
        assert main(["gen-synth", "--n", "4", "--size", "32x32", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL,
                                   "train": {**TINY_TRAIN, "phase1_epochs": 1,
                                             "phase2_epochs": 1}}))
        proc = run_module("train", "--data", str(tmp_path / "manifest.json"),
                          "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "salypath train: warning: dataset is 32x32, resampling to model input 16x16"]

    def test_images_of_other_sizes_train_without_a_word(self, tmp_path, capsys):
        mis_sized_dataset(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL, "train": TINY_TRAIN}))
        rc = main(["train", "--data", str(tmp_path / "manifest.json"),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_missing_output_dir_exits_2_before_training(self, dataset, trained, tmp_path,
                                                       capsys, monkeypatch, flag):
        calls = []
        real = cli.train
        monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append(1) or real(*a, **k))
        outs = {"--out": tmp_path / "m.ckpt", "--report": tmp_path / "r.json"}
        outs[flag] = tmp_path / "nodir" / outs[flag].name
        rc = main(["train", "--data", str(dataset / "manifest.json"),
                   "--config", str(trained["config"]),
                   *(a for f, v in outs.items() for a in (f, str(v)))])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath train: error: cannot write {outs[flag]}: "
                        f"{outs[flag].parent} is not a directory")
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_partial_loss_weights_merge_onto_the_preset(self, dataset, tmp_path):
        ckpts = []
        for weights in ({"kl_w": 0.5}, {"kl_w": 0.5, "mse_w": 0.3, "nss_w": 0.1}):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"model": TINY_MODEL,
                                       "train": {**TINY_TRAIN, "loss_weights": weights}}))
            ckpts.append(tmp_path / f"m{len(ckpts)}.ckpt")
            rc = main(["train", "--data", str(dataset / "manifest.json"),
                       "--out", str(ckpts[-1]), "--config", str(cfg)])
            assert rc == 0
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()


# -- predict --------------------------------------------------------------------

class TestPredict:
    def test_outputs_readable_by_loaders(self, trained, dataset, tmp_path, capsys):
        man = load_manifest(dataset / "manifest.json")
        rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                   "--image", str(man.stimulus_path(0)),
                   "--out-map", str(tmp_path / "m.pgm"),
                   "--out-scanpath", str(tmp_path / "p.csv")])
        assert rc == 0
        smap = read_pgm(tmp_path / "m.pgm")
        assert smap.shape == (16, 16)
        px = read_scanpath_csv(tmp_path / "p.csv")
        assert px.shape == (8, 2)
        assert px.min() >= 0 and px.max() <= 15

    def test_emits_normalized_and_pixel_columns(self, trained, dataset, tmp_path):
        man = load_manifest(dataset / "manifest.json")
        out = tmp_path / "p.csv"
        main(["predict", "--checkpoint", str(trained["ckpt"]),
              "--image", str(man.stimulus_path(0)),
              "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(out)])
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "x", "y", "x_norm", "y_norm"]
        assert len(rows) == 9
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(float(row[3]) * 15, abs=1e-5)
            assert float(row[2]) == pytest.approx(float(row[4]) * 15, abs=1e-5)

    def test_same_inputs_twice_byte_identical(self, trained, dataset, tmp_path):
        man = load_manifest(dataset / "manifest.json")
        outs = []
        for tag in ("a", "b"):
            mp, sp = tmp_path / f"{tag}.pgm", tmp_path / f"{tag}.csv"
            rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                       "--image", str(man.stimulus_path(1)),
                       "--out-map", str(mp), "--out-scanpath", str(sp)])
            assert rc == 0
            outs.append((mp.read_bytes(), sp.read_bytes()))
        assert outs[0] == outs[1]

    def test_zero_checkpoint_gives_uniform_map_and_centroid(self, tmp_path):
        model = SalypathModel(ModelConfig(
            input_size=(16, 16), encoder_blocks=((1, 4), (1, 8)),
            head_channels=(8,) * 10, attention_reduction=2, spatial_kernel=3,
        ), seed=0)
        for p in model.parameters().values():
            p.data[...] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        model.save(ckpt)
        write_ppm(tmp_path / "img.ppm",
                  np.random.default_rng(0).random((3, 16, 16)).astype(np.float32))
        rc = main(["predict", "--checkpoint", str(ckpt),
                   "--image", str(tmp_path / "img.ppm"),
                   "--out-map", str(tmp_path / "m.pgm"),
                   "--out-scanpath", str(tmp_path / "p.csv")])
        assert rc == 0
        smap = read_pgm(tmp_path / "m.pgm")
        # sigmoid(0) = 0.5 everywhere, stored as the single byte 128
        assert np.unique(smap).tolist() == [np.float32(128.0 / 255.0)]
        with open(tmp_path / "p.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        # uniform head activations put all 8 points on the 4x4 grid centroid
        assert len(rows) == 8
        for row in rows:
            assert float(row[3]) == 0.375 and float(row[4]) == 0.375
            assert float(row[1]) == pytest.approx(0.375 * 15)

    @pytest.mark.parametrize("flag", ["--out-map", "--out-scanpath"])
    def test_missing_output_dir_exits_2_before_forward(self, trained, dataset, tmp_path,
                                                       capsys, monkeypatch, flag):
        calls = []
        forward = SalypathModel.forward
        monkeypatch.setattr(SalypathModel, "forward",
                            lambda self, img: calls.append(1) or forward(self, img))
        outs = {"--out-map": tmp_path / "m.pgm", "--out-scanpath": tmp_path / "p.csv"}
        outs[flag] = tmp_path / "nodir" / outs[flag].name
        rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                   "--image", str(load_manifest(dataset / "manifest.json").stimulus_path(0)),
                   *(a for f, v in outs.items() for a in (f, str(v)))])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath predict: error: cannot write {outs[flag]}: "
                        f"{outs[flag].parent} is not a directory")
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_output_path_that_is_a_directory_exits_2_writing_nothing(
            self, trained, dataset, tmp_path, capsys):
        (tmp_path / "p.csv").mkdir()
        rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                   "--image", str(load_manifest(dataset / "manifest.json").stimulus_path(0)),
                   "--out-map", str(tmp_path / "m.pgm"),
                   "--out-scanpath", str(tmp_path / "p.csv")])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath predict: error: cannot write {tmp_path / 'p.csv'}: "
                        "it is a directory")
        assert not (tmp_path / "m.pgm").exists()

    def test_missing_checkpoint_exits_2_naming_path(self, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--image", str(tmp_path / "img.ppm"),
                   "--out-map", str(tmp_path / "m.pgm"),
                   "--out-scanpath", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "absent.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("tensors,n_bytes,config,error", MALFORMED_CHECKPOINTS, ids=[
        "negative-dim", "string-dim", "float-offset", "duplicate-name", "overlap",
        "config-input_size", "config-in_channels", "config-encoder_blocks", "config-beta",
        "config-attention_enabled-string", "config-in_channels-float"])
    def test_malformed_checkpoint_exits_2_with_one_line(self, tmp_path, tensors, n_bytes,
                                                        config, error):
        ckpt = tmp_path / "bad.ckpt"
        header = {"config": {**TINY_MODEL, **config}}
        if tensors is not None:
            header = {"tensors": tensors, **header}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + bytes(n_bytes))
        write_ppm(tmp_path / "img.ppm", np.zeros((3, 16, 16), dtype=np.float32))
        proc = run_module(
            "predict", "--checkpoint", str(ckpt), "--image", str(tmp_path / "img.ppm"),
            "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(tmp_path / "p.csv"))
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("salypath predict: error:"), lines
        assert error in lines[0]

    @pytest.mark.parametrize("blocks", [[[1, 4], [1, 2**40]], [[1, 4], [1, 2**62]],
                                        [[100000, 4], [1, 8]]],
                             ids=["channels-2**40", "channels-2**62", "convs-100000"])
    def test_config_larger_than_its_payload_exits_2_at_once(self, tmp_path, capsys, blocks):
        # each once ran out of memory building stand-ins for the parameters
        # its payload lacks, or built them all and named every one
        ckpt, image = tmp_path / "m.ckpt", tmp_path / "img.ppm"
        payload = tiny_checkpoint(ckpt, encoder_blocks=blocks)
        write_ppm(image, np.zeros((3, 16, 16), dtype=np.float32))
        t0 = time.perf_counter()
        rc = main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                   "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(tmp_path / "p.csv")])
        elapsed = time.perf_counter() - t0
        [line] = capsys.readouterr().err.splitlines()
        assert rc == 2 and line == (f"salypath predict: error: {ckpt}: payload has "
                                    f"{len(payload) // 4} float32 values, too few for its config")
        assert len(line) < 300 and elapsed < 1.0

    def test_input_size_too_large_to_resample_to_exits_2(self, tmp_path, capsys):
        # the payload fits the config, but resampling the stimulus to
        # 4194304x8388608 asks for 256 TiB, past any x86-64 address space
        ckpt, image = tmp_path / "m.ckpt", tmp_path / "img.ppm"
        tiny_checkpoint(ckpt, input_size=[2**22, 2**23])
        write_ppm(image, np.zeros((3, 16, 16), dtype=np.float32))
        rc = main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                   "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(tmp_path / "p.csv")])
        warning, error = capsys.readouterr().err.splitlines()
        assert rc == 2 and warning == ("salypath predict: warning: image is 16x16, "
                                       "resampling to model input 8388608x4194304")
        assert error.startswith("salypath predict: error: ") and "TiB" in error
        assert not (tmp_path / "m.pgm").exists()

    def test_zero_width_image_exits_2_with_one_line(self, trained, tmp_path):
        (tmp_path / "img.ppm").write_bytes(b"P6\n0 16\n255\n")
        proc = run_module(
            "predict", "--checkpoint", str(trained["ckpt"]), "--image", str(tmp_path / "img.ppm"),
            "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(tmp_path / "p.csv"))
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("salypath predict: error:") and "empty image 0x16" in line
        assert not (tmp_path / "m.pgm").exists()

    def test_nan_decoder_exits_2_with_one_line_writing_nothing(self, tmp_path, capsys):
        model = SalypathModel(ModelConfig(**TINY_MODEL), seed=0)
        model.parameters()["dec.out.bias"].data[...] = np.nan
        model.save(tmp_path / "nan.ckpt")
        write_ppm(tmp_path / "img.ppm", np.random.default_rng(0).random((3, 16, 16)))
        outs = [tmp_path / "m.pgm", tmp_path / "p.csv"]
        rc = main(["predict", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--image", str(tmp_path / "img.ppm"),
                   "--out-map", str(outs[0]), "--out-scanpath", str(outs[1])])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("salypath predict: error: ")
        assert line.endswith(": values must be finite")
        assert not any(p.exists() for p in outs)

    def test_size_mismatch_resamples_with_warning(self, trained, tmp_path, capsys):
        write_ppm(tmp_path / "big.ppm", np.zeros((3, 24, 24), dtype=np.float32))
        rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                   "--image", str(tmp_path / "big.ppm"),
                   "--out-map", str(tmp_path / "m.pgm"),
                   "--out-scanpath", str(tmp_path / "p.csv")])
        assert rc == 0
        assert "resampling" in capsys.readouterr().err
        assert read_pgm(tmp_path / "m.pgm").shape == (16, 16)

    def test_scanpath_pixels_are_in_the_stimulus_frame(self, trained, tmp_path):
        # pixels in the stimulus's own frame, not the model's 16x16, beside
        # the x_norm and y_norm columns that eval-scanpath scores
        rng = np.random.default_rng(0)
        write_ppm(tmp_path / "wide.ppm", rng.random((3, 40, 48)).astype(np.float32))
        out = tmp_path / "p.csv"
        rc = main(["predict", "--checkpoint", str(trained["ckpt"]),
                   "--image", str(tmp_path / "wide.ppm"),
                   "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = [[float(v) for v in row[1:]] for row in list(csv.reader(f))[1:]]
        assert len(rows) == 8
        for x, y, x_norm, y_norm in rows:
            assert x == x_norm * 47 and y == y_norm * 39
        assert read_pgm(tmp_path / "m.pgm").shape == (16, 16)


# every value each number of the checkpoint header is swapped for
NUMBER_SWAPS = [b"0", b"-1", b"NaN", b"Infinity", b"1e309", b"", b"true", b"1.5", b"[]",
                b"{}", b"null", b"9" * 5000]
# a JSON string (skipped) or a JSON number (group 1)
HEADER_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def checkpoint_cases(blob: bytes) -> dict[str, bytes]:
    """Malformed copies of the checkpoint file ``blob`` by case id,
    enumerated rather than drawn at random (Miller, Fredriksen & So 1990):
    the header cut at each structural byte, with and without the payload;
    each number of the header swapped for each of NUMBER_SWAPS; a header
    nested 100000 deep; one byte flipped at every 13th offset; a payload
    one byte short and one byte long."""
    header, payload = blob.split(b"\n", 1)
    cases = {}
    for i, byte in enumerate(header):
        if byte in b'{}[]:,"':
            cases[f"cut-{i}"] = header[:i] + b"\n"
            cases[f"cut-{i}+payload"] = header[:i] + b"\n" + payload
    for m in HEADER_TOKEN.finditer(header):
        if m.group(1) is not None:
            for swap in NUMBER_SWAPS:
                cases[f"number-{m.start()}={swap[:8].decode()}"] = (
                    header[:m.start()] + swap + header[m.end():] + b"\n" + payload)
    cases["deep-nesting"] = b"[" * 100000 + b"\n" + payload
    for off in range(0, len(blob), 13):
        cases[f"flip-{off}"] = blob[:off] + bytes([blob[off] ^ 0x20]) + blob[off + 1:]
    cases["payload-short"] = blob[:-1]
    cases["payload-long"] = blob + b"\0"
    return cases


class TestCheckpointFiles:
    """``predict`` on malformed checkpoints of a tiny model, in process."""

    @pytest.fixture
    def tiny(self, tmp_path):
        """(checkpoint path, its bytes, predict argv) of a seeded tiny model."""
        ckpt, image = tmp_path / "m.ckpt", tmp_path / "img.ppm"
        SalypathModel(ModelConfig(**TINY_MODEL), seed=0).save(ckpt)
        write_ppm(image, np.random.default_rng(0).random((3, 16, 16)))
        argv = ["predict", "--checkpoint", str(ckpt), "--image", str(image),
                "--out-map", str(tmp_path / "m.pgm"), "--out-scanpath", str(tmp_path / "p.csv")]
        return ckpt, ckpt.read_bytes(), argv

    def test_every_enumerated_case_exits_0_or_2_with_one_line(self, tiny, capsys):
        ckpt, blob, argv = tiny
        cases = checkpoint_cases(blob)
        assert len(cases) > 2000
        escapes, exits = [], {0: 0, 2: 0}
        for case, raw in cases.items():
            ckpt.write_bytes(raw)
            try:
                rc = main(argv)
            except Exception as e:  # an escape is what the sweep looks for
                rc = f"{type(e).__name__}: {str(e)[:80]}"
            err = capsys.readouterr().err.splitlines()
            if (rc == 0 and not err) or (rc == 2 and len(err) == 1
                                         and err[0].startswith("salypath predict: error:")):
                exits[rc] += 1
            else:
                escapes.append(f"{case}: exit {rc}, stderr {err[:2]}")
        assert not escapes, f"{len(escapes)} of {len(cases)} cases: {escapes[:5]}"
        assert exits[0] and exits[2]

    @pytest.mark.parametrize("header", [b"[" * 100000,
                                        b'{"config": {}, "x": ' + b"9" * 5000 + b"}"],
                             ids=["deep-nesting", "long-number"])
    def test_unparsable_header_exits_2_with_one_line(self, tiny, capsys, header):
        ckpt, blob, argv = tiny
        ckpt.write_bytes(header + b"\n" + blob.split(b"\n", 1)[1])
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"salypath predict: error: {ckpt}: invalid JSON: ")

    def test_payload_of_another_size_exits_2_with_one_line(self, tiny, capsys):
        ckpt, blob, argv = tiny
        n = (len(blob) - blob.index(b"\n") - 1) // 4
        for raw, error in [(blob + bytes(4), f"has {n + 1} float32 values, but its config "
                                             f"takes {n}"),
                           (blob[:-4], f"has {n - 1} float32 values, too few for its config")]:
            ckpt.write_bytes(raw)
            assert main(argv) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line == f"salypath predict: error: {ckpt}: payload {error}"


def pnm_cases(raw: bytes) -> dict[str, bytes]:
    """Malformed and re-sized copies of the binary PNM file ``raw`` by case
    id, enumerated: cut after each header byte (and to nothing) and once
    inside the payload; its magic swapped for P5, P6 and P3; its maxval set
    to 0 and 65535; and rewritten valid at 8x8, 16x8 and 1x1 (width x
    height)."""
    magic, dims, _, payload = raw.split(b"\n", 3)
    n_head = len(raw) - len(payload)
    channels = 3 if magic == b"P6" else 1
    cases = {f"cut-{i}": raw[:i] for i in range(n_head + 1)}
    cases["cut-payload"] = raw[:n_head + len(payload) // 2]
    for swap in (b"P5", b"P6", b"P3"):
        cases[f"magic-{swap.decode()}"] = swap + raw[2:]
    for maxval in (b"0", b"65535"):
        cases[f"maxval-{maxval.decode()}"] = b"\n".join([magic, dims, maxval, payload])
    rng = np.random.default_rng(0)
    for w, h in ((8, 8), (16, 8), (1, 1)):
        pixels = rng.integers(0, 256, size=w * h * channels, dtype=np.uint8)
        cases[f"size-{w}x{h}"] = b"%s\n%d %d\n255\n" % (magic, w, h) + pixels.tobytes()
    return cases


class TestTrainingImages:
    """``train`` on a 2-record 16x16 manifest whose record 0 stimulus or map
    is each case of ``pnm_cases``, in process."""

    @pytest.mark.parametrize("kind", ["stimulus", "map"])
    def test_every_enumerated_case_exits_0_or_2_naming_the_file(self, tmp_path, capsys,
                                                               kind):
        man = generate_synthetic(2, seed=0, size=(16, 16), out_dir=tmp_path)
        victim = man.stimulus_path(0) if kind == "stimulus" else man.map_path(0)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL, "train": {
            **TINY_TRAIN, "phase1_epochs": 1, "phase2_epochs": 1}}))
        argv = ["train", "--data", str(tmp_path / "manifest.json"),
                "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)]
        cases = pnm_cases(victim.read_bytes())
        assert len(cases) == 23
        escapes, exits = [], {0: 0, 2: 0}
        for case, raw in cases.items():
            victim.write_bytes(raw)
            try:
                rc = main(argv)
            except Exception as e:  # an escape is what the sweep looks for
                rc = f"{type(e).__name__}: {str(e)[:80]}"
            err = capsys.readouterr().err.splitlines()
            if (rc == 0 and not err) or (rc == 2 and len(err) == 1 and err[0].startswith(
                    f"salypath train: error: {victim}: ")):
                exits[rc] += 1
            else:
                escapes.append(f"{case}: exit {rc}, stderr {err[:2]}")
        assert not escapes, f"{len(escapes)} of {len(cases)} cases: {escapes}"
        assert exits[0] and exits[2]


# -- evaluation -------------------------------------------------------------

class TestEvalSaliency:
    def test_perfect_predictions_hit_metric_identities(self, perfect, tmp_path):
        out = tmp_path / "sal.csv"
        rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"), "--out", str(out)])
        assert rc == 0
        cols, rows = read_report(out)
        assert cols == SALIENCY_COLS
        assert [r[0] for r in rows] == ["s0", "s1", "s2", "MEAN"]
        for row in rows:
            assert float(row[1]) == 1.0                      # auc_judd
            assert float(row[4]) == pytest.approx(1.0, abs=1e-12)  # cc
            assert float(row[5]) == pytest.approx(1.0, abs=1e-12)  # sim
            assert float(row[6]) == 0.0                      # kld
            assert float(row[3]) > 0.0                       # nss

    def test_mean_row_equals_hand_average(self, dataset, trained, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        man = load_manifest(dataset / "manifest.json")
        for i in range(len(man)):
            main(["predict", "--checkpoint", str(trained["ckpt"]),
                  "--image", str(man.stimulus_path(i)),
                  "--out-map", str(pred / f"{man.image_id(i)}.pgm"),
                  "--out-scanpath", str(pred / f"{man.image_id(i)}.csv")])
        out = tmp_path / "sal.csv"
        rc = main(["eval-saliency", "--manifest", str(dataset / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 0
        _, rows = read_report(out)
        body = np.array([[float(v) for v in r[1:]] for r in rows[:-1]])
        mean_row = np.array([float(v) for v in rows[-1][1:]])
        assert rows[-1][0] == "MEAN"
        # full-precision repr in the report makes this an exact identity
        assert np.array_equal(body.mean(axis=0), mean_row)

    def test_empty_manifest_header_only_exit_0(self, tmp_path):
        save_manifest(DatasetManifest(name="none", width=8, height=8,
                                      records=[], root=tmp_path),
                      tmp_path / "manifest.json")
        out = tmp_path / "sal.csv"
        rc = main(["eval-saliency", "--manifest", str(tmp_path / "manifest.json"),
                   "--pred-dir", str(tmp_path), "--out", str(out)])
        assert rc == 0
        cols, rows = read_report(out)
        assert cols == SALIENCY_COLS
        assert rows == []

    def test_missing_prediction_listed_and_exit_1(self, perfect, tmp_path, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        (pred / "s1.pgm").unlink()
        out = tmp_path / "sal.csv"
        rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        assert "s1.pgm" in capsys.readouterr().err
        _, rows = read_report(out)
        assert [r[0] for r in rows] == ["s0", "s2", "MEAN"]

    @pytest.mark.parametrize("damage, reason", [
        (lambda p: p.write_bytes(p.read_bytes()[:-20]), "payload has"),
        (lambda p: write_pgm(p, np.full((8, 8), 0.5)), "zero variance"),
        (lambda p: (p.unlink(), p.mkdir()), "Is a directory"),
        (lambda p: p.write_bytes(b"P5\n0 16\n255\n"), "empty image 0x16"),
    ], ids=["truncated", "constant", "directory", "zero-width"])
    def test_unscorable_prediction_fails_its_record_exit_1(
            self, perfect, tmp_path, capsys, damage, reason):
        intact = tmp_path / "intact.csv"
        rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"), "--out", str(intact)])
        assert rc == 0
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        damage(pred / "s1.pgm")
        out = tmp_path / "sal.csv"
        capsys.readouterr()
        rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("failed record s1: ") and reason in err
        _, rows = read_report(out)
        _, want = read_report(intact)
        assert [r[0] for r in rows] == ["s0", "s2", "MEAN"]
        assert rows[:2] == [want[0], want[2]]

    def test_record_without_scanpaths_fails_alone_exit_1(self, tmp_path, capsys):
        # its pooled fixation set is empty, so no location metric scores it
        root = tmp_path / "ds"
        assert main(["gen-synth", "--n", "3", "--seed", "0", "--size", "16x16",
                     "--out", str(root)]) == 0
        man = load_manifest(root / "manifest.json")
        man.records[1].scanpaths = []
        save_manifest(man, root / "manifest.json")
        pred = tmp_path / "pred"
        pred.mkdir()
        for i in range(len(man)):
            shutil.copy(man.map_path(i), pred / f"{man.image_id(i)}.pgm")
        out = tmp_path / "sal.csv"
        capsys.readouterr()
        rc = main(["eval-saliency", "--manifest", str(root / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["failed record img_001: auc_judd: empty fixation set"]
        _, rows = read_report(out)
        assert [r[0] for r in rows] == ["img_000", "img_002", "MEAN"]

    def test_thread_cap_does_not_change_output(self, perfect, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SALYPATH_THREADS", threads)
            out = tmp_path / f"sal{threads}.csv"
            rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                       "--pred-dir", str(perfect / "pred"), "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_thread_cap_is_usage_error(self, perfect, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("SALYPATH_THREADS", "many")
        rc = main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "SALYPATH_THREADS" in capsys.readouterr().err

    def test_borji_seed_flag_changes_result(self, perfect, tmp_path):
        # different --seed must change auc_borji sampling on non-perfect rows;
        # on perfect rows it stays 1.0, so compare a perturbed prediction
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        rng = np.random.default_rng(3)
        write_pgm(pred / "s0.pgm", rng.random((8, 8)))
        vals = []
        for seed in ("0", "123"):
            out = tmp_path / f"sal{seed}.csv"
            main(["eval-saliency", "--manifest", str(perfect / "manifest.json"),
                  "--pred-dir", str(pred), "--out", str(out), "--seed", seed])
            _, rows = read_report(out)
            vals.append(float(rows[0][2]))
        assert vals[0] != vals[1]


class TestEvalScanpath:
    def test_perfect_predictions_hit_identities(self, perfect, tmp_path):
        out = tmp_path / "sp.csv"
        rc = main(["eval-scanpath", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"), "--out", str(out)])
        assert rc == 0
        cols, rows = read_report(out)
        assert cols == SCANPATH_COLS
        assert [r[0] for r in rows] == ["s0", "s1", "s2", "MEAN"]
        for row in rows:
            assert [float(v) for v in row[1:6]] == [1.0] * 5   # mm_* and mean
            assert float(row[7]) == 1.0                        # congruency

    def test_gt_reduce_best_matches_mean_for_single_observer(self, perfect, tmp_path):
        outs = []
        for mode in ("mean", "best"):
            out = tmp_path / f"sp-{mode}.csv"
            rc = main(["eval-scanpath", "--manifest", str(perfect / "manifest.json"),
                       "--pred-dir", str(perfect / "pred"), "--out", str(out),
                       "--gt-reduce", mode])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["mean", "best"])
    def test_twelve_observers_reduce_like_per_score_lists(self, tmp_path, mode):
        root = tmp_path / "ds"
        assert main(["gen-synth", "--n", "4", "--seed", "5", "--size", "32x24",
                     "--scanpaths-per-image", "12", "--out", str(root)]) == 0
        man = load_manifest(root / "manifest.json")
        pred = tmp_path / "pred"
        pred.mkdir()
        rng = np.random.default_rng(12)
        for i in range(len(man)):
            write_scanpath_csv(pred / f"{man.image_id(i)}.csv",
                               rng.uniform(0.0, 1.0, size=(8, 2)) * [31, 23])
        out = tmp_path / "sp.csv"
        assert main(["eval-scanpath", "--manifest", str(root / "manifest.json"),
                     "--pred-dir", str(pred), "--out", str(out),
                     "--gt-reduce", mode]) == 0
        _, rows = read_report(out)
        assert len(rows) == len(man) + 1
        for i, row in enumerate(rows[:-1]):
            path = pixel_to_norm(read_scanpath_csv(pred / f"{row[0]}.csv"),
                                 man.width, man.height)
            scored = [multimatch(path, g) for g in man.load_scanpaths(i)]
            assert len(scored) == 12
            # the reductions as one np.mean per score list, or the first best
            if mode == "best":
                pick = max(scored, key=lambda s: s.mean)
                want = [pick.shape, pick.direction, pick.length, pick.position, pick.mean]
            else:
                want = [float(np.mean([getattr(s, name) for s in scored]))
                        for name in ("shape", "direction", "length", "position", "mean")]
            assert [float(v) for v in row[1:6]] == want, row[0]

    def test_prediction_of_a_mis_sized_stimulus_is_scored_in_its_own_frame(
            self, trained, tmp_path):
        # record 1's stimulus is 8x8 on a 16x16 manifest: predict writes its
        # pixels in the 8x8 frame, and eval-scanpath must score the points
        # it predicted, as if the stimulus had the manifest's size
        man = mis_sized_dataset(tmp_path / "ds")
        own, manifest_frame = tmp_path / "own", tmp_path / "manifest-frame"
        own.mkdir()
        manifest_frame.mkdir()
        for i in range(len(man)):
            csv_path = own / f"{man.image_id(i)}.csv"
            assert main(["predict", "--checkpoint", str(trained["ckpt"]),
                         "--image", str(man.stimulus_path(i)),
                         "--out-map", str(tmp_path / "m.pgm"),
                         "--out-scanpath", str(csv_path)]) == 0
            with open(csv_path, newline="") as f:
                path = np.array([[float(v) for v in row[3:]]    # x_norm, y_norm
                                 for row in list(csv.reader(f))[1:]], dtype=np.float32)
            write_scanpath_csv(manifest_frame / csv_path.name, norm_to_pixel_xy(path, 16, 16))
        rows = []
        for pred in (own, manifest_frame):
            out = tmp_path / f"{pred.name}.csv"
            assert main(["eval-scanpath", "--manifest", str(tmp_path / "ds" / "manifest.json"),
                         "--pred-dir", str(pred), "--out", str(out)]) == 0
            rows.append(read_report(out)[1])
        assert rows[0] == rows[1]

    def test_missing_prediction_listed_and_exit_1(self, perfect, tmp_path, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        (pred / "s2.csv").unlink()
        out = tmp_path / "sp.csv"
        rc = main(["eval-scanpath", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        assert "s2.csv" in capsys.readouterr().err
        _, rows = read_report(out)
        assert [r[0] for r in rows] == ["s0", "s1", "MEAN"]

    @pytest.mark.parametrize("text,error", [
        ("x,y\n1.0\n", "header must start with index,x,y"),
        ("index,x,y\n0,inf,3.0\n1,2.0,-inf\n", "pixel_to_norm: pixel coordinates must be finite"),
        ("index,x,y,y_norm\n0,1.0,2.0,0.5\n1,3.0,4.0,0.25\n", "s0.csv: has column y_norm without its pair"),
        ("index,x,y,x_norm,y_norm\n0,1.0,2.0,1.5,0.5\n1,3.0,4.0,0.25,0.75\n",
         "s0.csv: x_norm, y_norm must be finite and inside [0, 1]"),
        ("index,x,y,x_norm,y_norm\n0,1.0,2.0,0.5,0.5\n1,3.0,4.0,0.25,nan\n",
         "s0.csv: x_norm, y_norm must be finite and inside [0, 1]"),
    ], ids=["bad-header", "infinite-coordinates", "one-normalized-column", "x_norm-1.5",
            "y_norm-nan"])
    def test_malformed_prediction_fails_its_record_exit_1(self, perfect, tmp_path,
                                                           capsys, text, error):
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        (pred / "s0.csv").write_text(text)
        out = tmp_path / "sp.csv"
        rc = main(["eval-scanpath", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("failed record s0: ") and error in line
        _, rows = read_report(out)
        assert [r[0] for r in rows] == ["s1", "s2", "MEAN"]

    def test_undecodable_prediction_fails_its_record_exit_1(self, perfect, tmp_path,
                                                            capsys):
        pred = tmp_path / "pred"
        shutil.copytree(perfect / "pred", pred)
        raw = (pred / "s1.csv").read_bytes()
        (pred / "s1.csv").write_bytes(raw.replace(b"\n", "\u00e9\n".encode("latin-1"), 1))
        out = tmp_path / "sp.csv"
        rc = main(["eval-scanpath", "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("failed record s1: ") and "not UTF-8" in line
        _, rows = read_report(out)
        assert [r[0] for r in rows] == ["s0", "s2", "MEAN"]


# -- usage / plumbing -----------------------------------------------------------

class TestUsage:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--manifest", "x.json", "--verbose"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["explain"])
        assert exc.value.code == 2

    def test_memory_error_without_a_message_is_one_named_line(self, monkeypatch, capsys):
        # Python's own MemoryError(), unlike numpy's, has no message
        def cmd_stats(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_stats", cmd_stats)
        assert main(["stats", "--manifest", "x.json"]) == 2
        assert capsys.readouterr().err == "salypath stats: error: MemoryError\n"

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = run_module("gen-synth", "--n", "2", "--seed", "0",
                          "--size", "16x16", "--out", str(tmp_path / "ds"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ds" / "manifest.json").exists()

    def test_import_does_not_load_scipy_linalg(self):
        # conv2d imports scipy's BLAS at its first call; commands that never
        # convolve (eval-*, stats, gen-synth) must not pay for it at start-up
        src = str(Path(salypath.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, salypath.cli; print('scipy.linalg' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("command, flag, value", [
        ("eval-saliency", "--seed", "-1"),
        ("eval-saliency", "--borji-splits", "0"),
        ("eval-scanpath", "--congruency-percentile", "0"),
        ("eval-scanpath", "--congruency-percentile", "100"),
        ("eval-scanpath", "--congruency-percentile", "nan"),
    ])
    def test_bad_eval_flag_exits_2_before_scoring(self, perfect, command, flag, value):
        proc = run_module(command, "--manifest", str(perfect / "manifest.json"),
                          "--pred-dir", str(perfect / "pred"), f"{flag}={value}")
        assert proc.returncode == 2
        assert proc.stdout == ""  # no report, not even its header
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"salypath {command}: error: {flag} must be")

    @pytest.mark.parametrize("command", ["eval-saliency", "eval-scanpath"])
    def test_missing_output_dir_exits_2_before_scoring(self, perfect, tmp_path, capsys,
                                                       monkeypatch, command):
        calls = []
        real = cli._score_records
        monkeypatch.setattr(cli, "_score_records",
                            lambda *a: calls.append(1) or real(*a))
        out = tmp_path / "nodir" / "r.csv"
        rc = main([command, "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"), "--out", str(out)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath {command}: error: cannot write {out}: "
                        f"{out.parent} is not a directory")
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["same", "relative"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_two_outputs_naming_one_file_exit_2_writing_nothing(
            self, dataset, trained, tmp_path, capsys, monkeypatch, command, spelling):
        # one output once overwrote the other and the command exited 0
        monkeypatch.chdir(tmp_path)
        first = tmp_path / "out"
        second = "out" if spelling == "relative" else str(first)
        if command == "train":
            argv = ["--data", str(dataset / "manifest.json"), "--config",
                    str(trained["config"]), "--out", str(first), "--report", second]
        else:
            image = load_manifest(dataset / "manifest.json").stimulus_path(0)
            argv = ["--checkpoint", str(trained["ckpt"]), "--image", str(image),
                    "--out-map", str(first), "--out-scanpath", second]
        assert main([command, *argv]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"salypath {command}: error: cannot write {second}: {first} is the same file"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, out_flag", [
        ("train", "--data", "--out"), ("train", "--config", "--report"),
        ("predict", "--checkpoint", "--out-map"), ("predict", "--image", "--out-scanpath"),
        ("eval-saliency", "--manifest", "--out"), ("eval-scanpath", "--manifest", "--out"),
    ])
    def test_output_naming_an_input_exit_2_writing_nothing(
            self, dataset, trained, tmp_path, capsys, monkeypatch, command, flag, out_flag):
        # train --out over its --data manifest once wrote the checkpoint there, exit 0
        monkeypatch.chdir(tmp_path)
        shutil.copytree(dataset, tmp_path / "ds")
        shutil.copy(trained["ckpt"], tmp_path / "model.ckpt")
        shutil.copy(trained["config"], tmp_path / "config.json")
        manifest = str(tmp_path / "ds" / "manifest.json")
        image = str(load_manifest(manifest).stimulus_path(0))
        args = {
            "train": {"--data": manifest, "--config": str(tmp_path / "config.json"),
                      "--out": "out.ckpt", "--report": "report.json"},
            "predict": {"--checkpoint": str(tmp_path / "model.ckpt"), "--image": image,
                        "--out-map": "m.pgm", "--out-scanpath": "s.csv"},
        }.get(command, {"--manifest": manifest, "--pred-dir": "ds", "--out": "r.csv"})
        # the output spelled relative to the working directory, the input absolute
        out = args[out_flag] = str(Path(args[flag]).relative_to(tmp_path))
        before = tree_digest(tmp_path)
        assert main([command, *[v for kv in args.items() for v in kv]]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath {command}: error: cannot write {out}: "
                        f"{flag} {args[flag]} is the same file")
        assert tree_digest(tmp_path) == before

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize("command", ["eval-saliency", "eval-scanpath"])
    def test_pred_dir_that_is_not_a_directory_exits_2(self, perfect, tmp_path, capsys,
                                                      command, kind):
        pred = tmp_path / "pred"
        if kind == "file":
            pred.write_text("")
        out = tmp_path / "r.csv"
        rc = main([command, "--manifest", str(perfect / "manifest.json"),
                   "--pred-dir", str(pred), "--out", str(out)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"salypath {command}: error: --pred-dir {pred}: not a directory"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-saliency", "eval-scanpath"])
    def test_records_sharing_an_image_id_exit_2_naming_both(self, perfect, tmp_path,
                                                            capsys, command):
        # a/s0.ppm and b/s0.ppm would both be scored against pred/s0.*
        root = tmp_path / "ds"
        for sub in ("a", "b"):
            (root / sub).mkdir(parents=True)
            for ext in ("ppm", "pgm"):
                shutil.copy(perfect / f"s0.{ext}", root / sub / f"s0.{ext}")
        shutil.copy(perfect / "p0.csv", root / "p0.csv")
        records = [ManifestRecord(stimulus=f"{sub}/s0.ppm", map=f"{sub}/s0.pgm",
                                  scanpaths=["p0.csv"]) for sub in ("a", "b")]
        save_manifest(DatasetManifest(name="dup", width=8, height=8, records=records,
                                      root=root), root / "manifest.json")
        out = tmp_path / "r.csv"
        rc = main([command, "--manifest", str(root / "manifest.json"),
                   "--pred-dir", str(perfect / "pred"), "--out", str(out)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"salypath {command}: error: records 0 (a/s0.ppm) and "
                        "1 (b/s0.ppm) share image id 's0'")
        assert not out.exists()

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            ["salypath", "gen-synth", "--n", "2", "--seed", "0",
             "--size", "16x16", "--out", str(tmp_path / "ds")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ds" / "manifest.json").exists()


# -- cold start -------------------------------------------------------------------

# Runs conv2d forward and backward (every sgemm call form it makes) at a desk
# encoder shape and a 4x4 head shape, once with the sgemm that conv2d loads
# by file path and once with the public scipy.linalg.blas.sgemm, in the
# order given by FIRST.
SGEMM_PIN = """
import sys
import numpy as np
import salypath.tensor as tensor
from salypath.tensor import ConvLayer, Tensor, conv2d

if FIRST == "file":
    mine = tensor._sgemm()
    assert "scipy.linalg" not in sys.modules
    from scipy.linalg.blas import sgemm as public
else:
    from scipy.linalg.blas import sgemm as public
    mine = tensor._sgemm()

def conv_bits(b, ci, co, hw):
    rng = np.random.default_rng(ci * hw)
    x = Tensor(rng.normal(size=(b, ci, hw, hw)), requires_grad=True)
    layer = ConvLayer(Tensor(rng.normal(size=(co, ci, 3, 3)), requires_grad=True),
                      Tensor(rng.normal(size=co), requires_grad=True))
    y = conv2d(x, layer)
    (y * Tensor(rng.normal(size=y.shape))).sum().backward()
    return b"".join(a.tobytes() for a in (y.data, x.grad, layer.weight.grad))

for shape in [(16, 16, 16, 64), (16, 64, 64, 4)]:
    got = conv_bits(*shape)
    tensor._sgemm = lambda: public
    want = conv_bits(*shape)
    tensor._sgemm = lambda: mine
    assert got == want, shape
assert mine is public
"""


# A 3x3 conv at 32->32, 32x32, batch 16, fused ReLU, forward and
# backward: the sha256 of its output, weight gradient and input gradient.
CONV_BITS = """
import hashlib
import numpy as np
from salypath.tensor import ConvLayer, Tensor, conv2d

rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(16, 32, 32, 32)), requires_grad=True)
layer = ConvLayer(Tensor(rng.normal(size=(32, 32, 3, 3)), requires_grad=True),
                  Tensor(rng.normal(size=32), requires_grad=True))
y = conv2d(x, layer, relu=True)
(y * Tensor(rng.normal(size=y.shape))).sum().backward()
for a in (y.data, layer.weight.grad, x.grad):
    print(hashlib.sha256(a.tobytes()).hexdigest())
# the folded upsampling conv, whose weight pre-sum is one more sgemm
z = conv2d(x, layer, relu=True, upsample=True)
(z * Tensor(rng.normal(size=z.shape))).sum().backward()
for a in (z.data, layer.weight.grad, x.grad):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""

# The OpenBLAS that the public scipy.linalg.blas runs on, reached through its
# _fblas module's handle, is set to two threads; the first conv sets it to one.
BLAS_THREADS_PIN = """
import ctypes
from scipy.linalg import _fblas
import salypath.tensor as tensor

blas = ctypes.CDLL(_fblas.__file__)
prefix = "scipy_" if hasattr(blas, "scipy_openblas_set_num_threads") else ""
getattr(blas, prefix + "openblas_set_num_threads")(2)
assert getattr(blas, prefix + "openblas_get_num_threads")() == 2
tensor._sgemm()
assert getattr(blas, prefix + "openblas_get_num_threads")() == 1
"""


class TestBlasThreads:
    def test_conv_bits_do_not_depend_on_the_thread_count(self):
        # the weight gradient's bits changed with two threads before the
        # first conv set scipy's OpenBLAS to one
        bits = {}
        for threads in ("1", "2"):
            proc = _python("-c", CONV_BITS, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            bits[threads] = proc.stdout.split()
        assert bits["1"] == bits["2"]

    def test_first_conv_sets_the_public_blas_to_one_thread(self):
        proc = _python("-c", BLAS_THREADS_PIN)
        assert proc.returncode == 0, proc.stderr

    def test_missing_thread_setter_warns_naming_the_path(self, monkeypatch):
        # a scipy on another BLAS (MKL, Accelerate) still convolves
        import ctypes

        from salypath.tensor import _sgemm

        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        with pytest.warns(RuntimeWarning, match=r"_fblas.* links no OpenBLAS with "
                                                r"\(scipy_\)openblas_set_num_threads"):
            sgemm = _sgemm.__wrapped__()  # the uncached loader: the process keeps its sgemm
        eye = np.eye(2, dtype=np.float32)
        assert np.array_equal(sgemm(1.0, eye, eye), eye)


class TestColdStart:
    def test_import_does_not_load_scipy_ndimage(self):
        # only gen-synth smooths noise
        assert "scipy.ndimage" not in loaded_modules("import salypath.cli")

    def test_predict_loads_neither_scipy_linalg_nor_ndimage(self, trained, dataset,
                                                           tmp_path):
        image = load_manifest(dataset / "manifest.json").stimulus_path(0)
        argv = ["predict", "--checkpoint", str(trained["ckpt"]), "--image", str(image),
                "--out-map", str(tmp_path / "m.pgm"),
                "--out-scanpath", str(tmp_path / "s.csv")]
        mods = loaded_modules(f"from salypath.cli import main\nassert main({argv!r}) == 0")
        assert "scipy.linalg._fblas" in mods  # the forward did convolve
        assert not {"scipy.linalg", "scipy.ndimage"} & mods

    @pytest.mark.parametrize("first", ["file", "public"])
    def test_file_path_sgemm_is_the_public_one(self, first):
        loaded_modules(f"FIRST = {first!r}\n" + SGEMM_PIN)

    def test_missing_fblas_file_raises_naming_the_path(self, monkeypatch):
        import importlib.machinery

        from salypath.tensor import _sgemm

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".gone.so"])
        with pytest.raises(ImportError, match=r"linalg[/\\]_fblas\.gone\.so does not exist"):
            _sgemm.__wrapped__()  # the uncached loader: the process keeps its sgemm
