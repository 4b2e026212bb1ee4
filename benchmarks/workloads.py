"""The three workloads: inputs, timed operations, checks and layer metrics.

Each workload makes its inputs from the seed (``setup``), runs whole
rounds of the same operations (``round``), reduces the timings of the
untraced rounds to its two end-to-end numbers (``end_to_end``), checks the
program's outputs against ``reference`` (``check``) and turns the spans of
the traced rounds into per-layer metrics (``layers``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import salypath.cli as cli
import salypath.data as data
import salypath.model as model
import salypath.tensor as tensor
import salypath.trainer as trainer

import inputs
import reference as ref
from tracing import Profile

# Every per-layer metric, with its unit. A workload reports the ones its
# operations reach; the rest read 0 because that layer does no work there.
PER_LAYER = {
    "tensor.conv2d.fwd_ms_per_step": "ms",
    "tensor.conv2d.calls_per_step": "count",
    "tensor.maxpool2_ms_per_step": "ms",
    "tensor.upsample2_ms_per_step": "ms",
    "tensor.backward.phase1_ms_per_step": "ms",
    "tensor.backward.phase2_ms_per_step": "ms",
    "tensor.softmax2d_ms_per_step": "ms",
    "tensor.conv2d.hot.fwd_ms": "ms",
    "tensor.conv2d.hot.bwd_ms": "ms",
    "tensor.conv2d.hot.gflop_per_s": "GFLOP/s",
    "tensor.conv2d.hot.im2col_mib": "MiB",
    "tensor.conv2d.head.fwd_ms": "ms",
    "tensor.conv2d.head.bwd_ms": "ms",
    "model.encode_ms_per_step": "ms",
    "attention.attend_ms_per_step": "ms",
    "model.decode_ms_per_step": "ms",
    "model.scanpath_features_ms_per_step": "ms",
    "model.soft_argmax_ms_per_step": "ms",
    "model.forward_tensors.b1_ms": "ms",
    "model.forward_tensors.b32_ms_per_image": "ms",
    "model.load_ms": "ms",
    "losses.saliency_loss_ms_per_step": "ms",
    "losses.saliency_loss_calls_per_step": "count",
    "losses.scanpath_loss_ms_per_step": "ms",
    "losses.scanpath_loss_calls_per_step": "count",
    "trainer.optimizer_step_ms": "ms",
    "trainer.prepare_samples_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.saves_per_train": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_ms": "ms",
    "checkpoint.loads_per_image": "count",
    "data.read_ppm_ms": "ms",
    "data.write_pgm_ms": "ms",
    "data.write_scanpath_csv_ms": "ms",
    "data.load_manifest_ms": "ms",
    "data.read_pgm_ms": "ms",
    "data.resample_map_ms": "ms",
    "data.read_scanpath_csv_ms": "ms",
    "data.read_scanpath_csv_calls_per_record": "count",
    "saliency_metrics.auc_judd_ms": "ms",
    "saliency_metrics.auc_borji_ms": "ms",
    "saliency_metrics.pointwise_ms": "ms",
    "scanpath_metrics.multimatch_ms": "ms",
    "scanpath_metrics.align_ms": "ms",
    "scanpath_metrics.nss_congruency_ms": "ms",
    "cli.eval_workers": "count",
    "cli.eval_record_ms": "ms",
    "cli.eval_wall_ms_per_record": "ms",
    **{f"{layer}.self_pct": "%" for layer in (
        "tensor", "attention", "model", "losses", "trainer", "checkpoint", "data",
        "saliency_metrics", "scanpath_metrics", "cli")},
    "trace.attributed_pct": "%",
    "trace.overhead_pct": "%",
}


def _p75(xs) -> float:
    """75th percentile of a run's operation times. A shared VM can switch
    between a fast and a slow state about once a second, the slow one the
    more common; the median then flips between the two from run to run, the
    75th percentile stays in the slow state unless a run is mostly fast."""
    return float(np.percentile(xs, 75))


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _images(paths) -> np.ndarray:
    return np.stack([inputs.read_pnm(p).astype(np.float32) / np.float32(255.0)
                     for p in paths])


def _forward(net, x: np.ndarray):
    with tensor.no_grad():
        maps, points = net.forward_tensors(tensor.Tensor(x))
    return maps.data, points.data


class Workload:
    name = ""
    labels = ("", "")  # what primary_ms and secondary_ms stand for here
    primary = ""       # the operation kind whose time is primary_ms

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self, run):
        """Untimed: caches, allocator and first-call costs."""
        self.round(run)


class TrainDesk(Workload):
    """Desk-preset training on 64x64 stimuli, one call per phase.

    Each call does what ``salypath train`` does (load the manifest, build
    the model, train, save), through the library: the CLI's closing summary
    indexes the loss curve of both phases and so raises IndexError whenever
    a phase has 0 epochs. The preset's batch of 16 over 32 samples for four
    epochs gives each phase eight Adam steps per call; with two, KL + MSE
    did not always fall (the objective also rewards NSS).
    """

    name = "train-desk"
    labels = ("phase1_ms_per_sample", "phase2_ms_per_sample")
    primary = "phase1"
    N, EPOCHS1, EPOCHS2 = 32, 4, 4
    BATCH = trainer.TrainConfig().batch_size  # the desk preset's 16

    def setup(self, root):
        self.ds = inputs.make_dataset(root / "data", np.random.default_rng((self.seed, 1)),
                                      self.N, (64, 64), lengths=(8, 8))
        self.ck = {1: root / "phase1.ckpt", 2: root / "phase2.ckpt",
                   "warmup": root / "warmup.ckpt"}
        self.hashes = {1: set(), 2: set()}
        self.last = {}

    def _train(self, phase: int, epochs: int, ckpt: Path):
        e1, e2 = (epochs, 0) if phase == 1 else (0, epochs)
        manifest = data.load_manifest(self.ds.manifest)
        cfg = trainer.TrainConfig(phase1_epochs=e1, phase2_epochs=e2, batch_size=self.BATCH,
                                  seed=self.seed)
        net = model.SalypathModel(model.ModelConfig.desk(), seed=cfg.seed)
        reports = trainer.train(net, manifest, cfg, checkpoint_path=ckpt)
        net.save(ckpt)
        return net, reports

    def warmup(self, run):
        """One epoch of each phase, into a checkpoint the checks ignore: the
        first epoch of a process is the slow one, and a whole round would
        add ten seconds to every run."""
        for phase in (1, 2):
            run.op("warmup", self._train, phase, 1, self.ck["warmup"])

    def round(self, run):
        for phase in (1, 2):
            epochs = self.EPOCHS1 if phase == 1 else self.EPOCHS2
            out = run.op(f"phase{phase}", self._train, phase, epochs, self.ck[phase])
            if out is not None:
                self.last[phase] = out
                self.hashes[phase].add(_sha(self.ck[phase]))

    def end_to_end(self, times):
        return (_p75(times["phase1"]) / (self.N * self.EPOCHS1),
                _p75(times["phase2"]) / (self.N * self.EPOCHS2))

    def check(self):
        bad = []
        if set(self.last) != {1, 2}:
            return ["a training phase never finished"]
        (_, (r1, _)), (_, (_, r2)) = self.last[1], self.last[2]
        losses = r1.epoch_losses + r2.epoch_losses
        if len(losses) != self.EPOCHS1 + self.EPOCHS2 or not np.isfinite(losses).all():
            bad.append(f"epoch losses missing or not finite: {losses}")
        for phase in (1, 2):
            if len(self.hashes[phase]) != 1:
                bad.append(f"phase {phase}: same-seed calls left {len(self.hashes[phase])} "
                           "different checkpoints")

        x = _images(self.ds.stimuli)
        gt = np.stack([ref.pgm_values(m) for m in self.ds.maps])
        fresh = model.SalypathModel(model.ModelConfig.desk(), seed=self.seed)
        loaded = {p: model.SalypathModel.load(self.ck[p]) for p in (1, 2)}
        for p in (1, 2):
            mine, theirs = _forward(self.last[p][0], x), _forward(loaded[p], x)
            if not all(np.array_equal(a, b) for a, b in zip(mine, theirs)):
                bad.append(f"phase {p}: reloaded checkpoint changes the forward outputs")

        def kl_mse(net):
            maps = _forward(net, x)[0][:, 0]
            return np.mean([ref.kl_mse(m, g) for m, g in zip(maps, gt)], axis=0)

        def point_msd(net):
            pts = _forward(net, x)[1].astype(np.float64)
            return np.mean([np.mean([((p - ref.to_norm(g, 64, 64)) ** 2).sum() / len(g)
                                     for g in paths])
                            for p, paths in zip(pts, self.ds.scanpaths)])

        (k0, m0), (k1, m1) = kl_mse(fresh), kl_mse(loaded[1])
        self.notes = [f"KL+MSE {k0:.4f}+{m0:.4f} -> {k1:.4f}+{m1:.4f} after phase 1"]
        if not k1 + m1 < k0 + m0:
            bad.append(f"phase 1 did not lower KL+MSE: {k0 + m0} -> {k1 + m1}")
        d0, d1 = point_msd(fresh), point_msd(loaded[2])
        self.notes.append(f"point distance {d0:.5f} -> {d1:.5f} after phase 2")
        if not d1 < d0:
            bad.append(f"phase 2 did not lower the point distance: {d0} -> {d1}")
        return bad

    def layers(self, tracer):
        p1 = Profile([r for r in tracer.roots if r.name == "bench.phase1"])
        p2 = Profile([r for r in tracer.roots if r.name == "bench.phase2"])
        s1 = p1.calls["trainer.optimizer_step"]
        s2 = p2.calls["trainer.optimizer_step"]
        att = sum(p1.self_ms[n] for n in p1.self_ms if n.startswith("attention."))
        saves = p1.calls["checkpoint.save"] + p2.calls["checkpoint.save"]
        return {
            "tensor.conv2d.fwd_ms_per_step": p1.self_ms["tensor.conv2d"] / s1,
            "tensor.conv2d.calls_per_step": p1.calls["tensor.conv2d"] / s1,
            "tensor.maxpool2_ms_per_step": p1.self_ms["tensor.maxpool2"] / s1,
            "tensor.upsample2_ms_per_step": p1.self_ms["tensor.upsample2"] / s1,
            "tensor.backward.phase1_ms_per_step": p1.self_ms["tensor.backward"] / s1,
            "tensor.backward.phase2_ms_per_step": p2.self_ms["tensor.backward"] / s2,
            "tensor.softmax2d_ms_per_step": p2.self_ms["tensor.softmax2d"] / s2,
            "model.encode_ms_per_step": p1.self_ms["model.encode"] / s1,
            "attention.attend_ms_per_step": att / s1,
            "model.decode_ms_per_step": p1.self_ms["model.decode"] / s1,
            "model.scanpath_features_ms_per_step": p2.self_ms["model.scanpath_features"] / s2,
            "model.soft_argmax_ms_per_step": p2.self_ms["model.soft_argmax"] / s2,
            "losses.saliency_loss_ms_per_step": p1.self_ms["losses.saliency_loss"] / s1,
            "losses.saliency_loss_calls_per_step": p1.calls["losses.saliency_loss"] / s1,
            "losses.scanpath_loss_ms_per_step": p2.self_ms["losses.scanpath_loss"] / s2,
            "losses.scanpath_loss_calls_per_step": p2.calls["losses.scanpath_loss"] / s2,
            "trainer.optimizer_step_ms": (p1.self_ms["trainer.optimizer_step"]
                                          + p2.self_ms["trainer.optimizer_step"]) / (s1 + s2),
            "trainer.prepare_samples_ms": (p1.incl_ms["trainer.prepare_samples"]
                                           + p2.incl_ms["trainer.prepare_samples"])
                                          / (p1.n_roots + p2.n_roots),
            "checkpoint.save_ms": (p1.self_ms["checkpoint.save"]
                                   + p2.self_ms["checkpoint.save"]) / saves,
            "checkpoint.saves_per_train": saves / (p1.n_roots + p2.n_roots),
            "checkpoint.bytes": float(self.ck[1].stat().st_size),
        }


class PredictDesk(Workload):
    """One ``salypath predict`` call per held-out image against a desk
    checkpoint, then one no-grad batch-32 forward of the same images."""

    name = "predict-desk"
    labels = ("predict_ms_per_image", "predict_b32_ms_per_image")
    primary = "predict"
    N = 32

    def setup(self, root):
        rng = np.random.default_rng((self.seed, 2))
        self.ds = inputs.make_dataset(root / "data", rng, self.N, (64, 64), lengths=(8,))
        net = model.SalypathModel(model.ModelConfig.desk(), seed=self.seed)
        net.att.gamma.data = np.float32(rng.uniform(0.5, 1.5))  # gate on, as after training
        self.ckpt = root / "desk.ckpt"
        net.save(self.ckpt)
        self.out = root / "pred"
        self.out.mkdir()
        self.x = _images(self.ds.stimuli)
        self.net = model.SalypathModel.load(self.ckpt)

    def _argv(self, i):
        stem = self.ds.ids[i]
        return ["predict", "--checkpoint", str(self.ckpt), "--image", str(self.ds.stimuli[i]),
                "--out-map", str(self.out / f"{stem}.pgm"),
                "--out-scanpath", str(self.out / f"{stem}.csv")]

    def _b32(self):
        return _forward(self.net, self.x)

    def round(self, run):
        for i in range(self.N):
            run.op("predict", cli.main, self._argv(i), expect=0)
        out = run.op("b32", self._b32)
        if out is not None:
            self.b32 = out

    def end_to_end(self, times):
        return _p75(times["predict"]), _p75(times["b32"]) / self.N

    def check(self):
        bad = []
        maps, pts = self.b32
        with tensor.no_grad():
            x = tensor.Tensor(self.x)
            feats = self.net.scanpath_features(self.net.attend(self.net.encode(x))).data
        centroid = ref.softmax_centroid(feats, self.net.config.beta)
        if not np.allclose(centroid, pts, rtol=0, atol=1e-5):
            bad.append("batch points differ from the softmax centroid of the head features")
        for i, stem in enumerate(self.ds.ids):
            one_map, one_pts = _forward(self.net, self.x[i:i + 1])
            if not (np.allclose(one_map, maps[i:i + 1], rtol=0, atol=1e-5)
                    and np.allclose(one_pts, pts[i:i + 1], rtol=0, atol=1e-5)):
                bad.append(f"{stem}: batch-32 forward differs from the batch-1 forward")
            pgm = inputs.read_pnm(self.out / f"{stem}.pgm")
            if pgm.shape != (64, 64):
                bad.append(f"{stem}: map is {pgm.shape}, not 64x64")
                continue
            err = np.abs(ref.pgm_values(pgm) - np.clip(one_map[0, 0], 0, 1)).max()
            if err > 0.5 / 255 + 1e-6:
                bad.append(f"{stem}: written map is {err * 255:.3f} grey levels off")
            c = inputs.read_csv_columns(self.out / f"{stem}.csv")
            norm = np.stack([c.get("x_norm", np.zeros(0)), c.get("y_norm", np.zeros(0))], 1)
            if norm.shape != (8, 2) or not ((0 <= norm) & (norm <= 1)).all():
                bad.append(f"{stem}: scanpath is not 8 points in [0,1]^2")
                continue
            if not (np.array_equal(c["x"], norm[:, 0] * 63)
                    and np.array_equal(c["y"], norm[:, 1] * 63)):
                bad.append(f"{stem}: pixel coordinates are not the points times 63")
            if not np.allclose(norm, np.clip(centroid[i], 0, 1), rtol=0, atol=1e-5):
                bad.append(f"{stem}: points differ from the softmax centroid")
        return bad

    def layers(self, tracer):
        pr = Profile([r for r in tracer.roots if r.name == "bench.predict"])
        b32 = Profile([r for r in tracer.roots if r.name == "bench.b32"])
        n = pr.n_roots
        return {
            "model.forward_tensors.b1_ms": pr.incl_ms["model.forward_tensors"] / n,
            "model.forward_tensors.b32_ms_per_image":
                b32.incl_ms["model.forward_tensors"] / (b32.n_roots * self.N),
            "model.load_ms": pr.self_ms["model.load"] / n,
            "checkpoint.load_ms": pr.self_ms["checkpoint.load"] / pr.calls["checkpoint.load"],
            "checkpoint.loads_per_image": pr.calls["checkpoint.load"] / n,
            "data.read_ppm_ms": pr.self_ms["data.read_ppm"] / n,
            "data.write_pgm_ms": pr.self_ms["data.write_pgm"] / n,
            "data.write_scanpath_csv_ms": pr.self_ms["data.write_scanpath_csv"] / n,
        }


class EvalLarge(Workload):
    """``eval-saliency`` and ``eval-scanpath`` over a held-out set whose
    ground truth is larger than the predictions (256x192 against 64x64),
    with five observers of 12 to 20 fixations (80 per image).

    eval-saliency scores the first 12 records and eval-scanpath all 120, so
    that each call lasts long enough (about 2 s and 1 s) to average over
    the swings in machine speed that a 0.1 s call would sample one at a
    time."""

    name = "eval-large"
    labels = ("eval_saliency_ms_per_record", "eval_scanpath_ms_per_record")
    primary = "eval_saliency"
    N = {"saliency": 12, "scanpath": 120}  # records each command scores
    W, H = 256, 192
    LENGTHS = (12, 14, 16, 18, 20)  # one scanpath per observer
    SPLITS = 100  # eval-saliency's default --borji-splits

    def setup(self, root):
        rng = np.random.default_rng((self.seed, 3))
        self.ds = inputs.make_dataset(root / "data", rng, self.N["scanpath"],
                                      (self.W, self.H), self.LENGTHS)
        doc = json.loads(self.ds.manifest.read_text())
        doc["records"] = doc["records"][:self.N["saliency"]]
        self.manifests = {"scanpath": self.ds.manifest,
                          "saliency": self.ds.manifest.with_name("saliency.json")}
        self.manifests["saliency"].write_text(json.dumps(doc, indent=1) + "\n")
        self.pred = root / "pred"
        self.pred.mkdir()
        self.pred_maps, self.pred_paths = [], []
        for stem, b in zip(self.ds.ids, self.ds.blobs):
            shift = rng.normal(0.0, 0.04, size=b.centers.shape)
            m = 0.8 * b.render(64, 64, shift) + 0.2 * inputs.smooth_noise(rng, 1, 64, 64)[0]
            inputs.write_pgm(self.pred / f"{stem}.pgm", m)
            self.pred_maps.append(np.rint(np.clip(m, 0, 1) * 255).astype(np.uint8))
            pts = b.centers[rng.choice(len(b.weights), size=8, p=b.weights)]
            px = np.clip(pts + rng.normal(0, 0.05, size=(8, 2)), 0, 1) * [self.W - 1, self.H - 1]
            inputs.write_scanpath(self.pred / f"{stem}.csv", px)
            self.pred_paths.append(px)
        self.reports = {k: root / f"{k}.csv" for k in ("saliency", "scanpath")}
        self.hashes = {k: set() for k in self.reports}

    def _argv(self, kind):
        return [f"eval-{kind}", "--manifest", str(self.manifests[kind]), "--pred-dir",
                str(self.pred), "--out", str(self.reports[kind])]

    def round(self, run):
        for kind in ("saliency", "scanpath"):
            if run.op(f"eval_{kind}", cli.main, self._argv(kind), expect=0) is not None:
                self.hashes[kind].add(_sha(self.reports[kind]))

    def end_to_end(self, times):
        return (_p75(times["eval_saliency"]) / self.N["saliency"],
                _p75(times["eval_scanpath"]) / self.N["scanpath"])

    def _rows(self, kind, bad):
        cols = inputs.read_csv_columns(self.reports[kind])
        ids = list(cols.pop("image_id"))
        if ids != self.ds.ids[:self.N[kind]] + ["MEAN"]:
            bad.append(f"{kind}: rows are not the manifest records in order plus MEAN")
            return None
        table = np.stack(list(cols.values()), axis=1)
        if not np.allclose(table[-1], table[:-1].mean(axis=0), rtol=1e-12, atol=0):
            bad.append(f"{kind}: MEAN row is not the mean of the rows")
        return [dict(zip(cols, row)) for row in table[:-1]]

    def check(self):
        bad = []
        for kind, seen in self.hashes.items():
            if len(seen) != 1:
                bad.append(f"eval-{kind}: repeated calls wrote {len(seen)} different reports")
        rows = self._rows("saliency", bad) or []
        for i, row in enumerate(rows):
            pred = ref.resample(ref.pgm_values(self.pred_maps[i]), self.W, self.H)
            fix = np.concatenate(self.ds.scanpaths[i])
            want = ref.saliency_row(pred, ref.pgm_values(self.ds.maps[i]), fix)
            for k, v in want.items():
                if abs(row[k] - v) > 1e-9:
                    bad.append(f"{self.ds.ids[i]}: {k} {row[k]!r}, reference {v!r}")
            tol = ref.borji_tolerance(len(fix), self.SPLITS)
            if abs(row["auc_borji"] - row["auc_judd"]) > tol:
                bad.append(f"{self.ds.ids[i]}: auc_borji {row['auc_borji']} is further than "
                           f"{tol:.4f} from auc_judd {row['auc_judd']}")
        rows = self._rows("scanpath", bad) or []
        for i, row in enumerate(rows):
            want = ref.scanpath_row(self.pred_paths[i], self.ds.scanpaths[i],
                                    ref.pgm_values(self.ds.maps[i]), self.W, self.H)
            for k, v in want.items():
                if abs(row[k] - v) > 1e-9:
                    bad.append(f"{self.ds.ids[i]}: {k} {row[k]!r}, reference {v!r}")
        return bad

    def layers(self, tracer):
        sal = Profile([r for r in tracer.roots if r.name == "bench.eval_saliency"])
        scan = Profile([r for r in tracer.roots if r.name == "bench.eval_scanpath"])
        both = Profile([r for r in tracer.roots if r.name.startswith("bench.eval_")])
        sal_recs = sal.n_roots * self.N["saliency"]
        scan_recs = scan.n_roots * self.N["scanpath"]

        def per_call(name):
            return both.self_ms[name] / both.calls[name]

        return {
            "data.load_manifest_ms": both.incl_ms["data.load_manifest"] / both.calls["data.load_manifest"],
            "data.read_pgm_ms": per_call("data.read_pgm"),
            "data.resample_map_ms": per_call("data.resample_map"),
            "data.read_scanpath_csv_ms": per_call("data.read_scanpath_csv"),
            "data.read_scanpath_csv_calls_per_record": sal.calls["data.read_scanpath_csv"] / sal_recs,
            "saliency_metrics.auc_judd_ms": sal.self_ms["saliency_metrics.auc_judd"] / sal_recs,
            "saliency_metrics.auc_borji_ms": sal.self_ms["saliency_metrics.auc_borji"] / sal_recs,
            "saliency_metrics.pointwise_ms": sum(
                sal.self_ms[f"saliency_metrics.{m}"] for m in ("nss", "cc", "sim", "kld")) / sal_recs,
            "scanpath_metrics.multimatch_ms": scan.self_ms["scanpath_metrics.multimatch"] / scan_recs,
            "scanpath_metrics.align_ms": scan.self_ms["scanpath_metrics.align"] / scan_recs,
            "scanpath_metrics.nss_congruency_ms": (
                scan.self_ms["scanpath_metrics.nss_scanpath"]
                + scan.self_ms["scanpath_metrics.congruency"]) / scan_recs,
            "cli.eval_workers": float(max(tracer.pool_workers)),
            "cli.eval_record_ms": sal.incl_ms["cli.eval_record"] / sal_recs,
            "cli.eval_wall_ms_per_record": sal.wall_ms / sal_recs,
        }


WORKLOADS = {w.name: w for w in (TrainDesk, PredictDesk, EvalLarge)}
