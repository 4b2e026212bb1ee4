"""Command-line interface.

Subcommands: train, predict, eval-saliency, eval-scanpath, stats,
gen-synth. Exit codes: 0 success, 1 evaluation incomplete (missing
predictions or records that could not be scored), 2 usage, IO or memory error.
Failures print a one-line diagnostic to stderr, and so does each warning
(``salypath <command>: warning: <message>``). Every command is
deterministic given its flags and seeds.

Evaluation commands fan out across manifest records on a thread pool;
the SALYPATH_THREADS environment variable caps the worker count. Report
rows always come out in manifest order.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import data as dio
from . import saliency_metrics as sm
from . import scanpath_metrics as spm
from .errors import SalypathError
from .model import ModelConfig, SalypathModel
from .trainer import TrainConfig, train
from .types import FixationSet, Scanpath

SALIENCY_COLS = ["image_id", "auc_judd", "auc_borji", "nss", "cc", "sim", "kld"]
SCANPATH_COLS = ["image_id", "mm_shape", "mm_dir", "mm_len", "mm_pos",
                 "mm_mean", "nss", "congruency"]


def _workers(n_tasks: int) -> int:
    cap = os.environ.get("SALYPATH_THREADS")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            raise SalypathError(f"SALYPATH_THREADS must be an integer, got {cap!r}")
        if cap_n < 1:
            raise SalypathError(f"SALYPATH_THREADS must be >= 1, got {cap_n}")
    else:
        cap_n = os.cpu_count() or 1
    return max(1, min(n_tasks, cap_n))


def _check_out_paths(*paths) -> None:
    """Fail before any work when an output path cannot be written as a file."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise SalypathError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise SalypathError(f"cannot write {path}: {path.parent} is not a directory")


def _curve(losses: list[float]) -> str:
    """First -> last epoch loss, or '-' for a phase that ran no epochs."""
    return f"{losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "-"


def cmd_train(args) -> int:
    _check_out_paths(args.out, args.report)
    paper = args.preset == "paper"
    conf = {"model": (ModelConfig.full_scale() if paper else ModelConfig.desk()).to_dict(),
            "train": (TrainConfig.full_scale() if paper else TrainConfig()).to_dict()}
    if args.config:
        doc = dio.read_json_object(args.config, "config")
        for key, section in doc.items():
            if key not in conf:
                raise SalypathError(f"{args.config}: unknown config section {key!r}")
            if not isinstance(section, dict):
                raise SalypathError(f"{args.config}: config section {key!r} is not an object")
            for name, value in section.items():
                # a partial dict-valued field (loss_weights) keeps the preset's other keys
                base = conf[key].get(name)
                conf[key][name] = ({**base, **value} if isinstance(base, dict)
                                   and isinstance(value, dict) else value)
    if args.seed is not None:
        conf["train"]["seed"] = args.seed

    mcfg = ModelConfig.from_dict(conf["model"])
    tcfg = TrainConfig.from_dict(conf["train"])
    manifest = dio.load_manifest(args.data)
    model = SalypathModel(mcfg, seed=tcfg.seed)
    r1, r2 = train(model, manifest, tcfg, checkpoint_path=args.out)
    model.save(args.out)
    if args.report:
        with open(args.report, "w") as f:
            json.dump({"phase1": r1.to_dict(), "phase2": r2.to_dict()}, f, indent=1)
            f.write("\n")
    print(f"trained {len(manifest)} images: "
          f"L1 {_curve(r1.epoch_losses)}, L2 {_curve(r2.epoch_losses)}, "
          f"checkpoint {args.out}")
    return 0


def cmd_predict(args) -> int:
    _check_out_paths(args.out_map, args.out_scanpath)
    model = SalypathModel.load(args.checkpoint)
    h, w = model.config.input_size
    img = dio.read_ppm(args.image)
    img_h, img_w = img.shape[1:]
    if (img_h, img_w) != (h, w):
        warnings.warn(f"image is {img_w}x{img_h}, resampling to model input {w}x{h}",
                      RuntimeWarning)
    smap, path = model.forward(dio.resample_stimulus(img, w, h))
    dio.write_pgm(args.out_map, smap)
    # pixels in the stimulus's own frame; eval-scanpath reads x_norm, y_norm
    px = path.to_pixels(img_w, img_h)
    dio.write_scanpath_csv(args.out_scanpath, px, extra={
        "x_norm": path.points[:, 0].astype(np.float64),
        "y_norm": path.points[:, 1].astype(np.float64),
    })
    print(f"wrote {args.out_map} and {args.out_scanpath}")
    return 0


def _write_report(out, cols: list[str], rows: list[list]) -> None:
    """Rows of [image_id, floats...] plus a trailing MEAN row; full-precision
    floats so means can be re-derived exactly from the rows."""
    stream = sys.stdout if out is None else open(out, "w", newline="")
    try:
        wr = csv.writer(stream)
        wr.writerow(cols)
        for row in rows:
            wr.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
        if rows:
            arr = np.array([[float(v) for v in row[1:]] for row in rows], dtype=np.float64)
            wr.writerow(["MEAN"] + [repr(float(v)) for v in arr.mean(axis=0)])
    finally:
        if out is not None:
            stream.close()


def _score_records(manifest, pred_dir: Path, suffix: str, score, out,
                   cols: list[str]) -> int:
    """Score each record that has a ``<image_id><suffix>`` prediction on a
    thread pool and write the report in manifest order.

    A ``pred_dir`` that is not a directory, or two records sharing an image
    id (and so one prediction file), raises SalypathError before any scoring.
    A missing prediction, or a record whose scoring raises SalypathError or
    OSError (unreadable prediction, constant map, a directory in place of a
    file, ...), is named on stderr and left out of the report; either makes
    the exit code 1.
    """
    if not pred_dir.is_dir():
        raise SalypathError(f"--pred-dir {pred_dir}: not a directory")
    missing = []
    jobs = []
    first: dict[str, int] = {}
    for i in range(len(manifest)):
        image_id = manifest.image_id(i)
        j = first.setdefault(image_id, i)
        if j != i:
            raise SalypathError(
                f"records {j} ({manifest.records[j].stimulus}) and {i} "
                f"({manifest.records[i].stimulus}) share image id {image_id!r}")
        p = pred_dir / f"{image_id}{suffix}"
        if not p.exists():
            missing.append(str(p))
        else:
            jobs.append((i, p))
    for p in missing:
        print(f"missing prediction: {p}", file=sys.stderr)

    def guarded(job):
        try:
            return score(job), None
        except (SalypathError, OSError) as e:
            return None, e

    with ThreadPoolExecutor(max_workers=_workers(len(jobs))) as ex:
        results = list(ex.map(guarded, jobs))
    rows = []
    for (i, _), (row, err) in zip(jobs, results):
        if err is None:
            rows.append(row)
        else:
            print(f"failed record {manifest.image_id(i)}: {err}", file=sys.stderr)
    _write_report(out, cols, rows)
    return 1 if missing or len(rows) < len(jobs) else 0


def cmd_eval_saliency(args) -> int:
    """Score each prediction resampled from its own size to its record's map."""
    _check_out_paths(args.out)
    if args.seed < 0:
        raise SalypathError(f"--seed must be >= 0, got {args.seed}")
    if args.borji_splits < 1:
        raise SalypathError(f"--borji-splits must be >= 1, got {args.borji_splits}")
    manifest = dio.load_manifest(args.manifest)

    def one(job):
        i, p = job
        gt = manifest.load_map(i)
        h, w = gt.shape
        pred = dio.resample_map(dio.read_pgm(p), w, h)
        fix = FixationSet.from_scanpaths(manifest.load_scanpaths(i), w, h)
        return [
            manifest.image_id(i),
            sm.auc_judd(pred, fix),
            sm.auc_borji(pred, fix, n_splits=args.borji_splits,
                         rng_seed=args.seed + i),
            sm.nss(pred, fix),
            sm.cc(pred, gt),
            sm.sim(pred, gt),
            sm.kld(pred, gt),
        ]

    return _score_records(manifest, Path(args.pred_dir), ".pgm", one,
                          args.out, SALIENCY_COLS)


def cmd_eval_scanpath(args) -> int:
    """Score each prediction's x_norm, y_norm columns, or without them its
    pixels read in the manifest's frame, against its record."""
    _check_out_paths(args.out)
    if not 0.0 < args.congruency_percentile < 100.0:
        raise SalypathError("--congruency-percentile must be in (0, 100), "
                            f"got {args.congruency_percentile}")
    manifest = dio.load_manifest(args.manifest)

    def one(job):
        i, p = job
        gt = manifest.load_map(i)
        gts = manifest.load_scanpaths(i)
        if not gts:
            raise SalypathError(
                f"record {i} ({manifest.image_id(i)}) has no ground-truth scanpaths"
            )
        pred = Scanpath(dio.read_scanpath_csv(p, (manifest.width, manifest.height)))
        # one row per observer: the four MultiMatch scores and their mean
        table = np.array([s.as_tuple() + (s.mean,)
                          for s in (spm.multimatch(pred, g) for g in gts)])
        if args.gt_reduce == "best":
            mm = table[np.argmax(table[:, -1])].tolist()  # first maximum
        else:
            # column by column, as np.mean of each list sums, bit for bit
            mm = [float(np.mean(col)) for col in table.T]
        return [
            manifest.image_id(i), *mm,
            spm.nss_scanpath(pred, gt),
            spm.congruency(pred, gt, percentile=args.congruency_percentile),
        ]

    return _score_records(manifest, Path(args.pred_dir), ".csv", one,
                          args.out, SCANPATH_COLS)


def cmd_stats(args) -> int:
    manifest = dio.load_manifest(args.manifest)
    print(json.dumps(dio.length_stats(manifest), indent=1))
    return 0


def cmd_gen_synth(args) -> int:
    try:
        w, h = (int(t) for t in args.size.lower().split("x"))
    except ValueError:
        raise SalypathError(f"--size must look like 64x64, got {args.size!r}")
    lw = None
    if args.length_weights:
        try:
            lw = {int(k): float(v) for k, v in
                  (part.split(":") for part in args.length_weights.split(","))}
        except ValueError:
            raise SalypathError("--length-weights must be len:weight pairs like "
                                f"8:0.7,6:0.3, got {args.length_weights!r}")
    manifest = dio.generate_synthetic(
        n=args.n, seed=args.seed, size=(w, h), out_dir=args.out,
        scanpaths_per_image=args.scanpaths_per_image,
        length_weights=lw, min_center_dist=args.min_center_dist,
    )
    print(f"wrote {len(manifest)} records under {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` is its caller."""
    ap = argparse.ArgumentParser(
        prog="salypath",
        description="Saliency-map and scanpath prediction toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on a dataset manifest")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--preset", choices=["desk", "paper"], default="desk",
                   help="desk: small fast config; paper: full VGG-16 scale at 224x320")
    p.add_argument("--config", help="JSON with optional 'model'/'train' override sections")
    p.add_argument("--report", help="write the per-epoch training report JSON here")
    p.add_argument("--seed", type=int, default=None, help="override the training seed")

    p = sub.add_parser("predict", help="run one image through a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PPM stimulus")
    p.add_argument("--out-map", required=True, help="PGM saliency output")
    p.add_argument("--out-scanpath", required=True, help="CSV scanpath output")

    p = sub.add_parser("eval-saliency", help="score predicted maps against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True,
                   help="directory of <image_id>.pgm predictions")
    p.add_argument("--out", help="report CSV path (default stdout)")
    p.add_argument("--seed", type=int, default=0,
                   help="auc_borji base seed; record i uses seed+i")
    p.add_argument("--borji-splits", type=int, default=100)

    p = sub.add_parser("eval-scanpath", help="score predicted scanpaths against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True,
                   help="directory of <image_id>.csv predictions")
    p.add_argument("--out", help="report CSV path (default stdout)")
    p.add_argument("--gt-reduce", choices=["mean", "best"], default="mean",
                   help="score against all observers (mean) or the closest one (best)")
    p.add_argument("--congruency-percentile", type=float, default=80.0)

    p = sub.add_parser("stats", help="print scanpath length statistics as JSON")
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("gen-synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="64x64", help="WxH, default 64x64")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scanpaths-per-image", type=int, default=2)
    p.add_argument("--length-weights", default=None,
                   help="len:weight pairs, e.g. 8:0.7,6:0.2,10:0.1")
    p.add_argument("--min-center-dist", type=float, default=0.0,
                   help="reject blob centers closer than this to the image "
                        f"center, at most {dio.MAX_CENTER_DIST}")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so a wrapper put
    # on the module (benchmarks/tracing.py does) is what runs
    run = globals()["cmd_" + args.command.replace("-", "_")]
    with warnings.catch_warnings():
        # a warning is one line, in the error line's form
        warnings.showwarning = lambda message, *_: print(
            f"salypath {args.command}: warning: {message}", file=sys.stderr)
        try:
            return run(args)
        except (SalypathError, OSError, MemoryError) as e:
            print(f"salypath {args.command}: error: {str(e) or type(e).__name__}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
