"""Seeded synthetic inputs, written in salypath's documented file formats.

The benchmark makes its inputs itself instead of calling the program's own
generator, so that a change to the program cannot change what it is
measured on. The same seed gives byte-identical files.

Maps are mixtures of one to three Gaussian blobs with peak 1. Stimuli tint
the map warm over a cool background and add smooth noise, so the saliency
is visible in the pixels and training has something to learn. Fixations
are whole pixels sampled around the blobs, heaviest blob first; whole
pixels keep the fixation grid of every metric free of rounding ties.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WARM = np.array([0.95, 0.45, 0.15])
COOL = np.array([0.10, 0.30, 0.55])


# -- file formats ---------------------------------------------------------

def write_pgm(path, values: np.ndarray) -> None:
    q = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + q.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    q = np.rint(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape[1:]
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h)
                           + np.ascontiguousarray(q.transpose(1, 2, 0)).tobytes())


def read_pnm(path) -> np.ndarray:
    """uint8 [H, W] for P5 or [3, H, W] for P6 with maxval 255."""
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: unexpected PNM header")
    planes = 1 if magic == b"P5" else 3
    payload = raw[len(raw) - w * h * planes:]
    arr = np.frombuffer(payload, dtype=np.uint8)
    return arr.reshape(h, w) if planes == 1 else arr.reshape(h, w, 3).transpose(2, 0, 1)


def write_scanpath(path, xy: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["index", "x", "y"])
        for i, (x, y) in enumerate(np.asarray(xy, dtype=np.float64)):
            wr.writerow([i, repr(float(x)), repr(float(y))])


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Every column of a CSV with a header row, as float64 (or str) arrays."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    cols = {}
    for k, name in enumerate(rows[0]):
        vals = [r[k] for r in rows[1:] if r]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return cols


# -- content ----------------------------------------------------------------

@dataclass
class Blobs:
    centers: np.ndarray  # [k, 2] normalized (x, y)
    sigmas: np.ndarray   # [k]
    weights: np.ndarray  # [k], sum 1, descending

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "Blobs":
        k = int(rng.integers(1, 4))
        w = np.sort(rng.uniform(0.5, 1.0, size=k))[::-1]
        return cls(rng.uniform(0.15, 0.85, size=(k, 2)),
                   rng.uniform(0.06, 0.15, size=k), w / w.sum())

    def render(self, w: int, h: int, shift: np.ndarray | None = None) -> np.ndarray:
        gx, gy = np.meshgrid(np.linspace(0, 1, w), np.linspace(0, 1, h))
        centers = self.centers if shift is None else self.centers + shift
        m = np.zeros((h, w))
        for (cx, cy), sg, wt in zip(centers, self.sigmas, self.weights):
            m += wt * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * sg * sg))
        return m / m.max()

    def fixations(self, rng: np.random.Generator, n: int, w: int, h: int) -> np.ndarray:
        """[n, 2] whole-pixel (x, y), heaviest blob first, never all equal."""
        idx = rng.choice(len(self.weights), size=n, p=self.weights)
        pts = self.centers[idx] + rng.normal(0.0, 0.55, size=(n, 2)) * self.sigmas[idx, None]
        pts = pts[np.argsort(-self.weights[idx], kind="stable")]
        px = np.rint(np.clip(pts, 0.0, 1.0) * [w - 1, h - 1])
        if (px == px[0]).all():
            px[-1, 0] = (px[0, 0] + 1) % w
        return px


def smooth_noise(rng: np.random.Generator, planes: int, h: int, w: int) -> np.ndarray:
    """[planes, H, W] noise in [-1, 1], constant over 8x8 cells."""
    coarse = rng.standard_normal((planes, h // 8 + 1, w // 8 + 1))
    noise = coarse.repeat(8, axis=1).repeat(8, axis=2)[:, :h, :w]
    return noise / np.abs(noise).max()


def stimulus(rng: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """[3, H, W] in [0, 1]: warm where the map is high, plus smooth noise."""
    noise = smooth_noise(rng, 3, *m.shape)
    return np.clip(COOL[:, None, None] * (1 - m) + WARM[:, None, None] * m + 0.16 * noise, 0, 1)


@dataclass
class Dataset:
    manifest: Path
    ids: list[str]
    stimuli: list[Path]
    maps: list[np.ndarray]             # uint8 [H, W], as written
    scanpaths: list[list[np.ndarray]]  # whole-pixel (x, y) per observer
    blobs: list[Blobs]


def make_dataset(root: Path, rng: np.random.Generator, n: int, size: tuple[int, int],
                 lengths: tuple[int, ...]) -> Dataset:
    """``n`` records at ``size`` = (W, H), each with one scanpath per entry
    of ``lengths``. The lengths are fixed, not drawn, so that every seed
    gives the metrics the same amount of work."""
    w, h = size
    for sub in ("stimuli", "maps", "scanpaths"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    ds = Dataset(root / "manifest.json", [], [], [], [], [])
    records = []
    for i in range(n):
        stem = f"img_{i:03d}"
        b = Blobs.draw(rng)
        m = b.render(w, h)
        stim = root / "stimuli" / f"{stem}.ppm"
        write_ppm(stim, stimulus(rng, m))
        write_pgm(root / "maps" / f"{stem}.pgm", m)
        rels, paths = [], []
        for s, length in enumerate(lengths):
            px = b.fixations(rng, length, w, h)
            rel = f"scanpaths/{stem}_{s}.csv"
            write_scanpath(root / rel, px)
            rels.append(rel)
            paths.append(px)
        records.append({"stimulus": f"stimuli/{stem}.ppm", "map": f"maps/{stem}.pgm",
                        "scanpaths": rels})
        ds.ids.append(stem)
        ds.stimuli.append(stim)
        ds.maps.append(np.rint(np.clip(m, 0, 1) * 255).astype(np.uint8))
        ds.scanpaths.append(paths)
        ds.blobs.append(b)
    ds.manifest.write_text(json.dumps({"name": "bench", "width": w, "height": h,
                                       "records": records}, indent=1) + "\n")
    return ds
