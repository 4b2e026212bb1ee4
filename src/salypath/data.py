"""Dataset IO and the synthetic data generator.

File formats, all dependency-free and byte-stable:

* Saliency maps: binary PGM (P5), 8-bit, maxval 255; pixel value k means
  intensity k/255. ``read_pgm`` (and so ``DatasetManifest.load_map``)
  returns the [H, W] float32 array; ``write_pgm`` clips to [0, 1] and
  rejects a NaN or infinite value.
* Stimuli: binary PPM (P6), 8-bit RGB.
* PNM header, read by the one pattern ``_PNM_HEADER``: the magic; width,
  height and maxval as decimal numbers (at most 18 significant digits),
  separated by whitespace or ``#`` comments that end in a newline; then
  exactly one whitespace byte before the payload.
* Scanpaths: CSV with header ``index,x,y``; x and y are float pixel
  coordinates (x along width). Extra columns are ignored on read, except
  that a reader given a frame takes the ``x_norm``/``y_norm`` columns
  ``predict`` writes, when a file has both, in place of the pixels, and
  rejects a value that is not finite or lies outside [0, 1].
  Floats are written with repr so write -> read -> write is byte-identical.
  A manifest's scanpaths are read by one checked reader, whether
  ``load_manifest`` reads them or a hand-built ``DatasetManifest`` does:
  read-only arrays, every fixation inside the stimulus. ``load_scanpaths``
  returns them as [N, 2] float32 normalized points, like every scanpath
  in the package.
* Manifest: JSON {"name", "width", "height", "records": [{"stimulus",
  "map", "scanpaths": [...]}]} with paths relative to the manifest's
  directory. ``read_json_object`` reads it, and ``train --config`` too;
  its rule, ``json_object``, also reads checkpoint headers.

The synthetic generator is fully deterministic in its arguments: the same
call produces byte-identical trees. Maps are mixtures of 1-3 Gaussian
blobs (peak normalized to 1); stimuli render the map as a warm tint over a
cool background plus smoothed noise so that saliency is actually visible
in the pixels, which is what makes held-out generalization measurable;
scanpaths sample points around the blobs, heaviest blob first.
"""

from __future__ import annotations

import collections
import csv
import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, ManifestError
from .types import map_values, norm_to_pixel_xy, path_points, pixel_to_norm

WARM = np.array([0.95, 0.45, 0.15], dtype=np.float64)
COOL = np.array([0.10, 0.30, 0.55], dtype=np.float64)
# synthetic blob centers are drawn uniformly from [_CENTER_LO, _CENTER_HI)^2
_CENTER_LO, _CENTER_HI = 0.15, 0.85
# largest min_center_dist: 0.19 % of [0.15, 0.85)^2 lies this far from the
# center (~540 draws per blob); the corners' 0.35*sqrt(2) ~ 0.495 leaves none
MAX_CENTER_DIST = 0.48


# -- PGM / PPM ----------------------------------------------------------

# the PNM header grammar the module docstring states
_PNM_HEADER = re.compile(
    rb"P[56](?:\s|#[^\n]*\n)*0*(\d{1,18})(?:\s|#[^\n]*\n)+0*(\d{1,18})"
    rb"(?:\s|#[^\n]*\n)+0*(\d{1,18})\s")


def _write_pnm(path, magic: bytes, hwc: np.ndarray) -> None:
    """8-bit binary PNM from an [H, W] or [H, W, C] array of values in [0, 1]."""
    q = np.rint(np.clip(hwc, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = q.shape[:2]
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        f.write(q.tobytes())


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """[H, W, channels] float32 in [0, 1] (value/255) of a maxval-255 PNM."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != magic:
        kind = "PGM" if channels == 1 else "PPM"
        raise ManifestError(f"{path}: not a binary {kind} (magic {raw[:2]!r})")
    header = _PNM_HEADER.match(raw)
    if header is None:
        raise ManifestError(f"{path}: malformed PNM header")
    w, h, maxval = map(int, header.groups())
    off = header.end()
    if maxval != 255:
        raise ManifestError(f"{path}: unsupported maxval {maxval}, expected 255")
    if w < 1 or h < 1:
        raise ManifestError(f"{path}: empty image {w}x{h}")
    need = w * h * channels
    payload = raw[off:off + need]
    if len(payload) != need:
        raise ManifestError(
            f"{path}: payload has {len(payload)} bytes, expected {need}"
        )
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)
    return img.astype(np.float32) / np.float32(255.0)


def write_pgm(path, values) -> None:
    """8-bit binary PGM from a [H, W] map, clipped to [0, 1]; a NaN or
    infinite value raises ContractError before the file is opened."""
    v = map_values(values, "write_pgm")
    if not np.isfinite(v).all():
        raise ContractError("write_pgm: values must be finite")
    _write_pnm(path, b"P5", v)


def read_pgm(path) -> np.ndarray:
    """[H, W] float32 in [0, 1] (value/255)."""
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def _rgb(x, caller: str) -> np.ndarray:
    """``x`` as an array, checked to be a [3, H, W] image."""
    v = np.asarray(x)
    if v.ndim != 3 or v.shape[0] != 3:
        raise DimensionError(f"{caller}: rgb must be [3, H, W], got {v.shape}")
    return v


def write_ppm(path, rgb) -> None:
    """8-bit binary PPM from a [3, H, W] array of values in [0, 1]."""
    _write_pnm(path, b"P6", _rgb(rgb, "write_ppm").transpose(1, 2, 0))  # H, W, 3 interleaved


def read_ppm(path) -> np.ndarray:
    """[3, H, W] float32 in [0, 1]."""
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1)


# -- scanpath CSV ---------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_scanpath_csv(path, xy_pixels, extra: dict[str, np.ndarray] | None = None) -> None:
    """Write pixel-coordinate fixations. ``extra`` appends named float
    columns (e.g. normalized coordinates) after x and y."""
    pts = path_points(xy_pixels, "write_scanpath_csv")
    cols = list((extra or {}).items())
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["index", "x", "y"] + [name for name, _ in cols])
        for i, (x, y) in enumerate(pts):
            row = [str(i), _fmt(x), _fmt(y)]
            for _, arr in cols:
                row.append(_fmt(float(np.asarray(arr).reshape(-1)[i])))
            wr.writerow(row)


def read_scanpath_csv(path, frame: tuple[int, int] | None = None) -> np.ndarray:
    """[N, 2] (x, y) points. Requires the index,x,y header; indices must
    run 0..N-1. Without ``frame``: float64 pixels, extra columns ignored.
    With a (width, height) ``frame``: float32 normalized points, the x_norm
    and y_norm columns when the header has both, else the pixels read in
    that frame (``pixel_to_norm``). One of the two columns without the
    other, or a normalized value that is not finite or lies outside [0, 1],
    raises ManifestError."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8 text: {e}") from e
    except csv.Error as e:  # e.g. a field longer than csv's 128 KiB limit
        raise ManifestError(f"{path}: {e}") from e
    if not rows:
        raise ManifestError(f"{path}: empty scanpath file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:3] != ["index", "x", "y"]:
        raise ManifestError(
            f"{path}: header must start with index,x,y, got {rows[0][:3]}"
        )
    norm = [c for c in ("x_norm", "y_norm") if c in header] if frame else []
    if len(norm) == 1:
        raise ManifestError(f"{path}: has column {norm[0]} without its pair")
    cols = [header.index(c) for c in norm] or [1, 2]
    pts = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            idx = int(row[0])
            x = float(row[cols[0]])
            y = float(row[cols[1]])
        except (ValueError, IndexError) as e:
            raise ManifestError(f"{path}: line {ln}: bad row {row!r}") from e
        if idx != len(pts):
            raise ManifestError(
                f"{path}: line {ln}: index {idx}, expected {len(pts)}"
            )
        pts.append((x, y))
    if not pts:
        raise ManifestError(f"{path}: no fixation rows")
    pts = np.array(pts, dtype=np.float32 if norm else np.float64)
    if not norm:
        return pixel_to_norm(pts, *frame) if frame else pts
    if not ((pts >= 0) & (pts <= 1)).all():  # NaN fails too
        raise ManifestError(f"{path}: x_norm, y_norm must be finite and inside [0, 1]")
    return pts


def _read_checked_scanpath(root: Path, rel: str, width: int, height: int,
                           where: str) -> np.ndarray:
    """``read_scanpath_csv(root / rel)``, read-only, with every fixation
    inside the width x height stimulus; ``where`` prefixes the message."""
    px = read_scanpath_csv(root / rel)
    px.flags.writeable = False
    # written so that a NaN coordinate fails it too
    if not ((px >= 0) & (px <= (width - 1, height - 1))).all():
        raise ManifestError(f"{where}: scanpath {rel!r} has fixations that are "
                            f"NaN or outside the {width}x{height} stimulus")
    return px


# -- manifest -------------------------------------------------------------

@dataclass
class ManifestRecord:
    stimulus: str
    map: str
    scanpaths: list[str] = field(default_factory=list)
    # pixel arrays load_manifest parsed and validated, by scanpath path
    _pixels: dict[str, np.ndarray] = field(default_factory=dict, repr=False,
                                           compare=False)


@dataclass
class DatasetManifest:
    name: str
    width: int
    height: int
    records: list[ManifestRecord]
    root: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.records)

    def image_id(self, i: int) -> str:
        return Path(self.records[i].stimulus).stem

    def stimulus_path(self, i: int) -> Path:
        return self.root / self.records[i].stimulus

    def map_path(self, i: int) -> Path:
        return self.root / self.records[i].map

    def load_stimulus(self, i: int) -> np.ndarray:
        return read_ppm(self.stimulus_path(i))

    def load_map(self, i: int) -> np.ndarray:
        return read_pgm(self.map_path(i))

    def _scanpath_pixels(self, i: int) -> list[np.ndarray]:
        """Record i's scanpaths as [N, 2] pixel (x, y) arrays: the ones
        load_manifest already parsed, else read and checked from disk."""
        rec, where = self.records[i], f"record {i}"
        return [rec._pixels[rel] if rel in rec._pixels
                else _read_checked_scanpath(self.root, rel, self.width, self.height, where)
                for rel in rec.scanpaths]

    def load_scanpaths(self, i: int) -> list[np.ndarray]:
        """Record i's scanpaths as [N, 2] float32 normalized points."""
        return [pixel_to_norm(px, self.width, self.height) for px in self._scanpath_pixels(i)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "width": self.width,
            "height": self.height,
            "records": [
                {"stimulus": r.stimulus, "map": r.map, "scanpaths": list(r.scanpaths)}
                for r in self.records
            ],
        }


def save_manifest(manifest: DatasetManifest, path) -> None:
    with open(path, "w") as f:
        json.dump(manifest.to_dict(), f, indent=1)
        f.write("\n")


def json_object(read, where, what: str, error=ManifestError) -> dict:
    """The JSON object in the text ``read()`` decodes, for manifests, configs
    and checkpoint headers. Text that is not UTF-8 or not valid JSON (numbers
    or nesting too large for Python included), or that holds no object
    (``what`` names the document), raises ``error`` naming ``where``."""
    try:
        doc = json.loads(read())
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{where}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{where}: {what} is not a JSON object")
    return doc


def read_json_object(path, what: str) -> dict:
    """``json_object`` of the UTF-8 file ``path``; one that cannot be read
    raises ManifestError naming ``path`` too."""
    try:
        with open(path, encoding="utf-8") as f:
            return json_object(f.read, path, what)
    except OSError as e:
        raise ManifestError(f"{path}: {e}") from e


def load_manifest(path) -> DatasetManifest:
    """Parse and fully validate a manifest: name must be a JSON string,
    width and height JSON integers, every referenced path a string naming
    an existing file, and every scanpath must parse with in-bounds
    coordinates (NaN is not). Errors are ManifestError and carry the key,
    or the record index and offending path. The parsed scanpaths stay with
    their records (read-only), so they are not read twice."""
    path = Path(path)
    doc = read_json_object(path, "manifest")
    for key in ("name", "width", "height", "records"):
        if key not in doc:
            raise ManifestError(f"{path}: missing key {key!r}")
    for key, tp, what in (("name", str, "a string"), ("width", int, "an integer"),
                          ("height", int, "an integer")):
        if type(doc[key]) is not tp:  # also keeps JSON true/false out of int
            raise ManifestError(f"{path}: {key!r} must be {what}, got {doc[key]!r}")
    width, height = doc["width"], doc["height"]
    if width < 1 or height < 1:
        raise ManifestError(f"{path}: bad dimensions {width}x{height}")
    if not isinstance(doc["records"], list):
        raise ManifestError(f"{path}: 'records' must be a list, got {doc['records']!r}")
    root = path.parent
    records = []
    for ri, rec in enumerate(doc["records"]):
        try:
            stim, mp = rec["stimulus"], rec["map"]
            sps = rec.get("scanpaths", [])
        except (TypeError, KeyError) as e:
            raise ManifestError(f"{path}: record {ri}: malformed entry") from e
        if not (isinstance(sps, list) and all(isinstance(r, str) for r in [stim, mp, *sps])):
            raise ManifestError(f"{path}: record {ri}: malformed entry: stimulus, "
                                "map and scanpaths must be path strings")
        for rel in [stim, mp] + sps:
            if not (root / rel).is_file():
                raise ManifestError(
                    f"{path}: record {ri}: referenced path {rel!r} does not exist as a file"
                )
        pixels = {rel: _read_checked_scanpath(root, rel, width, height, f"{path}: record {ri}")
                  for rel in sps}
        records.append(ManifestRecord(stimulus=stim, map=mp, scanpaths=sps,
                                      _pixels=pixels))
    return DatasetManifest(
        name=doc["name"], width=width, height=height,
        records=records, root=root,
    )


def length_stats(manifest: DatasetManifest) -> dict:
    """Scanpath length distribution over every scanpath in the manifest:
    mean, median, mode (ties -> smallest), histogram {length: count}. The
    scanpaths are checked as ``load_scanpaths`` checks them."""
    lengths = [px.shape[0] for i in range(len(manifest))
               for px in manifest._scanpath_pixels(i)]
    if not lengths:
        raise ContractError("length_stats: manifest has no scanpaths")
    hist = collections.Counter(lengths)
    top = max(hist.values())
    mode = min(k for k, v in hist.items() if v == top)
    return {
        "count": len(lengths),
        "mean": float(np.mean(lengths)),
        "median": float(statistics.median(lengths)),
        "mode": int(mode),
        "histogram": {str(k): hist[k] for k in sorted(hist)},
    }


# -- resampling -------------------------------------------------------------

def resample_map(values, target_w: int, target_h: int) -> np.ndarray:
    """Bilinear, corner-anchored resample of a [H, W] array."""
    v = map_values(values, "resample_map")
    h, w = v.shape
    if (h, w) == (target_h, target_w):
        return v.astype(np.float32).copy()
    if target_h < 1 or target_w < 1:
        raise DimensionError(
            f"resample_map: bad target {target_w}x{target_h}"
        )
    out = np.empty((target_h, target_w), dtype=np.float32)  # too large to hold: fails first
    v = v.astype(np.float64)
    ys = np.linspace(0.0, h - 1, target_h)
    xs = np.linspace(0.0, w - 1, target_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    out[...] = ((1 - wy) * (1 - wx) * v[np.ix_(y0, x0)]
                + (1 - wy) * wx * v[np.ix_(y0, x1)]
                + wy * (1 - wx) * v[np.ix_(y1, x0)]
                + wy * wx * v[np.ix_(y1, x1)])
    return out


def resample_stimulus(rgb: np.ndarray, target_w: int, target_h: int) -> np.ndarray:
    """Per-channel bilinear resample of a [3, H, W] image."""
    return np.stack([resample_map(c, target_w, target_h)
                     for c in _rgb(rgb, "resample_stimulus")])


# -- synthetic data -----------------------------------------------------------

def generate_synthetic(n: int, seed: int, size: tuple[int, int] = (64, 64),
                       out_dir=None, scanpaths_per_image: int = 2,
                       length_weights: dict[int, float] | None = None,
                       min_center_dist: float = 0.0) -> DatasetManifest:
    """Write ``n`` stimulus/map/scanpath triples plus manifest.json under
    ``out_dir`` and return the loaded manifest.

    size is (width, height). length_weights maps scanpath length ->
    unnormalized probability (default: every path has 8 points).
    min_center_dist rejects blob centers closer than this (normalized) to
    the image center, for building deliberately off-center evaluation sets;
    centers are rejection-sampled from [0.15, 0.85)^2, so it must be at most
    MAX_CENTER_DIST. Arguments are checked before anything is written.
    Deterministic: identical arguments produce byte-identical trees.
    """
    # only this function smooths, so other commands never load scipy.ndimage
    from scipy.ndimage import gaussian_filter

    if out_dir is None:
        raise ContractError("generate_synthetic: out_dir is required")
    if n < 1:
        raise ContractError(f"generate_synthetic: n must be >= 1, got {n}")
    w, h = int(size[0]), int(size[1])
    if w < 8 or h < 8:
        raise ContractError(f"generate_synthetic: size too small: {size}")
    if scanpaths_per_image < 1:
        raise ContractError("generate_synthetic: scanpaths_per_image must be >= 1")
    if seed < 0:
        raise ContractError(f"generate_synthetic: seed must be >= 0, got {seed}")
    if not 0.0 <= min_center_dist <= MAX_CENTER_DIST:  # NaN fails too
        # beyond it the rejection loop below would (almost) never end
        raise ContractError("generate_synthetic: min_center_dist must be >= 0 and "
                            f"at most {MAX_CENTER_DIST}, got {min_center_dist}")
    if length_weights:
        lens = sorted(length_weights)
        if any(l < 2 for l in lens):
            raise ContractError("generate_synthetic: scanpath lengths must be >= 2")
        probs = np.array([length_weights[l] for l in lens], dtype=np.float64)
        if not (probs.min() >= 0 and 0 < probs.sum() < np.inf):  # NaN fails both
            raise ContractError("generate_synthetic: length weights must be finite, "
                                f">= 0 and not all 0, got {length_weights}")
        probs = probs / probs.sum()
    else:
        lens, probs = [8], np.array([1.0])

    out_dir = Path(out_dir)
    for sub in ("stimuli", "maps", "scanpaths"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.linspace(0, 1, w), np.linspace(0, 1, h))
    records = []
    for i in range(n):
        stem = f"img_{i:03d}"
        k = int(rng.integers(1, 4))
        centers = []
        while len(centers) < k:
            cx, cy = rng.uniform(_CENTER_LO, _CENTER_HI, size=2)
            if min_center_dist > 0.0 and np.hypot(cx - 0.5, cy - 0.5) < min_center_dist:
                continue
            centers.append((cx, cy))
        sigmas = rng.uniform(0.06, 0.15, size=k)
        weights = np.sort(rng.uniform(0.5, 1.0, size=k))[::-1]
        weights = weights / weights.sum()

        m = np.zeros((h, w), dtype=np.float64)
        for (cx, cy), sg, wt in zip(centers, sigmas, weights):
            m += wt * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * sg * sg))
        m /= m.max()

        noise = gaussian_filter(rng.standard_normal((3, h, w)), sigma=(0, 2.0, 2.0))
        noise /= max(np.abs(noise).max(), 1e-9)
        img = (COOL[:, None, None] * (1.0 - m)
               + WARM[:, None, None] * m
               + 0.16 * noise)
        img = np.clip(img, 0.0, 1.0)

        write_pgm(out_dir / "maps" / f"{stem}.pgm", m)
        write_ppm(out_dir / "stimuli" / f"{stem}.ppm", img)

        sp_rel = []
        for s in range(scanpaths_per_image):
            length = int(rng.choice(lens, p=probs))
            blob_idx = rng.choice(k, size=length, p=weights)
            # one draw of `length` rows is the stream of `length` draws of 2
            jitter = rng.normal(0.0, 0.55 * sigmas[blob_idx, None], size=(length, 2))
            pts = np.clip(np.array(centers)[blob_idx] + jitter, 0.0, 1.0)
            order = np.argsort(-weights[blob_idx], kind="stable")
            pts = pts[order]
            rel = f"scanpaths/{stem}_{s}.csv"
            write_scanpath_csv(out_dir / rel, norm_to_pixel_xy(pts, w, h))
            sp_rel.append(rel)

        records.append(ManifestRecord(
            stimulus=f"stimuli/{stem}.ppm",
            map=f"maps/{stem}.pgm",
            scanpaths=sp_rel,
        ))

    manifest = DatasetManifest(name="synthetic", width=w, height=h,
                               records=records, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.json")
    return load_manifest(out_dir / "manifest.json")
