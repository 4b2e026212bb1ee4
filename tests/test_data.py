"""Dataset I/O: PNM images, scanpath CSVs, manifests, resampling, and the
synthetic generator.

File-format tests pin byte-level behaviour (round trips must be exact, not
approximate). The bilinear resampler is checked against an explicit-loop
oracle, and the generator against its documented distributional guarantees.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from salypath.data import (
    DatasetManifest,
    ManifestRecord,
    generate_synthetic,
    length_stats,
    load_manifest,
    read_pgm,
    read_ppm,
    read_scanpath_csv,
    resample_map,
    resample_stimulus,
    save_manifest,
    write_pgm,
    write_ppm,
    write_scanpath_csv,
)
from salypath.errors import ContractError, DimensionError, ManifestError
from salypath.types import norm_to_pixel


def bilinear_oracle(src: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Corner-anchored bilinear interpolation, one output pixel at a time."""
    h, w = src.shape
    out = np.zeros((th, tw), dtype=np.float64)
    for i in range(th):
        for j in range(tw):
            y = i * (h - 1) / (th - 1) if th > 1 else 0.0
            x = j * (w - 1) / (tw - 1) if tw > 1 else 0.0
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (
                src[y0, x0] * (1 - fy) * (1 - fx)
                + src[y0, x1] * (1 - fy) * fx
                + src[y1, x0] * fy * (1 - fx)
                + src[y1, x1] * fy * fx
            )
    return out


def tree_digest(root: Path) -> dict:
    """Relative path -> sha256 of contents, for whole-dataset comparison."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# -- PGM ------------------------------------------------------------------

class TestPgm:
    def test_round_trip_exact(self, tmp_path, rng):
        # quantized inputs (k/255) survive the byte format without loss
        q = rng.integers(0, 256, size=(9, 13))
        vals = (q / 255.0).astype(np.float32)
        p = tmp_path / "m.pgm"
        write_pgm(p, vals)
        back = read_pgm(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, vals)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        vals = rng.random((6, 7)).astype(np.float32)
        write_pgm(p1, vals)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_clipped_to_unit_interval(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm(p, np.array([[-0.5, 0.0], [1.0, 3.0]]))
        back = read_pgm(p)
        assert np.array_equal(back, np.array([[0, 0], [1, 1]], dtype=np.float32))

    def test_header_layout(self, tmp_path):
        p = tmp_path / "h.pgm"
        write_pgm(p, np.zeros((2, 3)))
        assert p.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_rank_mismatch_rejected(self, tmp_path):
        with pytest.raises(DimensionError, match=r"\[H, W\]"):
            write_pgm(tmp_path / "r.pgm", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_before_writing(self, tmp_path, bad):
        # clipping would turn an infinity into 0 or 1, and a NaN has no byte
        vals = np.full((2, 3), 0.5, dtype=np.float32)
        vals[1, 2] = bad
        with pytest.raises(ContractError, match="^write_pgm: values must be finite$"):
            write_pgm(tmp_path / "n.pgm", vals)
        assert not (tmp_path / "n.pgm").exists()


# -- PPM ------------------------------------------------------------------

class TestPpm:
    def test_round_trip_exact(self, tmp_path, rng):
        q = rng.integers(0, 256, size=(3, 5, 8))
        vals = (q / 255.0).astype(np.float32)
        p = tmp_path / "s.ppm"
        write_ppm(p, vals)
        back = read_ppm(p)
        assert back.shape == (3, 5, 8)
        assert np.array_equal(back, vals)

    def test_channel_interleaving(self, tmp_path):
        # payload must be RGB-interleaved per pixel, row-major
        vals = np.zeros((3, 1, 2), dtype=np.float32)
        vals[0, 0, 0] = 1.0   # first pixel pure red
        vals[2, 0, 1] = 1.0   # second pixel pure blue
        p = tmp_path / "i.ppm"
        write_ppm(p, vals)
        assert p.read_bytes().endswith(bytes([255, 0, 0, 0, 0, 255]))

    def test_shape_rejected(self, tmp_path):
        with pytest.raises(DimensionError, match=r"\[3, H, W\]"):
            write_ppm(tmp_path / "r.ppm", np.zeros((1, 4, 4)))


# -- PNM header (one codec reads both) ----------------------------------------

@pytest.fixture(params=[
    SimpleNamespace(read=read_pgm, magic=b"P5", channels=1, other=b"P2", kind="PGM"),
    SimpleNamespace(read=read_ppm, magic=b"P6", channels=3, other=b"P5", kind="PPM"),
], ids=["P5", "P6"])
def pnm(request):
    return request.param


# headers, with {m} for the magic, that every reader has accepted; each is
# followed by a 2x2 payload
GOOD_PNM_HEADERS = [
    pytest.param(b"{m}\n# c1\n2 # c2\n2\n#c3\n255\n", id="comments-between-tokens"),
    pytest.param(b"{m} 2#c\n2 255\n", id="comment-right-after-token"),
    pytest.param(b"{m}\t2\r2\t255\r", id="tab-and-cr"),
    pytest.param(b"{m}2 2 255\n", id="no-space-after-magic"),
    pytest.param(b"{m} 0002 02 0255\n", id="leading-zeros"),
]
# (whole file, with {p} for a 2x2 payload; text the message must hold) of
# files that every reader has rejected
BAD_PNM_FILES = [
    pytest.param(b"{m}\n2 2", "", id="truncated-header"),
    pytest.param(b"{m}\n2 2\n# no end", "", id="unterminated-comment"),
    pytest.param(b"{m}\n-1 2\n255\n{p}", "", id="minus-one-token"),
    pytest.param(b"{m}\nx 2\n255\n{p}", "", id="x-token"),
    pytest.param(b"{m}\n2 2\n255#c\n{p}", "", id="no-separator-before-payload"),
    pytest.param(b"{m}\n2 2\n128\n{p}", "maxval 128", id="maxval-128"),
]


def _pnm_bytes(template: bytes, magic: bytes, payload: bytes) -> bytes:
    return template.replace(b"{m}", magic).replace(b"{p}", payload)


class TestPnmHeader:
    @pytest.mark.parametrize("header", GOOD_PNM_HEADERS)
    def test_header_grammar_accepts(self, tmp_path, pnm, header):
        raw = np.arange(4 * pnm.channels, dtype=np.uint8) * 20 + 1
        p = tmp_path / "ok.pnm"
        p.write_bytes(_pnm_bytes(header, pnm.magic, b"") + raw.tobytes())
        got = pnm.read(p).reshape(pnm.channels, 2, 2)  # PGM reads [H, W], PPM [3, H, W]
        want = raw.reshape(2, 2, pnm.channels).transpose(2, 0, 1) / np.float32(255)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("template,error", BAD_PNM_FILES)
    def test_header_grammar_rejects_naming_the_file(self, tmp_path, pnm, template, error):
        p = tmp_path / "bad.pnm"
        p.write_bytes(_pnm_bytes(template, pnm.magic, bytes(range(1, 1 + 4 * pnm.channels))))
        with pytest.raises(ManifestError) as e:
            pnm.read(p)
        assert str(e.value).startswith(f"{p}: ") and error in str(e.value)

    def test_number_too_long_to_parse_rejected(self, tmp_path, pnm):
        # a 5000-digit width once escaped as int()'s bare ValueError
        p = tmp_path / "long.pnm"
        p.write_bytes(pnm.magic + b" " + b"1" * 5000 + b" 2 255\n")
        with pytest.raises(ManifestError, match="malformed PNM header"):
            pnm.read(p)

    def test_comment_in_header_is_skipped(self, tmp_path, pnm):
        raw = np.arange(4 * pnm.channels, dtype=np.uint8) * 20
        p = tmp_path / "cm.pnm"
        p.write_bytes(pnm.magic + b"\n# made elsewhere\n2 2\n255\n" + raw.tobytes())
        got = pnm.read(p).reshape(pnm.channels, 2, 2)  # PGM reads [H, W], PPM [3, H, W]
        want = raw.reshape(2, 2, pnm.channels).transpose(2, 0, 1) / np.float32(255)
        assert np.array_equal(got, want)

    def test_bad_magic_rejected(self, tmp_path, pnm):
        p = tmp_path / "bad.pnm"
        p.write_bytes(pnm.other + b"\n2 2\n255\n" + bytes(4 * pnm.channels))
        with pytest.raises(ManifestError, match=f"not a binary {pnm.kind}"):
            pnm.read(p)

    def test_wrong_maxval_rejected(self, tmp_path, pnm):
        p = tmp_path / "mx.pnm"
        p.write_bytes(pnm.magic + b"\n2 2\n128\n" + bytes(4 * pnm.channels))
        with pytest.raises(ManifestError, match="maxval 128"):
            pnm.read(p)

    @pytest.mark.parametrize("size", [b"0 16", b"16 0"])
    def test_zero_extent_rejected(self, tmp_path, pnm, size):
        # once read as a (16, 0) map that crashed resample_map downstream
        p = tmp_path / "empty.pnm"
        p.write_bytes(pnm.magic + b"\n" + size + b"\n255\n")
        with pytest.raises(ManifestError, match="empty image"):
            pnm.read(p)

    def test_truncated_payload_rejected(self, tmp_path, pnm):
        need = 16 * pnm.channels
        p = tmp_path / "tr.pnm"
        p.write_bytes(pnm.magic + b"\n4 4\n255\n" + bytes(need - 1))
        with pytest.raises(ManifestError, match=f"{need - 1} bytes, expected {need}"):
            pnm.read(p)


# -- scanpath CSV ---------------------------------------------------------

class TestScanpathCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        # repr() serialization -> float64 round trip is exact, not approximate
        pts = rng.random((7, 2)) * 63
        p = tmp_path / "sp.csv"
        write_scanpath_csv(p, pts)
        back = read_scanpath_csv(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, pts)

    def test_header_and_indices(self, tmp_path):
        p = tmp_path / "sp.csv"
        write_scanpath_csv(p, np.array([[1.5, 2.0], [3.0, 4.5]]))
        lines = p.read_text().splitlines()
        assert lines[0] == "index,x,y"
        assert lines[1].startswith("0,") and lines[2].startswith("2,") is False

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("index,x,y,duration\n0,1.0,2.0,310\n1,3.0,4.0,95\n")
        back = read_scanpath_csv(p)
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_frame_reads_normalized_columns(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("index,x,y,x_norm,y_norm\n0,3.0,6.0,0.25,0.75\n1,9.0,0.0,1.0,0.0\n")
        assert np.array_equal(read_scanpath_csv(p), [[3.0, 6.0], [9.0, 0.0]])
        back = read_scanpath_csv(p, (100, 100))
        assert np.array_equal(back, [[0.25, 0.75], [1.0, 0.0]])

    def test_frame_reads_pixels_without_normalized_columns(self, tmp_path):
        p = tmp_path / "px.csv"
        p.write_text("index,x,y,duration\n0,3.0,6.0,310\n1,15.0,0.0,95\n")
        back = read_scanpath_csv(p, (16, 7))
        assert back.dtype == np.float32
        assert np.array_equal(back, np.float32([[3.0 / 15, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("col", ["x_norm", "y_norm"])
    def test_frame_rejects_one_normalized_column(self, tmp_path, col):
        p = tmp_path / "half.csv"
        p.write_text(f"index,x,y,{col}\n0,1.0,2.0,0.5\n")
        assert read_scanpath_csv(p).shape == (1, 2)
        with pytest.raises(ManifestError, match=f"half.csv: has column {col} without its pair"):
            read_scanpath_csv(p, (4, 4))

    def test_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("index,x,y\n0,1.0,1.0\n\n1,2.0,2.0\n")
        assert read_scanpath_csv(p).shape == (2, 2)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("x,y,index\n0,1.0,2.0\n")
        with pytest.raises(ManifestError, match="header must start with index,x,y"):
            read_scanpath_csv(p)

    def test_non_sequential_index_rejected(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("index,x,y\n0,1.0,2.0\n2,3.0,4.0\n")
        with pytest.raises(ManifestError, match="index 2, expected 1"):
            read_scanpath_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ManifestError, match="empty scanpath file"):
            read_scanpath_csv(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("index,x,y\n")
        with pytest.raises(ManifestError, match="no fixation rows"):
            read_scanpath_csv(p)

    def test_oversized_field_rejected(self, tmp_path):
        # a field past csv's 128 KiB limit once escaped as a bare csv.Error
        p = tmp_path / "p.csv"
        p.write_text("index,x,y\n0," + "1" * 200000 + ",1\n")
        with pytest.raises(ManifestError, match="field larger than field limit"):
            read_scanpath_csv(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("index,x,y\n0,1.0,oops\n")
        with pytest.raises(ManifestError, match="line 2"):
            read_scanpath_csv(p)


# -- manifest -------------------------------------------------------------

def tiny_dataset(root: Path, n: int = 1) -> DatasetManifest:
    """Hand-built minimal dataset: n records of a 4x4 image."""
    records = []
    for i in range(n):
        stim, mp, sp = f"s{i}.ppm", f"m{i}.pgm", f"p{i}.csv"
        write_ppm(root / stim, np.full((3, 4, 4), i / max(n, 2)))
        write_pgm(root / mp, np.eye(4) * (i + 1) / n)
        write_scanpath_csv(root / sp, np.array([[0.0, 0.0], [3.0, 2.0]]))
        records.append(ManifestRecord(stimulus=stim, map=mp, scanpaths=[sp]))
    man = DatasetManifest(name="tiny", width=4, height=4, records=records, root=root)
    save_manifest(man, root / "manifest.json")
    return man


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        man = tiny_dataset(tmp_path, n=3)
        back = load_manifest(tmp_path / "manifest.json")
        assert back.to_dict() == man.to_dict()
        assert back.root == tmp_path

    def test_resave_is_byte_identical(self, tmp_path):
        tiny_dataset(tmp_path, n=3)
        src = tmp_path / "manifest.json"
        back = load_manifest(src)
        save_manifest(back, tmp_path / "again.json")
        assert src.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_empty_records_is_valid(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(
            {"name": "none", "width": 8, "height": 8, "records": []}
        ))
        man = load_manifest(p)
        assert len(man) == 0

    def test_image_id_is_stimulus_stem(self, tmp_path):
        man = tiny_dataset(tmp_path, n=2)
        assert man.image_id(1) == "s1"
        assert load_manifest(tmp_path / "manifest.json").image_id(0) == "s0"

    def test_loaders_return_typed_values(self, tmp_path):
        tiny_dataset(tmp_path)
        man = load_manifest(tmp_path / "manifest.json")
        assert man.load_stimulus(0).shape == (3, 4, 4)
        assert man.load_map(0).shape == (4, 4)
        sps = man.load_scanpaths(0)
        assert len(sps) == 1
        # pixel (3, 2) on a 4x4 grid -> normalized (1.0, 2/3)
        assert sps[0].points[1, 0] == pytest.approx(1.0)
        assert sps[0].points[1, 1] == pytest.approx(2.0 / 3.0)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"name": "x", "width": 4, "records": []}))
        with pytest.raises(ManifestError, match="missing key 'height'"):
            load_manifest(p)

    def test_bad_dimensions_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(
            {"name": "x", "width": 0, "height": 4, "records": []}
        ))
        with pytest.raises(ManifestError, match="bad dimensions 0x4"):
            load_manifest(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(p)

    def test_missing_map_file_names_record_and_path(self, tmp_path):
        man = tiny_dataset(tmp_path, n=2)
        (tmp_path / man.records[1].map).unlink()
        with pytest.raises(ManifestError, match="record 1.*'m1.pgm' does not exist"):
            load_manifest(tmp_path / "manifest.json")

    def test_out_of_bounds_scanpath_names_record(self, tmp_path):
        tiny_dataset(tmp_path)
        write_scanpath_csv(tmp_path / "p0.csv", np.array([[0.0, 0.0], [5.0, 1.0]]))
        with pytest.raises(ManifestError, match="record 0.*outside the 4x4 stimulus"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("bad", [[9.0, 1.0], [1.0, float("nan")]], ids=["x-9", "y-nan"])
    def test_hand_built_manifest_checks_scanpaths(self, tmp_path, bad):
        # load_manifest rejects this file; a hand-built manifest once read
        # it anyway, clipping x = 9 on the 4x4 stimulus to x_norm = 1.0
        man = tiny_dataset(tmp_path)
        write_scanpath_csv(tmp_path / "p0.csv", np.array([[0.0, 0.0], bad]))
        error = "record 0: scanpath 'p0.csv' has fixations that are NaN or outside the 4x4"
        with pytest.raises(ManifestError, match=error):
            man.load_scanpaths(0)
        with pytest.raises(ManifestError, match=error):
            length_stats(man)

    @pytest.mark.parametrize("content,error", [
        (None, "No such file"),
        (b"{not json", "invalid JSON"),
        ('{"name": "caf\u00e9"}'.encode("latin-1"), "invalid JSON"),
        (b"[1]", "manifest is not a JSON object"),
        (b"[" * 100000 + b"]" * 100000, "invalid JSON"),
        (b'{"width": ' + b"1" * 5000 + b"}", "invalid JSON"),
    ], ids=["missing", "truncated", "latin-1", "not-object", "deep-nesting", "long-number"])
    def test_json_failure_is_one_manifest_error_naming_the_path(self, tmp_path, content, error):
        p = tmp_path / "manifest.json"
        if content is not None:
            p.write_bytes(content)
        with pytest.raises(ManifestError) as e:
            load_manifest(p)
        assert str(e.value).startswith(f"{p}: ") and error in str(e.value)

    def test_malformed_record_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({
            "name": "x", "width": 4, "height": 4,
            "records": [{"stimulus": "a.ppm"}],
        }))
        with pytest.raises(ManifestError, match="record 0: malformed entry"):
            load_manifest(p)


# -- length_stats ---------------------------------------------------------

def stats_dataset(root: Path, lengths: list[int]) -> DatasetManifest:
    """One 4x4 record carrying one scanpath per requested length."""
    write_ppm(root / "s.ppm", np.zeros((3, 4, 4)))
    write_pgm(root / "m.pgm", np.eye(4))
    sps = []
    for i, n in enumerate(lengths):
        name = f"p{i}.csv"
        write_scanpath_csv(root / name, np.tile([[1.0, 1.0]], (n, 1)) + 0.25 * i)
        sps.append(name)
    man = DatasetManifest(
        name="stats", width=4, height=4,
        records=[ManifestRecord(stimulus="s.ppm", map="m.pgm", scanpaths=sps)],
        root=root,
    )
    save_manifest(man, root / "manifest.json")
    return load_manifest(root / "manifest.json")


class TestLengthStats:
    def test_uniform_lengths(self, tmp_path):
        st = length_stats(stats_dataset(tmp_path, [8, 8, 8, 8]))
        assert st["mean"] == 8.0
        assert st["median"] == 8
        assert st["mode"] == 8
        assert st["histogram"] == {"8": 4}

    def test_mixed_lengths(self, tmp_path):
        st = length_stats(stats_dataset(tmp_path, [7, 8, 8, 9]))
        assert st["mean"] == 8.0
        assert st["median"] == 8
        assert st["mode"] == 8
        assert st["histogram"] == {"7": 1, "8": 2, "9": 1}

    def test_mode_tie_takes_smallest(self, tmp_path):
        st = length_stats(stats_dataset(tmp_path, [9, 7, 9, 7]))
        assert st["mode"] == 7

    def test_counting_oracle_on_generated_manifest(self, tmp_path):
        # 250 images x 2 scanpaths = 500 paths; recount from the files
        man = generate_synthetic(
            250, seed=11, size=(32, 32), out_dir=tmp_path,
            scanpaths_per_image=2,
            length_weights={6: 1.0, 8: 2.0, 10: 1.0},
        )
        lengths = []
        for i in range(len(man)):
            for rel in man.records[i].scanpaths:
                lengths.append(read_scanpath_csv(man.root / rel).shape[0])
        assert len(lengths) == 500
        st = length_stats(man)
        assert st["mean"] == pytest.approx(np.mean(lengths))
        assert st["median"] == int(np.median(lengths))
        counts = {n: lengths.count(n) for n in set(lengths)}
        best = max(counts.values())
        assert st["mode"] == min(n for n, c in counts.items() if c == best)
        assert st["histogram"] == {str(n): c for n, c in sorted(counts.items())}

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(
            {"name": "none", "width": 8, "height": 8, "records": []}
        ))
        with pytest.raises(ContractError, match="no scanpaths"):
            length_stats(load_manifest(p))


# -- resampling -----------------------------------------------------------

class TestResample:
    def test_identity_returns_equal_copy(self, rng):
        src = rng.random((5, 7)).astype(np.float32)
        out = resample_map(src, 7, 5)
        assert np.array_equal(out, src)
        out[0, 0] = -1.0    # must not alias the input
        assert src[0, 0] != -1.0

    def test_constant_map_stays_constant(self):
        out = resample_map(np.full((4, 4), 0.625, dtype=np.float32), 8, 8)
        assert np.allclose(out, 0.625, atol=1e-7)

    def test_matches_bilinear_oracle(self, rng):
        src = rng.random((4, 4)).astype(np.float32)
        out = resample_map(src, 8, 8)
        assert out.shape == (8, 8)
        assert np.abs(out - bilinear_oracle(src, 8, 8)).max() < 1e-6

    def test_downsample_matches_oracle(self, rng):
        src = rng.random((9, 11)).astype(np.float32)
        out = resample_map(src, 5, 3)
        assert np.abs(out - bilinear_oracle(src, 3, 5)).max() < 1e-6

    @pytest.mark.parametrize("src_shape, target", [
        ((4, 6), (1, 1)), ((4, 6), (5, 1)), ((4, 6), (1, 3)),
        ((1, 1), (5, 3)), ((1, 1), (1, 4)), ((1, 5), (3, 4)), ((5, 1), (4, 3))])
    def test_single_row_column_or_pixel_matches_oracle(self, rng, src_shape, target):
        # a one-sample axis reads the first row or column; a one-pixel
        # source spreads its value over the target
        src = rng.random(src_shape).astype(np.float32)
        out = resample_map(src, *target)
        assert out.shape == target[::-1]
        assert np.abs(out - bilinear_oracle(src, target[1], target[0])).max() < 1e-6

    def test_corners_are_anchored(self, rng):
        src = rng.random((4, 6)).astype(np.float32)
        out = resample_map(src, 13, 9)
        assert out[0, 0] == pytest.approx(src[0, 0])
        assert out[0, -1] == pytest.approx(src[0, -1])
        assert out[-1, 0] == pytest.approx(src[-1, 0])
        assert out[-1, -1] == pytest.approx(src[-1, -1])

    def test_range_never_exceeds_source(self, rng):
        # convex combinations cannot overshoot the source extrema
        src = rng.random((6, 6)).astype(np.float32)
        out = resample_map(src, 14, 17)
        assert out.min() >= src.min() - 1e-7
        assert out.max() <= src.max() + 1e-7

    def test_stimulus_resample_is_per_channel(self, rng):
        src = rng.random((3, 4, 4)).astype(np.float32)
        out = resample_stimulus(src, 8, 8)
        assert out.shape == (3, 8, 8)
        for c in range(3):
            assert np.array_equal(out[c], resample_map(src[c], 8, 8))

    def test_rank_validated(self):
        with pytest.raises(DimensionError):
            resample_map(np.zeros((2, 2, 2)), 4, 4)
        with pytest.raises(DimensionError):
            resample_stimulus(np.zeros((4, 4)), 8, 8)

    @pytest.mark.parametrize("shape", [(1, 4, 4), (4, 4, 3)], ids=["one-channel", "channels-last"])
    def test_stimulus_must_have_three_channels_first(self, shape):
        with pytest.raises(DimensionError, match=r"resample_stimulus: rgb must be \[3, H, W\]"):
            resample_stimulus(np.zeros(shape), 8, 8)


# -- synthetic generator --------------------------------------------------

class TestGenerateSynthetic:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(4, seed=7, size=(32, 32), out_dir=a)
        generate_synthetic(4, seed=7, size=(32, 32), out_dir=b)
        da, db = tree_digest(a), tree_digest(b)
        assert da == db
        assert len(da) == 1 + 4 * (2 + 2)   # manifest + per-image files

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(2, seed=0, size=(32, 32), out_dir=a)
        generate_synthetic(2, seed=1, size=(32, 32), out_dir=b)
        assert tree_digest(a) != tree_digest(b)

    def test_returned_manifest_matches_disk(self, tmp_path):
        man = generate_synthetic(3, seed=2, size=(40, 24), out_dir=tmp_path)
        back = load_manifest(tmp_path / "manifest.json")
        assert back.to_dict() == man.to_dict()
        assert (man.width, man.height) == (40, 24)
        assert len(man) == 3

    def test_maps_are_normalized(self, tmp_path):
        man = generate_synthetic(6, seed=3, size=(32, 32), out_dir=tmp_path)
        for i in range(len(man)):
            gm = man.load_map(i)
            assert gm.max() == np.float32(1.0)
            assert gm.min() >= 0.0

    def test_scanpaths_sized_and_in_bounds(self, tmp_path):
        man = generate_synthetic(5, seed=4, size=(48, 32), out_dir=tmp_path)
        for i in range(len(man)):
            sps = man.load_scanpaths(i)
            assert len(sps) == 2
            for sp in sps:
                assert len(sp.points) == 8          # default length
                assert sp.points.min() >= 0.0
                assert sp.points.max() <= 1.0

    def test_length_weights_control_support(self, tmp_path):
        man = generate_synthetic(
            30, seed=5, size=(32, 32), out_dir=tmp_path,
            length_weights={5: 1.0, 11: 1.0},
        )
        seen = {
            len(sp.points)
            for i in range(len(man)) for sp in man.load_scanpaths(i)
        }
        assert seen == {5, 11}

    def test_min_center_dist_pushes_peaks_outward(self, tmp_path):
        # dominant blob center is rejected within the radius, so the map
        # peak lands well away from the image center
        man = generate_synthetic(
            8, seed=6, size=(48, 48), out_dir=tmp_path, min_center_dist=0.35,
        )
        for i in range(len(man)):
            gm = man.load_map(i)
            r, c = np.unravel_index(int(np.argmax(gm)), gm.shape)
            assert np.hypot(c / 47.0 - 0.5, r / 47.0 - 0.5) > 0.2

    def test_fixations_land_in_salient_half(self, tmp_path):
        # points are blob-centered by construction: over many seeds they
        # fall on pixels at or above the map's median almost always
        total = inside = 0
        for seed in range(100):
            sub = tmp_path / f"s{seed}"
            man = generate_synthetic(1, seed=seed, size=(32, 32), out_dir=sub)
            gm = man.load_map(0)
            keep = gm >= np.percentile(gm, 50.0)
            for sp in man.load_scanpaths(0):
                rc = norm_to_pixel(sp.points, 32, 32)
                total += rc.shape[0]
                inside += int(keep[rc[:, 0], rc[:, 1]].sum())
        assert inside / total > 0.9

    def test_stimuli_reflect_map_topology(self, tmp_path):
        # warm channel tracks the map: red correlates positively, blue
        # negatively, on every generated image
        man = generate_synthetic(6, seed=8, size=(32, 32), out_dir=tmp_path)
        for i in range(len(man)):
            img = man.load_stimulus(i)
            gm = man.load_map(i).ravel().astype(np.float64)
            red = img[0].ravel().astype(np.float64)
            blue = img[2].ravel().astype(np.float64)
            assert np.corrcoef(red, gm)[0, 1] > 0.5
            assert np.corrcoef(blue, gm)[0, 1] < -0.5

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ContractError, match="out_dir"):
            generate_synthetic(2, seed=0, size=(32, 32), out_dir=None)
        with pytest.raises(ContractError, match="n must be >= 1"):
            generate_synthetic(0, seed=0, size=(32, 32), out_dir=tmp_path)
        with pytest.raises(ContractError, match="size too small"):
            generate_synthetic(1, seed=0, size=(4, 4), out_dir=tmp_path)
        with pytest.raises(ContractError, match="scanpaths_per_image"):
            generate_synthetic(
                1, seed=0, size=(32, 32), out_dir=tmp_path, scanpaths_per_image=0
            )
        with pytest.raises(ContractError, match="lengths must be >= 2"):
            generate_synthetic(
                1, seed=0, size=(32, 32), out_dir=tmp_path, length_weights={1: 1.0}
            )

    @pytest.mark.parametrize("weights", [
        {8: 0.0}, {8: -1.0, 6: 2.0}, {8: float("nan")}, {8: float("inf")},
    ], ids=["zero-sum", "negative", "nan", "inf"])
    def test_bad_length_weights_rejected(self, tmp_path, weights):
        with pytest.raises(ContractError, match="length weights"):
            generate_synthetic(1, seed=0, size=(32, 32), out_dir=tmp_path,
                               length_weights=weights)
        assert not any(tmp_path.iterdir())
