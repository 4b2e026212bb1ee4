"""Release gate: nine numbered criteria covering the gradient engine, the
model's exactness properties, the metric oracles, desk-scale training, and
the file formats. Each test prints one `[criterion N] ... PASS/FAIL` line
on the live terminal in addition to its asserts.

Criteria 6 and 7 share one real training run (the CLI `train` command with
the desk preset on 64 synthetic images), so the module takes a couple of
minutes end to end.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import away_from_zero, distinct_values, gradcheck
from test_attention import _margin, new_gate
from test_saliency_metrics import auc_judd_oracle, cc_oracle, sim_oracle
from test_scanpath_metrics import align_oracle

from salypath.attention import attend, channel_attention, spatial_attention
from salypath.checkpoint import load_checkpoint, save_checkpoint
from salypath.cli import main
from salypath.data import (
    DatasetManifest,
    ManifestRecord,
    load_manifest,
    read_pgm,
    read_ppm,
    read_scanpath_csv,
    save_manifest,
    write_pgm,
    write_ppm,
    write_scanpath_csv,
)
from salypath.losses import LossWeights, kldiv, mse_map, saliency_loss, scanpath_loss
from salypath.model import ModelConfig, SalypathModel, soft_argmax
from salypath.saliency_metrics import auc_borji, auc_judd, cc, kld, nss, sim
from salypath.scanpath_metrics import align, multimatch, to_saccades
from salypath.tensor import ConvLayer, Tensor, conv2d, maxpool2, upsample2


def announce(capsys, num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


# -- criterion 1: finite-difference gradient suite ---------------------------

def _readout(rng, shape):
    # normalized so the scalar loss stays O(1); float32 roundoff in the
    # central differences scales with |loss| and must stay well under the
    # 1e-3 acceptance bar
    n = int(np.prod(shape))
    return Tensor((rng.uniform(0.5, 1.5, shape) / n).astype(np.float32))


def _conv_instance(rng):
    b, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.choice([1, 3]))
    rng.choice([1, 2])  # unused; keeps this instance's shapes and values fixed
    rng.choice([0, 1])  # unused padding draw, likewise
    h, w = rng.integers(k + 2, k + 5), rng.integers(k + 2, k + 5)
    x = Tensor(rng.normal(scale=0.5, size=(b, cin, h, w)).astype(np.float32),
               requires_grad=True)
    wt = Tensor(rng.normal(scale=0.5, size=(cout, cin, k, k)).astype(np.float32),
                requires_grad=True)
    bt = Tensor(rng.normal(scale=0.2, size=cout).astype(np.float32), requires_grad=True)
    layer = ConvLayer(wt, bt)
    c = _readout(rng, conv2d(x, layer).shape)
    return lambda: (conv2d(x, layer) * c).sum(), [x, wt, bt]


def _attend_instances(n):
    """(x, gate, parameter table) triples screened so no relu kink or pooling tie sits within
    finite-difference reach of the probe."""
    out = []
    for seed in range(4000):
        rng = np.random.default_rng(seed)
        x = distinct_values(rng, (1, 4, 6, 6))
        gate, params = new_gate(4, 2, 3, seed=seed + 7000)
        gate.gamma.data[...] = 0.7
        if _margin(x, gate) > 8e-3:
            out.append((x, gate, params))
            if len(out) == n:
                return out
    raise AssertionError(f"only {len(out)} screened attention instances found")


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    n_checks = 0

    for seed in range(20):
        rng = np.random.default_rng(100 + seed)

        fn, tensors = _conv_instance(rng)
        worst = max(worst, gradcheck(fn, tensors))

        x = Tensor(distinct_values(rng, (1, 2, 4, 6)), requires_grad=True)
        c = _readout(rng, (1, 2, 2, 3))
        worst = max(worst, gradcheck(lambda: (maxpool2(x) * c).sum(), [x]))

        x = Tensor(rng.normal(size=(1, 2, 3, 4)).astype(np.float32), requires_grad=True)
        c = _readout(rng, (1, 2, 6, 8))
        worst = max(worst, gradcheck(lambda: (upsample2(x) * c).sum(), [x]))

        x = Tensor(away_from_zero(rng, (3, 7)), requires_grad=True)
        c = _readout(rng, (3, 7))
        worst = max(worst, gradcheck(lambda: (x.relu() * c).sum(), [x]))

        x = Tensor(rng.normal(size=(3, 7)).astype(np.float32), requires_grad=True)
        c = _readout(rng, (3, 7))
        worst = max(worst, gradcheck(lambda: (x.sigmoid() * c).sum(), [x]))

        x = Tensor(rng.normal(size=(1, 2, 4, 5)).astype(np.float32), requires_grad=True)
        c = _readout(rng, (1, 2, 2))
        worst = max(worst, gradcheck(lambda: (soft_argmax(x, beta=3.0) * c).sum(), [x]))

        pred = Tensor(rng.uniform(0.1, 1.0, (5, 5)).astype(np.float32),
                      requires_grad=True)
        gt = rng.uniform(0.1, 1.0, (5, 5)).astype(np.float32)
        fix = np.zeros((5, 5))
        fix[rng.integers(0, 5, 2), rng.integers(0, 5, 2)] = 1.0
        worst = max(worst, gradcheck(lambda: saliency_loss(pred, gt, np.argwhere(fix)),
                                     [pred]))

        pts = Tensor(rng.uniform(0.1, 0.9, (8, 2)).astype(np.float32),
                     requires_grad=True)
        gt_pts = rng.uniform(0.1, 0.9, (8, 2)).astype(np.float32)
        worst = max(worst, gradcheck(lambda: scanpath_loss(pts, gt_pts), [pts]))
        n_checks += 8

    for x, gate, params in _attend_instances(20):
        xt = Tensor(x.copy(), requires_grad=True)
        c = _readout(np.random.default_rng(0), x.shape)
        worst = max(worst, gradcheck(lambda: (attend(xt, gate) * c).sum(),
                                     [xt, *params.values()]))
        n_checks += 1

    dt = time.perf_counter() - t0
    announce(capsys, 1, "gradient suite", worst < 1e-3 and dt < 60.0,
             f"9 ops x 20 instances, {n_checks} checks, "
             f"worst rel err {worst:.2e}, {dt:.1f}s")


# -- criterion 2: soft-argmax exactness -------------------------------------

def test_criterion_2_soft_argmax_exactness(capsys):
    uniform = soft_argmax(Tensor(np.zeros((1, 1, 4, 4), np.float32)), beta=1.0)
    err_uniform = float(np.abs(uniform.data - 0.375).max())

    err_peak = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        x = distinct_values(rng, (1, 2, 5, 7))
        pts = soft_argmax(Tensor(x), beta=1e3).data
        for ch in range(2):
            j, i = np.unravel_index(np.argmax(x[0, ch]), (5, 7))
            err_peak = max(err_peak,
                           abs(pts[0, ch, 0] - i / 7.0),
                           abs(pts[0, ch, 1] - j / 5.0))

    # direct expectation over the plane, same float32 arithmetic, no
    # autodiff machinery involved
    err_direct = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        got = soft_argmax(Tensor(x), beta=1.0).data[0, 0]
        z = np.float32(1.0) * x[0, 0]
        z = z - z.max()
        e = np.exp(z)
        p = e / e.sum()
        xs = (np.arange(3, dtype=np.float32) / np.float32(3)).reshape(1, 3)
        ys = (np.arange(3, dtype=np.float32) / np.float32(3)).reshape(3, 1)
        want = np.array([(p * xs).sum(), (p * ys).sum()])
        err_direct = max(err_direct, float(np.abs(got - want).max()))

    ok = err_uniform < 1e-9 and err_peak < 1e-3 and err_direct < 1e-9
    announce(capsys, 2, "soft-argmax exactness", ok,
             f"uniform {err_uniform:.1e}, peak {err_peak:.1e}, "
             f"direct sum {err_direct:.1e}")


# -- criterion 3: attention identity and range --------------------------------

def test_criterion_3_attention_identity(capsys):
    exact_identity = True
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        gate, _ = new_gate(4, 2, 3, seed=seed)
        assert float(gate.gamma.data) == 0.0     # fresh gate is an identity
        out = attend(Tensor(x), gate).data
        exact_identity &= bool(np.array_equal(out, x))

    in_range = True
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        gate, _ = new_gate(4, 2, 3, seed=seed)
        ch = channel_attention(Tensor(x), gate).data
        sp = spatial_attention(Tensor(x), gate).data
        in_range &= bool((ch > 0).all() and (ch < 1).all())
        in_range &= bool((sp > 0).all() and (sp < 1).all())

    announce(capsys, 3, "attention identity", exact_identity and in_range,
             "gamma=0 output bitwise equal on 20 inputs; "
             "weights strictly in (0,1) on 100 inputs")


# -- criterion 4: saliency-metric oracles -------------------------------------

def test_criterion_4_saliency_metric_oracles(capsys):
    worst_oracle = 0.0
    worst_rank = 0.0
    for seed in range(50):
        rng = np.random.default_rng(600 + seed)
        m = rng.uniform(size=(5, 5))
        k = int(rng.integers(1, 6))
        pts = np.stack([rng.integers(0, 5, k), rng.integers(0, 5, k)], axis=1)

        worst_oracle = max(worst_oracle, abs(auc_judd(m, pts) - auc_judd_oracle(m, pts)))
        z = (m - m.mean()) / m.std()
        nss_want = float(np.mean([z[r, c] for r, c in pts]))
        worst_oracle = max(worst_oracle, abs(nss(m, pts) - nss_want))

        g = rng.uniform(size=(5, 5))
        worst_oracle = max(worst_oracle, abs(cc(m, g) - cc_oracle(m, g)))
        worst_oracle = max(worst_oracle, abs(sim(m, g) - sim_oracle(m, g)))
        eps = 1e-8
        pn = m / (m.sum() + eps)
        gn = g / (g.sum() + eps)
        kld_want = float((gn * np.log((gn + eps) / (pn + eps))).sum())
        worst_oracle = max(worst_oracle, abs(kld(m, g) - kld_want))

        worst_rank = max(worst_rank, abs(auc_judd(m ** 3, pts) - auc_judd(m, pts)))
        worst_rank = max(
            worst_rank,
            abs(auc_borji(m ** 3, pts, n_splits=20, rng_seed=seed)
                - auc_borji(m, pts, n_splits=20, rng_seed=seed)),
        )

    flat = auc_judd(np.full((6, 6), 0.4), np.array([[1, 1], [4, 2]]))
    ok = worst_oracle < 1e-9 and worst_rank < 1e-12 and flat == 0.5
    announce(capsys, 4, "saliency metric oracles", ok,
             f"50 maps: oracle gap {worst_oracle:.1e}, "
             f"rank invariance {worst_rank:.1e}, constant map {flat}")


# -- criterion 5: scanpath alignment oracles ----------------------------------

def test_criterion_5_multimatch_oracles(capsys):
    self_exact = True
    in_unit = True
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        a = rng.uniform(0.05, 0.95, size=(8, 2))
        s = multimatch(a, a)
        self_exact &= (s.shape, s.direction, s.length, s.position) == (1.0, 1.0, 1.0, 1.0)
        b = rng.uniform(0.05, 0.95, size=(8, 2))
        t = multimatch(a, b)
        for v in (t.shape, t.direction, t.length, t.position, t.mean):
            in_unit &= 0.0 <= v <= 1.0

    align_exact = True
    for seed in range(50):
        rng = np.random.default_rng(800 + seed)
        na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        pa = rng.uniform(size=(na + 1, 2))
        pb = rng.uniform(size=(nb + 1, 2))
        (_, ua), (_, vb) = to_saccades(pa), to_saccades(pb)
        got = align(ua, vb)
        want_path, want_cost = align_oracle(ua, vb)
        got_cost = sum(float(np.linalg.norm(np.subtract(ua[i], vb[j])))
                       for i, j in got[1:])
        align_exact &= list(got) == list(want_path)
        align_exact &= abs(got_cost - want_cost) < 1e-12

    ok = self_exact and in_unit and align_exact
    announce(capsys, 5, "multimatch oracles", ok,
             "self-similarity exact on 100 paths; alignment matches "
             "exhaustive enumeration on 50 cases up to 5x6")


# -- criteria 6 and 7: one desk-scale training run ------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk-run")
    assert main(["gen-synth", "--n", "64", "--seed", "0", "--size", "64x64",
                 "--out", str(root / "train"), "--min-center-dist", "0.25"]) == 0
    assert main(["gen-synth", "--n", "32", "--seed", "1", "--size", "64x64",
                 "--out", str(root / "held"), "--min-center-dist", "0.25"]) == 0

    run = {}
    for tag in ("a", "b"):
        t0 = time.perf_counter()
        rc = main(["train", "--data", str(root / "train" / "manifest.json"),
                   "--out", str(root / f"model-{tag}.ckpt"), "--preset", "desk",
                   "--report", str(root / f"report-{tag}.json"), "--seed", "0"])
        assert rc == 0
        run[tag] = {
            "wall": time.perf_counter() - t0,
            "ckpt": root / f"model-{tag}.ckpt",
            "report": json.loads((root / f"report-{tag}.json").read_text()),
        }

    run["train"] = load_manifest(root / "train" / "manifest.json")
    held = load_manifest(root / "held" / "manifest.json")
    pred = root / "pred"
    pred.mkdir()
    for i in range(len(held)):
        iid = held.image_id(i)
        assert main(["predict", "--checkpoint", str(run["a"]["ckpt"]),
                     "--image", str(held.stimulus_path(i)),
                     "--out-map", str(pred / f"{iid}.pgm"),
                     "--out-scanpath", str(pred / f"{iid}.csv")]) == 0

    # baselines: a shared center-prior map and seeded uniform-random paths;
    # seeded centre paths, (31.5, 31.5) plus 3-px normal jitter per point
    # (a constant path has no extent, which multimatch rejects); and greedy
    # inhibition of return on the model's own map: its 8 highest peaks, each
    # suppressing an 8-px radius around it (Itti, Koch & Niebur 1998)
    base, centre, ior = root / "base", root / "centre", root / "ior"
    for d in (base, centre, ior):
        d.mkdir()
    rng = np.random.default_rng(99)
    centre_rng = np.random.default_rng(98)
    yy, xx = np.mgrid[0:64, 0:64]
    blob = np.exp(-(((xx - 31.5) / 64) ** 2 + ((yy - 31.5) / 64) ** 2)
                  / (2 * 0.25 ** 2))
    for i in range(len(held)):
        iid = held.image_id(i)
        write_pgm(base / f"{iid}.pgm", blob / blob.max())
        write_scanpath_csv(base / f"{iid}.csv", rng.random((8, 2)) * 63)
        write_scanpath_csv(centre / f"{iid}.csv",
                           np.clip(31.5 + centre_rng.normal(scale=3.0, size=(8, 2)), 0, 63))
        smap = read_pgm(pred / f"{iid}.pgm").astype(np.float64)
        peaks = []
        for _ in range(8):
            r, c = np.unravel_index(np.argmax(smap), smap.shape)
            peaks.append((c, r))
            smap[(yy - r) ** 2 + (xx - c) ** 2 <= 8 ** 2] = -np.inf
        write_scanpath_csv(ior / f"{iid}.csv", np.array(peaks, dtype=np.float64))

    reports = {}
    runs = [("saliency", "model", pred), ("saliency", "baseline", base)]
    runs += [("scanpath", tag, pdir) for tag, pdir in
             (("model", pred), ("baseline", base), ("centre", centre), ("ior", ior))]
    for kind, tag, pdir in runs:
        out = root / f"{kind}-{tag}.csv"
        assert main([f"eval-{kind}",
                     "--manifest", str(root / "held" / "manifest.json"),
                     "--pred-dir", str(pdir), "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[-1][0] == "MEAN"
        reports[(kind, tag)] = dict(zip(rows[0], rows[-1]))
    run["reports"] = reports
    return run


def _kl_mse_part(model: SalypathModel, manifest) -> float:
    """Mean weighted KL + MSE of the model's maps over a manifest: the
    phase-1 loss without its NSS reward, so it stays positive and a ratio
    of it keeps its meaning."""
    w = LossWeights()
    total = 0.0
    for i in range(len(manifest)):
        smap, _ = model.forward(manifest.load_stimulus(i))
        gt = manifest.load_map(i)
        total += w.kl_w * kldiv(smap, gt).item() + w.mse_w * mse_map(smap, gt).item()
    return total / len(manifest)


def test_criterion_6_desk_training_convergence(desk_run, capsys):
    ra, rb = desk_run["a"]["report"], desk_run["b"]["report"]
    l1 = ra["phase1"]["epoch_losses"]
    l2 = ra["phase2"]["epoch_losses"]
    r1, r2 = l1[-1] / l1[0], l2[-1] / l2[0]
    # l1 includes -0.1 * NSS and crosses zero, so r1 < 0.5 alone passes
    # any run whose loss goes negative; the KL + MSE ratio cannot
    k0 = _kl_mse_part(SalypathModel(ModelConfig.desk(), seed=0), desk_run["train"])
    k1 = _kl_mse_part(SalypathModel.load(desk_run["a"]["ckpt"]), desk_run["train"])
    rk = k1 / k0
    wall = desk_run["a"]["wall"]
    repro = all(ra[ph][k] == rb[ph][k]
                for ph in ("phase1", "phase2")
                for k in ("epoch_losses", "lrs", "n_samples"))
    repro &= desk_run["a"]["ckpt"].read_bytes() == desk_run["b"]["ckpt"].read_bytes()
    ok = r1 < 0.5 and rk < 0.5 and r2 < 0.6 and wall < 600.0 and repro
    announce(capsys, 6, "desk training convergence", ok,
             f"L1 {l1[0]:.3f}->{l1[-1]:.3f} (ratio {r1:.2f} < 0.5), "
             f"KL+MSE part {k0:.3f}->{k1:.3f} (ratio {rk:.2f} < 0.5), "
             f"L2 {l2[0]:.3f}->{l2[-1]:.3f} (ratio {r2:.2f} < 0.6), "
             f"{wall:.0f}s < 600s, rerun identical: {repro}")


def test_criterion_7_beats_baselines(desk_run, capsys):
    # gates: cc over the centre-prior map; mm_mean over random paths; and
    # mm_mean and NSS over centre paths. The inhibition-of-return path reads
    # the model's own map, so its margins are printed, not gated.
    rep = desk_run["reports"]
    cc_model = float(rep[("saliency", "model")]["cc"])
    cc_base = float(rep[("saliency", "baseline")]["cc"])
    path = {tag: {k: float(rep[("scanpath", tag)][k]) for k in ("mm_mean", "nss", "congruency")}
            for tag in ("model", "baseline", "centre", "ior")}
    model = path["model"]

    def margins(tag, keys):
        return ", ".join(f"{k} {model[k]:.3f} vs {path[tag][k]:.3f} "
                         f"({model[k] - path[tag][k]:+.3f})" for k in keys)

    ok = (cc_model > cc_base and model["mm_mean"] > path["baseline"]["mm_mean"]
          and model["mm_mean"] > path["centre"]["mm_mean"]
          and model["nss"] > path["centre"]["nss"])
    announce(capsys, 7, "beats baselines on held-out split", ok,
             f"cc {cc_model:.3f} vs center-prior {cc_base:.3f} ({cc_model - cc_base:+.3f}); "
             f"random path: {margins('baseline', ('mm_mean',))}; "
             f"centre path: {margins('centre', ('mm_mean', 'nss'))}; "
             f"inhibition of return, not gated: "
             f"{margins('ior', ('mm_mean', 'nss', 'congruency'))}")


# -- criterion 8: byte-exact format round trips ---------------------------------

def test_criterion_8_format_round_trips(capsys, tmp_path):
    all_equal = True
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        d = tmp_path / f"case{seed}"
        d.mkdir()

        write_pgm(d / "a.pgm", rng.random((6, 7)))
        write_pgm(d / "b.pgm", read_pgm(d / "a.pgm"))
        all_equal &= (d / "a.pgm").read_bytes() == (d / "b.pgm").read_bytes()

        write_ppm(d / "a.ppm", rng.random((3, 5, 4)))
        write_ppm(d / "b.ppm", read_ppm(d / "a.ppm"))
        all_equal &= (d / "a.ppm").read_bytes() == (d / "b.ppm").read_bytes()

        write_scanpath_csv(d / "a.csv", rng.random((8, 2)) * 63)
        write_scanpath_csv(d / "b.csv", read_scanpath_csv(d / "a.csv"))
        all_equal &= (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()

        write_ppm(d / "s.ppm", rng.random((3, 4, 4)))
        write_pgm(d / "m.pgm", rng.random((4, 4)))
        write_scanpath_csv(d / "p.csv", rng.random((4, 2)) * 3)
        man = DatasetManifest(
            name=f"case{seed}", width=4, height=4,
            records=[ManifestRecord(stimulus="s.ppm", map="m.pgm",
                                    scanpaths=["p.csv"])],
            root=d,
        )
        save_manifest(man, d / "a.json")
        save_manifest(load_manifest(d / "a.json"), d / "b.json")
        all_equal &= (d / "a.json").read_bytes() == (d / "b.json").read_bytes()

        arrays = [rng.normal(size=(3, 2)).astype(np.float32),
                  rng.normal(size=3).astype(np.float32), np.float32(rng.normal())]
        save_checkpoint(d / "a.ckpt", arrays, {"seed": seed})
        values, cfg = load_checkpoint(d / "a.ckpt")
        save_checkpoint(d / "b.ckpt", [values], cfg)
        all_equal &= (d / "a.ckpt").read_bytes() == (d / "b.ckpt").read_bytes()

    announce(capsys, 8, "format round trips", all_equal,
             "pgm/ppm/csv/manifest/checkpoint byte-identical on 20 seeded cases")


# -- criterion 9: length statistics -----------------------------------------------

def test_criterion_9_length_mode(capsys, tmp_path):
    assert main(["gen-synth", "--n", "30", "--seed", "3", "--size", "32x32",
                 "--out", str(tmp_path),
                 "--length-weights", "7:0.25,8:0.5,9:0.25"]) == 0
    rc = main(["stats", "--manifest", str(tmp_path / "manifest.json")])
    assert rc == 0
    out = capsys.readouterr().out
    st = json.loads(out[out.index("{"):])
    ok = st["mode"] == 8
    announce(capsys, 9, "scanpath length statistics", ok,
             f"60 generated paths, histogram {st['histogram']}, mode {st['mode']}")
