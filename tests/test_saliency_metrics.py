"""Saliency metric battery against exhaustive and loop oracles, rank- and
affine-invariance properties, and degenerate-input error contracts."""

import itertools

import numpy as np
import pytest

from salypath.errors import ContractError, DimensionError
from salypath.saliency_metrics import auc_borji, auc_judd, cc, kld, nss, sim


# -- oracles ----------------------------------------------------------------

def roc_oracle(pos, neg, thresholds):
    """Trapezoid area of the (fp, tp) polyline swept over the given
    thresholds, descending, with (0,0) and (1,1) endpoints."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    pts = [(0.0, 0.0)]
    for t in sorted(set(thresholds), reverse=True):
        pts.append((float((neg >= t).mean()), float((pos >= t).mean())))
    pts.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_judd_oracle(m, pts):
    m = np.asarray(m, dtype=np.float64)
    fixated = np.zeros(m.shape, dtype=bool)
    fixated[pts[:, 0], pts[:, 1]] = True
    pos = m[pts[:, 0], pts[:, 1]]
    neg = m[~fixated]
    return roc_oracle(pos, neg, pos.tolist())


def auc_borji_oracle(m, pts, n_splits, seed):
    m = np.asarray(m, dtype=np.float64)
    fixated = np.zeros(m.shape, dtype=bool)
    fixated[pts[:, 0], pts[:, 1]] = True
    pos = m[pts[:, 0], pts[:, 1]]
    pool = m[~fixated]
    rng = np.random.default_rng(seed)
    areas = []
    for _ in range(n_splits):
        neg = rng.choice(pool, size=pos.size, replace=True)
        areas.append(roc_oracle(pos, neg, pos.tolist()))
    return float(np.mean(areas))


def roc_loop(pos_vals, neg_vals):
    """The threshold-by-threshold Judd sweep, kept as a bit-exact oracle
    for the array sweep: one pair of reductions per threshold."""
    thresholds = np.unique(pos_vals)[::-1]
    tp = [0.0]
    fp = [0.0]
    for t in thresholds:
        tp.append(float((pos_vals >= t).mean()))
        fp.append(float((neg_vals >= t).mean()))
    tp.append(1.0)
    fp.append(1.0)
    return float(np.trapezoid(tp, fp))


def split_pos_neg(m, pts):
    m = np.asarray(m, dtype=np.float64)
    fixated = np.zeros(m.shape, dtype=bool)
    fixated[pts[:, 0], pts[:, 1]] = True
    return m[pts[:, 0], pts[:, 1]], m[~fixated]


def auc_judd_loop(m, pts):
    return roc_loop(*split_pos_neg(m, pts))


def auc_borji_loop(m, pts, n_splits, seed):
    """One draw and one loop sweep per split, as a bit-exact oracle."""
    pos, pool = split_pos_neg(m, pts)
    rng = np.random.default_rng(seed)
    areas = np.empty(n_splits, dtype=np.float64)
    for s in range(n_splits):
        areas[s] = roc_loop(pos, rng.choice(pool, size=pos.size, replace=True))
    return float(areas.mean())


def cc_oracle(p, g):
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    pc = p - p.mean()
    gc = g - g.mean()
    return float((pc * gc).sum() / np.sqrt((pc * pc).sum() * (gc * gc).sum()))


def sim_oracle(p, g):
    p = np.asarray(p, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    p = p / p.sum()
    g = g / g.sum()
    return float(sum(min(a, b) for a, b in zip(p.reshape(-1), g.reshape(-1))))


# -- auc_judd -------------------------------------------------------------------

def test_auc_judd_perfect_separation():
    m = np.zeros((5, 5))
    pts = np.array([[0, 0], [2, 3], [4, 4]])
    m[pts[:, 0], pts[:, 1]] = 1.0
    assert auc_judd(m, pts) == 1.0


def test_auc_judd_constant_map_is_half(rng):
    m = np.full((6, 6), 0.3)
    pts = np.array([[1, 1], [2, 4], [5, 0]])
    assert auc_judd(m, pts) == 0.5


def test_auc_judd_matches_exhaustive_oracle(rng):
    for trial in range(25):
        m = rng.uniform(size=(5, 5))
        k = int(rng.integers(1, 6))
        flat = rng.choice(25, size=k, replace=False)
        pts = np.stack([flat // 5, flat % 5], axis=1)
        got = auc_judd(m, pts)
        want = auc_judd_oracle(m, pts)
        assert abs(got - want) < 1e-9, trial


def test_auc_judd_rank_invariance(rng):
    m = rng.uniform(0.1, 0.9, size=(7, 7))
    pts = np.array([[0, 3], [2, 2], [6, 5], [4, 1]])
    base = auc_judd(m, pts)
    assert abs(auc_judd(m ** 3, pts) - base) < 1e-12
    assert abs(auc_judd(2.0 * m + 1.0, pts) - base) < 1e-12


def test_auc_judd_errors(rng):
    m = rng.uniform(size=(3, 3))
    with pytest.raises(ContractError):
        auc_judd(m, np.zeros((0, 2), np.int64))
    with pytest.raises(ContractError):
        auc_judd(m, np.stack(np.unravel_index(np.arange(9), (3, 3)), axis=1))
    with pytest.raises(ContractError):
        auc_judd(m, np.array([[5, 5]]))  # out of bounds


# -- auc_borji -------------------------------------------------------------------

def test_auc_borji_perfect_separation_any_seed():
    m = np.zeros((5, 5))
    pts = np.array([[1, 1], [3, 2]])
    m[pts[:, 0], pts[:, 1]] = 1.0
    for seed in (0, 1, 17):
        assert auc_borji(m, pts, n_splits=20, rng_seed=seed) == 1.0


def test_auc_borji_constant_map_near_half():
    m = np.full((8, 8), 0.4)
    pts = np.array([[2, 2], [5, 6], [7, 1]])
    got = auc_borji(m, pts, n_splits=100, rng_seed=3)
    assert abs(got - 0.5) < 0.05


def test_auc_borji_matches_reference_loop(rng):
    m = rng.uniform(size=(6, 6))
    pts = np.array([[0, 0], [3, 4], [5, 2]])
    got = auc_borji(m, pts, n_splits=25, rng_seed=11)
    want = auc_borji_oracle(m, pts, n_splits=25, seed=11)
    assert abs(got - want) < 1e-9


def test_auc_borji_deterministic_per_seed(rng):
    m = rng.uniform(size=(12, 12))
    flat = rng.choice(144, size=16, replace=False)
    pts = np.stack([flat // 12, flat % 12], axis=1)
    a = auc_borji(m, pts, n_splits=50, rng_seed=7)
    b = auc_borji(m, pts, n_splits=50, rng_seed=7)
    c = auc_borji(m, pts, n_splits=50, rng_seed=8)
    assert a == b
    assert a != c  # different seed, different negative draws


def test_auc_borji_requires_seed(rng):
    m = rng.uniform(size=(4, 4))
    with pytest.raises(ContractError, match="rng_seed"):
        auc_borji(m, np.array([[0, 0]]))


# -- bit-exact against the loop sweeps -------------------------------------------

def _case(rng, h, w, n, levels=255):
    """A map quantized to /levels (so values tie) and n fixations that
    may repeat."""
    m = np.rint(rng.uniform(size=(h, w)) * levels) / levels
    pts = np.stack([rng.integers(0, h, n), rng.integers(0, w, n)], axis=1)
    return m, pts


@pytest.mark.parametrize("n", [1, 2, 7, 8, 79, 80])
def test_auc_judd_bit_exact_against_loop(rng, n):
    for levels in (255, 4):
        m, pts = _case(rng, 24, 32, n, levels)
        assert auc_judd(m, pts) == auc_judd_loop(m, pts)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 79, 80])
@pytest.mark.parametrize("n_splits", [1, 20, 100])
def test_auc_borji_bit_exact_against_loop(rng, n, n_splits):
    for levels in (255, 4):
        m, pts = _case(rng, 24, 32, n, levels)
        seed = int(rng.integers(1 << 31))
        assert auc_borji(m, pts, n_splits=n_splits, rng_seed=seed) == \
            auc_borji_loop(m, pts, n_splits, seed)


def test_auc_bit_exact_with_duplicated_fixations(rng):
    m, pts = _case(rng, 16, 16, 12)
    pts = np.concatenate([pts, pts[:5], pts[:1]])  # repeats count twice
    assert auc_judd(m, pts) == auc_judd_loop(m, pts)
    assert auc_borji(m, pts, n_splits=30, rng_seed=4) == auc_borji_loop(m, pts, 30, 4)


def test_auc_bit_exact_at_benchmark_size(rng):
    # a 256x192 ground-truth grid, 80 fixations, float32 map as read from PGM
    m, pts = _case(rng, 192, 256, 80)
    m = m.astype(np.float32)
    assert auc_judd(m, pts) == auc_judd_loop(m, pts)
    assert auc_borji(m, pts, n_splits=100, rng_seed=9) == auc_borji_loop(m, pts, 100, 9)


@pytest.mark.parametrize("n", [79, 80])
def test_borji_block_draw_is_the_per_split_stream(n):
    pool = np.arange(1000, dtype=np.float64)
    block = np.random.default_rng(1234).choice(pool, size=(100, n), replace=True)
    rng = np.random.default_rng(1234)
    rows = [rng.choice(pool, size=n, replace=True) for _ in range(100)]
    assert np.array_equal(block, np.stack(rows))


# -- nss ----------------------------------------------------------------------------

def test_nss_hand_value_sqrt3():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    got = nss(m, np.array([[0, 0]]))
    assert abs(got - np.sqrt(3.0)) < 1e-12


def test_nss_all_pixels_zero(rng):
    m = rng.uniform(size=(3, 4))
    pts = np.stack(np.unravel_index(np.arange(12), (3, 4)), axis=1)
    assert abs(nss(m, pts)) < 1e-12


def test_nss_matches_loop_oracle(rng):
    m = rng.uniform(size=(7, 5))
    pts = np.array([[0, 1], [3, 3], [6, 4], [3, 3]])  # duplicate counts twice
    z = (m - m.mean()) / m.std()
    want = float(np.mean([z[r, c] for r, c in pts]))
    assert abs(nss(m, pts) - want) < 1e-12


def test_nss_affine_invariance(rng):
    m = rng.uniform(size=(6, 6))
    pts = np.array([[2, 2], [4, 1]])
    base = nss(m, pts)
    assert abs(nss(3.0 * m + 0.7, pts) - base) < 1e-9


def test_nss_zero_variance_raises():
    with pytest.raises(ContractError, match="variance"):
        nss(np.full((4, 4), 0.2), np.array([[1, 1]]))


# -- cc -----------------------------------------------------------------------------

def test_cc_identical_is_one(rng):
    m = rng.uniform(size=(5, 5))
    assert abs(cc(m, m.copy()) - 1.0) < 1e-12


def test_cc_anticorrelated_is_minus_one(rng):
    m = rng.uniform(size=(5, 5))
    assert abs(cc(1.0 - m, m) + 1.0) < 1e-12


def test_cc_matches_formula_oracle(rng):
    p = rng.uniform(size=(6, 8))
    g = rng.uniform(size=(6, 8))
    assert abs(cc(p, g) - cc_oracle(p, g)) < 1e-9
    assert -1.0 <= cc(p, g) <= 1.0


def test_cc_affine_invariance(rng):
    p = rng.uniform(size=(5, 5))
    g = rng.uniform(size=(5, 5))
    base = cc(p, g)
    assert abs(cc(2.5 * p + 1.0, g) - base) < 1e-9
    assert abs(cc(p, 0.3 * g - 2.0) - base) < 1e-9


def test_cc_zero_variance_raises(rng):
    with pytest.raises(ContractError):
        cc(np.full((3, 3), 1.0), rng.uniform(size=(3, 3)))


# -- sim ----------------------------------------------------------------------------

def test_sim_identical_is_one(rng):
    m = rng.uniform(0.1, 1.0, size=(5, 5))
    assert abs(sim(m, m.copy()) - 1.0) < 1e-12


def test_sim_disjoint_support_is_zero():
    p = np.zeros((4, 4))
    g = np.zeros((4, 4))
    p[:2] = 1.0
    g[2:] = 1.0
    assert sim(p, g) == 0.0


def test_sim_matches_loop_oracle(rng):
    p = rng.uniform(size=(6, 6))
    g = rng.uniform(size=(6, 6))
    assert abs(sim(p, g) - sim_oracle(p, g)) < 1e-9
    assert 0.0 <= sim(p, g) <= 1.0


def test_sim_scale_invariance(rng):
    p = rng.uniform(size=(5, 5))
    g = rng.uniform(size=(5, 5))
    assert abs(sim(4.0 * p, g) - sim(p, g)) < 1e-12
    assert abs(sim(p, 0.25 * g) - sim(p, g)) < 1e-12


# -- kld ----------------------------------------------------------------------------

def test_kld_identical_is_zero(rng):
    m = rng.uniform(0.1, 1.0, size=(5, 5))
    assert kld(m, m.copy()) == 0.0


def test_kld_uniform_vs_onehot_matches_hand_value():
    gt = np.full((2, 2), 1.0)
    pred = np.zeros((2, 2))
    pred[0, 0] = 1.0
    eps = 1e-8
    pn = pred / (pred.sum() + eps)
    gn = gt / (gt.sum() + eps)
    want = float((gn * np.log((gn + eps) / (pn + eps))).sum())
    assert abs(kld(pred, gt) - want) < 1e-12
    assert want > 0.0


def test_kld_scale_invariance(rng):
    p = rng.uniform(0.1, 1.0, size=(5, 5))
    g = rng.uniform(0.1, 1.0, size=(5, 5))
    # the eps floor is not scale-free, so invariance is approximate at 1e-7
    assert abs(kld(3.0 * p, g) - kld(p, g)) < 1e-7


def test_kld_agrees_with_training_loss(rng):
    from salypath.losses import kldiv

    p = rng.uniform(0.1, 1.0, size=(8, 8)).astype(np.float32)
    g = rng.uniform(0.1, 1.0, size=(8, 8)).astype(np.float32)
    assert abs(kld(p, g) - float(kldiv(p, g).data)) < 1e-5


# -- cross-metric properties -----------------------------------------------------------

def test_peak_fixations_beat_random_fixations(rng):
    # fixations taken from the top of the map should never score below
    # uniformly random fixations under auc_judd
    wins = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        m = r.uniform(size=(8, 8))
        order = np.argsort(m.reshape(-1))[::-1]
        top = np.stack(np.unravel_index(order[:4], (8, 8)), axis=1)
        rand_flat = r.choice(64, size=4, replace=False)
        rand = np.stack(np.unravel_index(rand_flat, (8, 8)), axis=1)
        if auc_judd(m, top) >= auc_judd(m, rand):
            wins += 1
    assert wins == 100


def test_metrics_reject_non_2d(rng):
    with pytest.raises(DimensionError):
        auc_judd(np.zeros((2, 2, 2)), np.array([[0, 0]]))
    with pytest.raises(DimensionError):
        cc(np.zeros(4), np.zeros(4))


def test_fixation_arrays_must_be_k_by_2(rng):
    m = rng.uniform(size=(4, 4))
    with pytest.raises(DimensionError, match=r"\[K, 2\]"):
        auc_judd(m, np.array([1, 2, 3, 0]))  # not two (row, col) points
    with pytest.raises(DimensionError, match=r"\[K, 2\]"):
        nss(m, [[1, 2, 3], [0, 1, 2]])  # not three points
