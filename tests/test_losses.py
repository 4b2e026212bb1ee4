"""Training objectives against hand computations and float64 loop oracles,
plus gradient checks and a small descent experiment showing the saliency
loss actually pulls a free map toward the target."""

import numpy as np
import pytest

from salypath.errors import ConfigError, ContractError, DimensionError
from salypath.losses import (
    KL_EPS,
    LossWeights,
    kldiv,
    mse_map,
    nss_term,
    saliency_loss,
    scanpath_loss,
)
from salypath.tensor import Tensor
from salypath.types import FixationSet, Scanpath

from conftest import gradcheck


# -- oracles ----------------------------------------------------------------

def kldiv_oracle(pred, gt, eps=KL_EPS):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    p = p / (p.sum() + eps)
    g = g / (g.sum() + eps)
    total = 0.0
    for pi, gi in zip(p.reshape(-1), g.reshape(-1)):
        total += gi * np.log((gi + eps) / (pi + eps))
    return total


def mse_oracle(pred, gt):
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gt, dtype=np.float64).reshape(-1)
    return sum((a - b) ** 2 for a, b in zip(p, g)) / p.size


def nss_oracle(pred, mask):
    p = np.asarray(pred, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    z = (p - p.mean()) / p.std()
    return float((z * m).sum() / m.sum())


# -- kldiv ---------------------------------------------------------------------

def test_kldiv_identical_maps_is_zero(rng):
    m = rng.uniform(0.1, 1.0, (5, 5)).astype(np.float32)
    assert float(kldiv(m, m.copy()).data) == 0.0


def test_kldiv_uniform_vs_onehot_hand_value():
    gt = np.full((2, 2), 1.0, np.float32)
    pred = np.zeros((2, 2), np.float32)
    pred[0, 0] = 1.0
    got = float(kldiv(pred, gt).data)
    want = kldiv_oracle(pred, gt)
    assert want > 0.0 and np.isfinite(want)
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_kldiv_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rng.uniform(0.0, 1.0, (3, 3)).astype(np.float32)
        g = rng.uniform(0.0, 1.0, (3, 3)).astype(np.float32)
        assert float(kldiv(p, g).data) >= 0.0


def test_kldiv_matches_oracle(rng):
    p = rng.uniform(0.05, 1.0, (6, 7)).astype(np.float32)
    g = rng.uniform(0.05, 1.0, (6, 7)).astype(np.float32)
    np.testing.assert_allclose(float(kldiv(p, g).data), kldiv_oracle(p, g),
                               rtol=1e-4, atol=1e-6)


def test_kldiv_shape_mismatch():
    with pytest.raises(DimensionError):
        kldiv(np.ones((2, 2), np.float32), np.ones((3, 3), np.float32))


# -- mse ------------------------------------------------------------------------

def test_mse_identical_is_zero(rng):
    m = rng.uniform(size=(4, 4)).astype(np.float32)
    assert float(mse_map(m, m.copy()).data) == 0.0


def test_mse_constant_offset():
    gt = np.random.default_rng(2).uniform(size=(8, 8)).astype(np.float32)
    pred = gt + np.float32(0.1)
    np.testing.assert_allclose(float(mse_map(pred, gt).data), 0.01,
                               rtol=1e-5)


def test_mse_matches_oracle(rng):
    p = rng.uniform(size=(5, 9)).astype(np.float32)
    g = rng.uniform(size=(5, 9)).astype(np.float32)
    np.testing.assert_allclose(float(mse_map(p, g).data), mse_oracle(p, g),
                               rtol=1e-6, atol=1e-7)


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse_map(np.ones((2, 2), np.float32), np.ones((2, 3), np.float32))


# -- nss term ---------------------------------------------------------------------

def test_nss_hand_value_sqrt3():
    pred = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32)
    # mean 1/4, population var 3/16, z(0,0) = (3/4)/(sqrt(3)/4) = sqrt(3)
    for fixations in (
        np.argwhere(np.array([[1.0, 0.0], [0.0, 0.0]])),
        FixationSet(np.array([[0, 0]]), (2, 2)),
    ):
        got = float(nss_term(pred, fixations).data)
        np.testing.assert_allclose(got, np.sqrt(3.0), rtol=1e-6)


def test_nss_constant_pred_warns_and_is_zero():
    pred = np.full((3, 3), 0.4, np.float32)
    mask = np.zeros((3, 3))
    mask[1, 1] = 1
    with pytest.warns(RuntimeWarning):
        val = nss_term(pred, np.argwhere(mask))
    assert float(val.data) == 0.0


def test_nss_all_pixels_fixated_is_zero(rng):
    pred = rng.uniform(size=(4, 4)).astype(np.float32)
    got = float(nss_term(pred, np.argwhere(np.ones((4, 4)))).data)
    assert abs(got) < 1e-6


def test_nss_empty_fixations_raises(rng):
    pred = rng.uniform(size=(3, 3)).astype(np.float32)
    with pytest.raises(ContractError):
        nss_term(pred, np.argwhere(np.zeros((3, 3))))


def test_nss_counts_multiplicity():
    pred = np.array([[1.0, 0.0], [0.0, 0.5]], np.float32)
    fs = FixationSet(np.array([[0, 0], [0, 0], [1, 1]]), (2, 2))
    got = float(nss_term(pred, fs).data)
    want = nss_oracle(pred, np.array([[2.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_nss_matches_oracle(rng):
    pred = rng.uniform(size=(6, 6)).astype(np.float32)
    mask = (rng.uniform(size=(6, 6)) > 0.7).astype(np.float64)
    mask[0, 0] = 1.0
    got = float(nss_term(pred, np.argwhere(mask)).data)
    np.testing.assert_allclose(got, nss_oracle(pred, mask), rtol=1e-4, atol=1e-6)


# -- composite saliency loss --------------------------------------------------------

def test_saliency_loss_collapses_to_nss_when_pred_equals_gt(rng):
    gt = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    mask = np.zeros((4, 4))
    mask[np.unravel_index(np.argmax(gt), (4, 4))] = 1
    loss = float(saliency_loss(gt, gt.copy(), np.argwhere(mask)).data)
    nss = float(nss_term(gt, np.argwhere(mask)).data)
    assert float(kldiv(gt, gt.copy()).data) == 0.0
    assert float(mse_map(gt, gt.copy()).data) == 0.0
    np.testing.assert_allclose(loss, -0.1 * nss, rtol=1e-6)


def test_saliency_loss_weights_select_terms(rng):
    pred = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    gt = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    mask = np.zeros((4, 4))
    mask[2, 1] = 1
    only_kl = saliency_loss(pred, gt, np.argwhere(mask), LossWeights(1.0, 0.0, 0.0))
    assert float(only_kl.data) == float(kldiv(pred, gt).data)


def test_saliency_loss_matches_term_sum_oracle(rng):
    pred = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    gt = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    mask = (rng.uniform(size=(4, 4)) > 0.6).astype(np.float64)
    mask[3, 3] = 1.0
    want = (0.6 * kldiv_oracle(pred, gt) + 0.3 * mse_oracle(pred, gt)
            - 0.1 * nss_oracle(pred, mask))
    got = float(saliency_loss(pred, gt, np.argwhere(mask)).data)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)


def test_saliency_loss_default_fixations_are_top_decile(rng):
    pred = rng.uniform(0.1, 1.0, (10, 10)).astype(np.float32)
    gt = rng.uniform(0.1, 1.0, (10, 10)).astype(np.float32)
    thr = np.percentile(gt, 90.0)
    explicit = saliency_loss(pred, gt, np.argwhere(gt >= thr))
    implicit = saliency_loss(pred, gt)
    assert float(explicit.data) == float(implicit.data)


def test_loss_weights_reject_negatives():
    with pytest.raises(ConfigError):
        LossWeights(-0.1, 0.3, 0.1)


@pytest.mark.parametrize("bad", ["0.3", True, None])
def test_loss_weights_check_types(bad):
    # a string once escaped as TypeError from the range check, and True read as 1
    with pytest.raises(ConfigError, match=r"LossWeights\.mse_w: expected float"):
        LossWeights(0.6, bad, 0.1)
    assert type(LossWeights(1, np.float32(0.5), np.int64(0)).kl_w) is float


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_loss_weights_reject_non_finite(bad):
    with pytest.raises(ConfigError, match="mse_w must be finite"):
        LossWeights(0.6, bad, 0.1)


# -- scanpath loss -------------------------------------------------------------------

def test_scanpath_loss_identical_is_zero(rng):
    p = rng.uniform(size=(8, 2)).astype(np.float32)
    assert float(scanpath_loss(p, p.copy()).data) == 0.0


def test_scanpath_loss_unit_diagonal_single_point():
    p = np.array([[0.0, 0.0]], np.float32)
    q = np.array([[1.0, 1.0]], np.float32)
    assert float(scanpath_loss(p, q).data) == 2.0


def test_scanpath_loss_matches_loop_oracle(rng):
    p = rng.uniform(size=(8, 2)).astype(np.float32)
    q = rng.uniform(size=(8, 2)).astype(np.float32)
    want = sum(
        (float(p[i, 0]) - float(q[i, 0])) ** 2 + (float(p[i, 1]) - float(q[i, 1])) ** 2
        for i in range(8)
    ) / 8.0
    np.testing.assert_allclose(float(scanpath_loss(p, q).data), want,
                               rtol=1e-6, atol=1e-7)


def test_scanpath_loss_is_symmetric(rng):
    for _ in range(20):
        p = rng.uniform(size=(8, 2)).astype(np.float32)
        q = rng.uniform(size=(8, 2)).astype(np.float32)
        assert float(scanpath_loss(p, q).data) == float(scanpath_loss(q, p).data)


def test_scanpath_loss_accepts_domain_objects(rng):
    a = Scanpath(rng.uniform(size=(8, 2)).astype(np.float32))
    b = Scanpath(rng.uniform(size=(8, 2)).astype(np.float32))
    assert float(scanpath_loss(a, b).data) == float(scanpath_loss(a.points, b.points).data)


def test_scanpath_loss_errors(rng):
    p = rng.uniform(size=(8, 2)).astype(np.float32)
    q = rng.uniform(size=(5, 2)).astype(np.float32)
    with pytest.raises(ContractError, match="length"):
        scanpath_loss(p, q)


# -- gradients -------------------------------------------------------------------------

def test_gradcheck_saliency_loss_wrt_pred(rng):
    pred = Tensor(rng.uniform(0.3, 0.9, (4, 4)).astype(np.float32), requires_grad=True)
    gt = rng.uniform(0.2, 1.0, (4, 4)).astype(np.float32)
    mask = np.zeros((4, 4))
    mask[1, 2] = 1
    mask[3, 0] = 1
    gradcheck(lambda: saliency_loss(pred, gt, np.argwhere(mask)), [pred])


def test_gradcheck_scanpath_loss_wrt_pred(rng):
    pred = Tensor(rng.uniform(0.1, 0.9, (8, 2)).astype(np.float32), requires_grad=True)
    gt = rng.uniform(size=(8, 2)).astype(np.float32)
    gradcheck(lambda: scanpath_loss(pred, gt), [pred])


def test_descent_shrinks_kl_term():
    # free 8x8 map initialized on the wrong corner; 200 plain gradient
    # steps must recover most of the distributional gap
    yy, xx = np.mgrid[0:8, 0:8]
    gt = np.exp(-((yy - 2.0) ** 2 + (xx - 2.0) ** 2) / 4.0).astype(np.float32)
    gt = 0.05 + 0.95 * gt / gt.max()
    start = np.exp(-((yy - 6.0) ** 2 + (xx - 6.0) ** 2) / 4.0).astype(np.float32)
    start = 0.05 + 0.95 * start / start.max()

    pred = Tensor(start, requires_grad=True)
    initial_kl = float(kldiv(pred.data.copy(), gt).data)
    for _ in range(200):
        pred.grad = None
        saliency_loss(pred, gt).backward()
        pred.data = pred.data - np.float32(0.5) * pred.grad
    final_kl = float(kldiv(pred.data, gt).data)
    assert final_kl < 0.1 * initial_kl, (initial_kl, final_kl)
