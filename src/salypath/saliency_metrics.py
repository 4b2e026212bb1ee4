"""Saliency evaluation battery: AUC-Judd, AUC-Borji, NSS, CC, SIM, KLD.

All metrics run in float64. Degenerate inputs that would make a score
meaningless (no fixations, zero-variance maps where variance is required,
all-zero maps where a distribution is required) raise ContractError:
evaluation never silently masks a broken input, unlike the training
losses which must stay robust.

Maps, read by ``types.map_values``, are [H, W] array-likes. Fixations,
read by ``types.fixation_set`` as in the losses, are a [K, 2] integer
array-like of (row, col) pixels on the map's grid; duplicates count with
multiplicity.

When prediction and ground truth resolutions differ, callers are expected
to resample the prediction to the GT grid first (data.resample_map); the
CLI does this automatically.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .losses import KL_EPS
from .types import fixation_set, map_pair, map_values

__all__ = [
    "auc_judd", "auc_borji", "nss", "cc", "sim", "kld",
]


def _pair(pred, gt_map, name: str) -> tuple[np.ndarray, np.ndarray]:
    return tuple(m.astype(np.float64) for m in map_pair(pred, gt_map, name))


def _pos_neg(pred, fixations, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Map values at the fixations (with multiplicity) and off them."""
    m = map_values(pred, name).astype(np.float64)
    pts = fixation_set(fixations, m.shape, name)
    fixated = np.zeros(m.shape, dtype=bool)
    fixated[pts[:, 0], pts[:, 1]] = True
    if fixated.all():
        raise ContractError(f"{name}: every pixel is fixated, no negatives")
    return m[pts[:, 0], pts[:, 1]], m[~fixated]


def _roc_areas(pos_vals: np.ndarray, neg_rows: np.ndarray) -> np.ndarray:
    """Judd-style ROC sweep of the positives against each row of negatives:
    thresholds are the unique positive values in descending order, >=
    counts as detected, trapezoidal area through the appended endpoints
    (0,0) and (1,1). Returns one area per row, from whole-array counts:
    a value's bucket is how many thresholds it reaches (searched with
    sorted keys, several times faster), and reversed running sums of a
    row's bucket counts are its exact integer counts >= each threshold."""
    thresholds = np.unique(pos_vals)  # ascending
    k = thresholds.size + 1

    def rates(rows):
        n_rows, n = rows.shape
        buckets = thresholds.searchsorted(np.sort(rows, axis=1), side="right")
        buckets += k * np.arange(n_rows)[:, None]
        counts = np.bincount(buckets.ravel(), minlength=n_rows * k).reshape(n_rows, k)
        ge = np.cumsum(counts[:, :0:-1], axis=1) / n
        return np.hstack([np.zeros((n_rows, 1)), ge, np.ones((n_rows, 1))])

    tp, fp = rates(pos_vals[None, :]), rates(neg_rows)
    return np.trapezoid(np.broadcast_to(tp, fp.shape), fp, axis=1)


def auc_judd(pred, fixations) -> float:
    """ROC area with fixated pixels as positives and every non-fixated
    pixel as a negative. A constant map scores exactly 0.5."""
    pos, neg = _pos_neg(pred, fixations, "auc_judd")
    return float(_roc_areas(pos, neg[None, :])[0])


def auc_borji(pred, fixations, n_splits: int = 100, rng_seed: int | None = None) -> float:
    """Borji variant: negatives are sampled (with replacement) uniformly
    from non-fixated pixels, one set per split, Judd-style sweep per split,
    mean area over splits. The seed is required; there is no implicit
    global randomness."""
    if rng_seed is None:
        raise ContractError("auc_borji: rng_seed is required")
    if n_splits < 1:
        raise ContractError(f"auc_borji: n_splits must be >= 1, got {n_splits}")
    pos, neg_pool = _pos_neg(pred, fixations, "auc_borji")
    # one (n_splits, n) draw is the same stream as n_splits draws of n
    rng = np.random.default_rng(rng_seed)
    negs = rng.choice(neg_pool, size=(n_splits, pos.size), replace=True)
    return float(_roc_areas(pos, negs).mean())


def nss_at(values, fixations, caller: str) -> float:
    """Mean of the z-scored (population std) map ``values`` at the
    fixations, with multiplicity: ``nss`` of a prediction, and
    ``nss_scanpath`` of the GT map. A zero-variance map raises
    ContractError naming ``caller``."""
    m = map_values(values, caller).astype(np.float64)
    pts = fixation_set(fixations, m.shape, caller)
    std = m.std()
    if std == 0.0:
        raise ContractError(f"{caller}: map has zero variance")
    z = (m - m.mean()) / std
    return float(z[pts[:, 0], pts[:, 1]].mean())


def nss(pred, fixations) -> float:
    """Mean standardized (z-scored, population std) saliency at the
    fixation points. Duplicated fixations count with multiplicity.
    Zero-variance prediction raises ContractError."""
    return nss_at(pred, fixations, "nss")


def cc(pred, gt_map) -> float:
    """Pearson correlation between the two maps as flat vectors."""
    p, g = _pair(pred, gt_map, "cc")
    ps = p.std()
    gs = g.std()
    if ps == 0.0 or gs == 0.0:
        raise ContractError("cc: zero-variance map")
    pz = (p - p.mean()) / ps
    gz = (g - g.mean()) / gs
    return float((pz * gz).mean())


def sim(pred, gt_map) -> float:
    """Histogram intersection of the two maps normalized to sum 1."""
    p, g = _pair(pred, gt_map, "sim")
    psum = p.sum()
    gsum = g.sum()
    if psum <= 0.0 or gsum <= 0.0:
        raise ContractError("sim: map sums to zero, cannot normalize")
    return float(np.minimum(p / psum, g / gsum).sum())


def kld(pred, gt_map) -> float:
    """KL divergence of GT from prediction; the same definition as the
    training loss (normalize by sum + KL_EPS, KL_EPS inside the log ratio),
    run in float64 for evaluation-grade precision."""
    p, g = _pair(pred, gt_map, "kld")
    pn = p / (p.sum() + KL_EPS)
    gn = g / (g.sum() + KL_EPS)
    return float((gn * np.log((gn + KL_EPS) / (pn + KL_EPS))).sum())
