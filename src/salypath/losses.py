"""Training objectives.

Saliency loss: 0.6 * KL + 0.3 * MSE - 0.1 * NSS over predicted vs ground
truth maps, the NSS term evaluated at ground-truth fixations ([K, 2]
integer (row, col) pixels, counted with multiplicity) when they are
supplied and otherwise at the pixels at or above the 90th percentile of
the GT map. A zero-variance prediction makes the NSS term 0
with a RuntimeWarning (training must not crash on a flat early map; the
evaluation metric in saliency_metrics raises instead).

Scanpath loss: mean squared distance over corresponding points,
sum_i ||p_i - q_i||^2 / N.

Maps, paths and fixations are read by ``types.map_values``,
``types.path_points`` and ``types.fixation_set``, and two maps are checked
to share a grid by ``types.map_pair``, as in the metrics; a Tensor
argument passes through unchanged, so its graph is kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor
from .types import fixation_set, map_pair, map_values, path_points, read_fields

# guards both sides of the KL log ratio; ``saliency_metrics.kld`` uses it too
KL_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    kl_w: float = 0.6
    mse_w: float = 0.3
    nss_w: float = 0.1

    def __post_init__(self):
        read_fields(self)
        for nm in ("kl_w", "mse_w", "nss_w"):
            if not 0 <= getattr(self, nm) < np.inf:
                raise ConfigError(f"LossWeights: {nm} must be finite and >= 0")


def _as_tensor(x, read, caller: str) -> Tensor:
    """``x`` checked by the types reader ``read``; a caller's Tensor passes
    through unchanged, so its graph is kept."""
    if isinstance(x, Tensor):
        read(x.data, caller)
        return x
    return Tensor(np.asarray(read(x, caller), dtype=np.float32))


def kldiv(pred, gt) -> Tensor:
    """KL divergence of the GT distribution from the prediction.

    Both maps are normalized by (sum + KL_EPS); KL_EPS guards the log ratio
    on both sides. Identical maps give exactly 0.
    """
    p_t, g_t = (_as_tensor(m, map_values, "kldiv") for m in (pred, gt))
    map_pair(p_t.data, g_t.data, "kldiv")
    p = p_t / (p_t.sum() + KL_EPS)
    g = g_t.data / (g_t.data.sum() + np.float32(KL_EPS))  # constant side
    g_c = Tensor(g)
    return (g_c * (((g_c + KL_EPS) / (p + KL_EPS)).log())).sum()


def mse_map(pred, gt) -> Tensor:
    """Mean squared error per pixel."""
    p, g = (_as_tensor(m, map_values, "mse_map") for m in (pred, gt))
    map_pair(p.data, g.data, "mse_map")
    d = p - g
    return (d * d).mean()


def nss_term(pred, fixations) -> Tensor:
    """Differentiable NSS: mean standardized saliency at fixation points.

    Standardization uses the population std of the prediction. If the
    prediction has zero variance the term is 0.0 and a RuntimeWarning is
    emitted; an empty fixation set raises ContractError.
    """
    t = _as_tensor(pred, map_values, "nss_term")
    pts = fixation_set(fixations, t.shape, "nss_term")
    counts = np.zeros(t.shape, dtype=np.float32)  # fixations per pixel
    np.add.at(counts, (pts[:, 0], pts[:, 1]), np.float32(1.0))
    mu = t.mean()
    var = ((t - mu) * (t - mu)).mean()
    if float(var.data) == 0.0:
        warnings.warn(
            "nss_term: zero-variance prediction, NSS term defined as 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return Tensor(np.float32(0.0))
    z = (t - mu) / var.sqrt()
    return (z * Tensor(counts)).sum() / np.float32(len(pts))


def saliency_loss(pred, gt_map, gt_fixations=None,
                  weights: LossWeights = LossWeights()) -> Tensor:
    """Weighted KL + MSE - NSS objective for the map branch."""
    p = _as_tensor(pred, map_values, "saliency_loss")
    g = _as_tensor(gt_map, map_values, "saliency_loss")
    loss = weights.kl_w * kldiv(p, g) + weights.mse_w * mse_map(p, g)
    if gt_fixations is None:
        vals = g.data
        thr = np.percentile(vals, 90.0)
        gt_fixations = np.argwhere(vals >= thr)
    fix = fixation_set(gt_fixations, p.shape, "saliency_loss")
    return loss - weights.nss_w * nss_term(p, fix)


def scanpath_loss(pred, gt) -> Tensor:
    """Mean squared pointwise distance between two equal-length paths,
    averaged over their N points: a single-point path (0,0) vs (1,1)
    scores 2.0."""
    p = _as_tensor(pred, path_points, "scanpath_loss")
    g = _as_tensor(gt, path_points, "scanpath_loss")
    if p.shape[0] != g.shape[0]:
        raise ContractError(
            f"scanpath_loss: length mismatch, pred has {p.shape[0]} points, "
            f"gt has {g.shape[0]}"
        )
    d = p - g
    return (d * d).sum() / np.float32(p.shape[0])
