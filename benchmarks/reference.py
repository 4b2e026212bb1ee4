"""Float64 reference computations the workloads check the program against.

Each function is written from the documented definition (the module
docstrings of salypath and Bylinskii et al. 2018, arXiv 1604.03605), not
by calling the program, so a wrong program output cannot also be the
expected value.
"""

from __future__ import annotations

import numpy as np

KL_EPS = 1e-8
DIAG = np.sqrt(2.0)


# -- training objectives --------------------------------------------------

def kl_mse(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """KL(gt || pred) with both maps normalized by (sum + eps) and eps inside
    the log ratio, and the per-pixel MSE."""
    p = pred.astype(np.float64)
    g = gt.astype(np.float64)
    pn = p / (p.sum() + KL_EPS)
    gn = g / (g.sum() + KL_EPS)
    return (float((gn * np.log((gn + KL_EPS) / (pn + KL_EPS))).sum()),
            float(((p - g) ** 2).mean()))


def softmax_centroid(feats: np.ndarray, beta: float) -> np.ndarray:
    """[B, C, H, W] planes -> [B, C, 2] softmax-weighted (x, y) with the
    column grid i/W and the row grid j/H."""
    z = beta * feats.astype(np.float64)
    e = np.exp(z - z.max(axis=(2, 3), keepdims=True))
    p = e / e.sum(axis=(2, 3), keepdims=True)
    h, w = feats.shape[2:]
    x = (p * (np.arange(w) / w)).sum(axis=(2, 3))
    y = (p * (np.arange(h) / h)[:, None]).sum(axis=(2, 3))
    return np.stack([x, y], axis=2)


# -- saliency metrics -------------------------------------------------------

def pgm_values(q: np.ndarray) -> np.ndarray:
    """8-bit grey levels as the float32 value/255 the format defines."""
    return q.astype(np.float32) / np.float32(255.0)


def resample(v: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Bilinear, corner-anchored resample to float32 (the documented
    prediction grid)."""
    h, w = v.shape
    v = v.astype(np.float64)
    ys = np.linspace(0.0, h - 1, th)
    xs = np.linspace(0.0, w - 1, tw)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    out = ((1 - wy) * (1 - wx) * v[np.ix_(y0, x0)]
           + (1 - wy) * wx * v[np.ix_(y0, x1)]
           + wy * (1 - wx) * v[np.ix_(y1, x0)]
           + wy * wx * v[np.ix_(y1, x1)])
    return out.astype(np.float32)


def roc_area(pos: np.ndarray, neg: np.ndarray) -> float:
    """Judd sweep: thresholds are the distinct positive values, descending;
    a value >= the threshold counts as detected; trapezoids through (0,0)
    and (1,1). Counts come from sorted arrays instead of a loop."""
    thr = np.unique(pos)[::-1]
    ps, ns = np.sort(pos), np.sort(neg)
    tp = (ps.size - np.searchsorted(ps, thr, side="left")) / ps.size
    fp = (ns.size - np.searchsorted(ns, thr, side="left")) / ns.size
    tp = np.concatenate([[0.0], tp, [1.0]])
    fp = np.concatenate([[0.0], fp, [1.0]])
    return float(((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1]) / 2.0).sum())


def saliency_row(pred: np.ndarray, gt: np.ndarray, fix_xy: np.ndarray) -> dict[str, float]:
    """AUC-Judd, NSS, CC, SIM and KLD for a prediction already on the GT
    grid. ``fix_xy`` holds whole-pixel (x, y) fixations, with multiplicity."""
    p = pred.astype(np.float64)
    g = gt.astype(np.float64)
    rows, cols = fix_xy[:, 1].astype(int), fix_xy[:, 0].astype(int)
    fixated = np.zeros(p.shape, bool)
    fixated[rows, cols] = True
    z = (p - p.mean()) / p.std()
    pn, gn = p / p.sum(), g / g.sum()
    pk, gk = p / (p.sum() + KL_EPS), g / (g.sum() + KL_EPS)
    return {
        "auc_judd": roc_area(p[rows, cols], p[~fixated]),
        "nss": float(z[rows, cols].mean()),
        "cc": float(np.corrcoef(p.ravel(), g.ravel())[0, 1]),
        "sim": float(np.minimum(pn, gn).sum()),
        "kld": float((gk * np.log((gk + KL_EPS) / (pk + KL_EPS))).sum()),
    }


def borji_tolerance(n_pos: int, n_splits: int) -> float:
    """Five standard deviations of AUC-Borji around AUC-Judd. AUC-Borji is
    the mean over splits of a mean over ``n_pos`` negatives drawn uniformly
    from Judd's negative pool, and each negative contributes a trapezoid
    height in [0, 1]. So its expected value is AUC-Judd and its standard
    deviation is at most 1 / (2 sqrt(n_pos n_splits))."""
    return 5.0 / (2.0 * np.sqrt(n_pos * n_splits))


# -- scanpath metrics -------------------------------------------------------

def to_norm(xy_px: np.ndarray, w: int, h: int) -> np.ndarray:
    """Pixel (x, y) -> normalized float32 points, divided by (size - 1)."""
    return np.clip(xy_px / [w - 1, h - 1], 0.0, 1.0).astype(np.float32)


def alignment(u: np.ndarray, v: np.ndarray) -> list[tuple[int, int]]:
    """Cheapest monotone path over the (len u) x (len v) lattice from (0,0)
    to the far corner. Stepping onto (i, j) costs ||u_i - v_j||; steps are
    (1,1), (1,0), (0,1), preferred in that order on exact ties."""
    na, nb = len(u), len(v)
    cost = np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    togo = np.full((na + 1, nb + 1), np.inf)  # best remaining cost, inf border
    togo[na - 1, nb - 1] = 0.0
    steps = ((1, 1), (1, 0), (0, 1))
    for i in range(na - 1, -1, -1):
        for j in range(nb - 1, -1, -1):
            if (i, j) != (na - 1, nb - 1):
                togo[i, j] = min(cost[min(i + a, na - 1), min(j + b, nb - 1)] + togo[i + a, j + b]
                                 for a, b in steps)
    path = [(0, 0)]
    i = j = 0
    while (i, j) != (na - 1, nb - 1):
        cands = [(cost[i + a, j + b] + togo[i + a, j + b], (i + a, j + b))
                 for a, b in steps if i + a < na and j + b < nb]
        best = min(c for c, _ in cands)
        i, j = next(node for c, node in cands if c == best)
        path.append((i, j))
    return path


def multimatch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(shape, direction, length, position) of two normalized point paths."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    u, v = np.diff(a, axis=0), np.diff(b, axis=0)
    ii, jj = np.array(alignment(u, v)).T
    du, dv = u[ii], v[jj]
    vec = np.hypot(*(du - dv).T)
    length = np.abs(np.hypot(*du.T) - np.hypot(*dv.T))
    ang = np.abs(np.arctan2(du[:, 1], du[:, 0]) - np.arctan2(dv[:, 1], dv[:, 0])) % (2 * np.pi)
    ang = np.where(ang <= np.pi, ang, 2 * np.pi - ang)
    pos = np.hypot(*((a[:-1][ii] + du) - (b[:-1][jj] + dv)).T)
    norms = (2 * DIAG, np.pi, DIAG, DIAG)
    return np.array([np.clip(1 - d.mean() / n, 0, 1)
                     for d, n in zip((vec, ang, length, pos), norms)])


def scanpath_row(pred_px: np.ndarray, gt_paths_px: list[np.ndarray], gt: np.ndarray,
                 w: int, h: int, percentile: float = 80.0) -> dict[str, float]:
    """MultiMatch averaged over observers, scanpath NSS and congruency."""
    pred = to_norm(pred_px, w, h)
    mm = np.mean([multimatch(pred, to_norm(g, w, h)) for g in gt_paths_px], axis=0)
    g = gt.astype(np.float64)
    p64 = pred.astype(np.float64)
    rows = np.clip(np.round(p64[:, 1] * (h - 1)), 0, h - 1).astype(int)
    cols = np.clip(np.round(p64[:, 0] * (w - 1)), 0, w - 1).astype(int)
    z = (g - g.mean()) / g.std()
    return {
        "mm_shape": mm[0], "mm_dir": mm[1], "mm_len": mm[2], "mm_pos": mm[3],
        "mm_mean": float(mm.mean()),
        "nss": float(z[rows, cols].mean()),
        "congruency": float((g >= np.percentile(g, percentile))[rows, cols].mean()),
    }
