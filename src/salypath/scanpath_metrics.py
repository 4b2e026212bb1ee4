"""Scanpath comparison: MultiMatch (shape, direction, length, position),
scanpath NSS, and congruency.

MultiMatch here works on normalized coordinates, so the screen diagonal is
sqrt(2). A saccade is a successive point difference; ``to_saccades``
gives a path's saccades as [N-1, 2] start and displacement arrays, and a
saccade ends at start + displacement (there is no per-saccade object).
The two saccade sequences are aligned on the lattice (0,0)..(n_a-1,
n_b-1) by the cheapest monotone path, where stepping onto node (i, j)
costs the vector difference ||u_i - v_j|| (the start node is free: it is
part of every path). Allowed steps are (1,1), (1,0), (0,1); exact cost
ties prefer them in that order. Scores are 1 -
mean(difference)/normalizer over the aligned pairs, clamped to [0, 1];
every aligned pair is scored in one array expression:

    shape      ||u - v||              / (2 sqrt(2))
    length     | |u| - |v| |          / sqrt(2)
    direction  angle difference       / pi
    position   ||end_u - end_v||      / sqrt(2)

There is no scanpath simplification pre-pass. Zero-length saccades are
legal inside a path (their angle is taken as 0); a path whose points are
all exactly equal has no usable geometry and raises ContractError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .saliency_metrics import nss_at
from .types import map_values, norm_to_pixel, path_points

DIAG = float(np.sqrt(2.0))

_STEPS = ((1, 1), (1, 0), (0, 1))  # preference order on ties


@dataclass(frozen=True)
class MultiMatchScores:
    shape: float
    direction: float
    length: float
    position: float

    @property
    def mean(self) -> float:
        return (self.shape + self.direction + self.length + self.position) / 4.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.shape, self.direction, self.length, self.position)


def to_saccades(path) -> tuple[np.ndarray, np.ndarray]:
    """[N-1, 2] start points and displacements of an N-point path; fewer
    than 2 points raise ContractError."""
    pts = path_points(path, "to_saccades")
    if pts.shape[0] < 2:
        raise ContractError(
            f"to_saccades: need at least 2 points, got {pts.shape[0]}"
        )
    return pts[:-1], np.diff(pts, axis=0)


def align(a, b) -> list[tuple[int, int]]:
    """Cheapest monotone lattice path from (0, 0) to (len(a)-1, len(b)-1).

    ``a`` and ``b`` are [N, 2] saccade displacement arrays. Returns the
    visited (i, j) pairs including both endpoints. Implemented as a
    backward DP on best remaining cost (python floats, row by row) plus a
    greedy forward walk that prefers (1,1) then (1,0) then (0,1) on exact
    ties.
    """
    if not len(a) or not len(b):
        raise ContractError("align: empty saccade sequence")
    ua, vb = (np.asarray(s, dtype=np.float64).reshape(-1, 2) for s in (a, b))
    na, nb = len(ua), len(vb)
    cost = np.linalg.norm(ua[:, None, :] - vb[None, :, :], axis=2).tolist()
    # to_go[i][j]: cost of stepping onto (i, j) plus the cheapest rest of
    # the path from there; the extra row and column of inf close the lattice
    inf = float("inf")
    to_go = [[inf] * (nb + 1) for _ in range(na + 1)]
    for i in range(na - 1, -1, -1):
        row, below = to_go[i], to_go[i + 1]
        for j in range(nb - 1, -1, -1):
            rest = min(below[j + 1], below[j], row[j + 1])
            row[j] = cost[i][j] + (rest if rest < inf else 0.0)

    path = [(0, 0)]
    while path[-1] != (na - 1, nb - 1):
        i, j = path[-1]
        di, dj = min(_STEPS, key=lambda d: to_go[i + d[0]][j + d[1]])
        path.append((i + di, j + dj))
    return path


def multimatch(pred, gt) -> MultiMatchScores:
    """First four MultiMatch criteria over the aligned saccade pairs.

    A path whose points are all exactly equal has no usable geometry and
    raises ContractError."""
    tracks = []
    for name, p in (("pred", pred), ("gt", gt)):
        pts = path_points(p, "multimatch")
        if pts.shape[0] >= 2 and (pts == pts[0]).all():
            raise ContractError(
                f"multimatch: {name} path has all points identical, no extent"
            )
        tracks.append(to_saccades(pts))
    (start_a, da), (start_b, db) = tracks
    ia, ib = np.array(align(da, db)).T

    u, v = da[ia], db[ib]
    ang_u = np.arctan2(u[:, 1], u[:, 0])  # the zero vector maps to 0
    ang_v = np.arctan2(v[:, 1], v[:, 0])
    ang = np.abs(ang_u - ang_v) % (2.0 * np.pi)
    end = (start_a + da)[ia] - (start_b + db)[ib]

    def score(diffs, norm):
        return float(np.clip(1.0 - np.mean(diffs) / norm, 0.0, 1.0))

    return MultiMatchScores(
        shape=score(np.hypot(*(u - v).T), 2.0 * DIAG),
        direction=score(np.where(ang <= np.pi, ang, 2.0 * np.pi - ang), np.pi),
        length=score(np.abs(np.hypot(*u.T) - np.hypot(*v.T)), DIAG),
        position=score(np.hypot(*end.T), DIAG),
    )


def nss_scanpath(pred, gt_map) -> float:
    """NSS of the GT map at the predicted fixation pixels: the mean
    z-scored GT saliency there.

    Points denormalize by round(x*(W-1)), round(y*(H-1)) with clamping;
    repeated pixels count with multiplicity. Zero-variance map raises."""
    h, w = map_values(gt_map, "nss_scanpath").shape
    pixels = norm_to_pixel(path_points(pred, "nss_scanpath"), w, h)
    return nss_at(gt_map, pixels, "nss_scanpath")


def congruency(pred, gt_map, percentile: float = 80.0) -> float:
    """Fraction of predicted fixations landing on the thresholded GT
    region: pixels >= the given percentile of all map values."""
    gm = map_values(gt_map, "congruency").astype(np.float64)
    if not 0.0 < percentile < 100.0:
        raise ContractError(
            f"congruency: percentile must be in (0, 100), got {percentile}"
        )
    pts = path_points(pred, "congruency")
    if pts.shape[0] == 0:
        raise ContractError("congruency: empty scanpath")
    thr = np.percentile(gm, percentile)
    keep = gm >= thr
    h, w = gm.shape
    rc = norm_to_pixel(pts, w, h)
    return float(keep[rc[:, 0], rc[:, 1]].mean())
