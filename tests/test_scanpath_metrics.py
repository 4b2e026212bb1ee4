"""Scanpath metrics: saccade geometry, lattice alignment against an
exhaustive path-enumeration oracle, the four MultiMatch criteria walked
through by hand, and the NSS / congruency point metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salypath.errors import ContractError
from salypath.scanpath_metrics import (
    DIAG,
    MultiMatchScores,
    align,
    congruency,
    multimatch,
    nss_scanpath,
    to_saccades,
)


# -- oracles ----------------------------------------------------------------

def enumerate_monotone_paths(na, nb):
    """Every lattice path (0,0) -> (na-1, nb-1) with steps (1,0),(0,1),(1,1)."""
    out = []

    def walk(i, j, acc):
        if (i, j) == (na - 1, nb - 1):
            out.append(acc)
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < na and nj < nb:
                walk(ni, nj, acc + [(ni, nj)])

    walk(0, 0, [(0, 0)])
    return out


def align_oracle(ua, vb):
    """Brute-force cheapest monotone alignment; cost of a path is the sum
    of ||u_i - v_j|| over its nodes excluding the free start node."""
    na, nb = len(ua), len(vb)
    best_cost = np.inf
    best_path = None
    for path in enumerate_monotone_paths(na, nb):
        c = sum(float(np.linalg.norm(np.subtract(ua[i], vb[j]))) for i, j in path[1:])
        if c < best_cost - 1e-15:
            best_cost = c
            best_path = path
    return best_path, best_cost


def path_cost(ua, vb, path):
    return sum(float(np.linalg.norm(np.subtract(ua[i], vb[j]))) for i, j in path[1:])


def saccade_geometry(starts, deltas):
    """(amplitude, angle, end) of each saccade, one scalar np.hypot and
    np.arctan2 call on python floats per saccade."""
    return [(float(np.hypot(dx, dy)), float(np.arctan2(dy, dx)), (x + dx, y + dy))
            for (x, y), (dx, dy) in zip(starts.tolist(), deltas.tolist())]


def multimatch_loop(pred, gt):
    """MultiMatch scored one aligned pair at a time from per-saccade
    scalars, kept as a bit-exact oracle for the array version."""
    (sa, da), (sb, db) = to_saccades(pred), to_saccades(gt)
    ga, gb = saccade_geometry(sa, da), saccade_geometry(sb, db)
    vec_d, len_d, ang_d, pos_d = [], [], [], []
    for i, j in align(da, db):
        (amp_u, ang_u, end_u), (amp_v, ang_v, end_v) = ga[i], gb[j]
        du = np.subtract(da[i], db[j])
        vec_d.append(float(np.hypot(du[0], du[1])))
        len_d.append(abs(amp_u - amp_v))
        diff = abs(ang_u - ang_v) % (2.0 * np.pi)
        ang_d.append(diff if diff <= np.pi else 2.0 * np.pi - diff)
        pos_d.append(float(np.hypot(end_u[0] - end_v[0], end_u[1] - end_v[1])))

    def score(diffs, norm):
        return float(np.clip(1.0 - np.mean(diffs) / norm, 0.0, 1.0))

    return (score(vec_d, 2.0 * DIAG), score(ang_d, np.pi),
            score(len_d, DIAG), score(pos_d, DIAG))


def _random_path(rng, n=8):
    return rng.uniform(0.05, 0.95, size=(n, 2)).astype(np.float64)


def _deltas(pts):
    return to_saccades(np.array(pts, dtype=np.float64))[1]


def _angles(deltas):
    return np.arctan2(deltas[:, 1], deltas[:, 0])


# -- saccade geometry ----------------------------------------------------------

def test_single_saccade_east():
    starts, deltas = to_saccades(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert starts.tolist() == [[0.0, 0.0]]
    assert deltas.tolist() == [[1.0, 0.0]]
    assert np.hypot(*deltas.T).tolist() == [1.0]
    assert _angles(deltas).tolist() == [0.0]
    assert (starts + deltas).tolist() == [[1.0, 0.0]]


def test_two_saccades_north_then_east():
    ang = _angles(_deltas([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert ang.shape == (2,)
    assert abs(ang[0] - np.pi / 2) < 1e-15
    assert ang[1] == 0.0


def test_saccades_chain_and_reconstruct(rng):
    pts = _random_path(rng, 8)
    starts, deltas = to_saccades(pts)
    assert starts.shape == deltas.shape == (7, 2)
    # each saccade leaves from where the one before it ended
    np.testing.assert_allclose((starts + deltas)[:-1], starts[1:], atol=1e-15)
    rebuilt = [pts[0]]
    for d in deltas:
        rebuilt.append(rebuilt[-1] + d)
    np.testing.assert_allclose(np.array(rebuilt), pts, atol=1e-12)


def test_saccade_amplitude_is_hypot(rng):
    # the array amplitude is the per-saccade scalar hypot, bit for bit
    deltas = _deltas(_random_path(rng, 5))
    assert np.hypot(*deltas.T).tolist() == [float(np.hypot(dx, dy))
                                           for dx, dy in deltas.tolist()]
    np.testing.assert_allclose(np.hypot(*deltas.T), np.linalg.norm(deltas, axis=1),
                               atol=1e-15)


def test_to_saccades_needs_two_points():
    with pytest.raises(ContractError, match="at least 2 points, got 1"):
        to_saccades(np.array([[0.5, 0.5]]))
    with pytest.raises(ContractError, match="at least 2 points, got 0"):
        to_saccades(np.zeros((0, 2)))


def test_zero_saccade_is_legal_with_angle_zero():
    deltas = _deltas([[0.3, 0.3], [0.3, 0.3], [0.6, 0.3]])
    assert deltas[0].tolist() == [0.0, 0.0]
    assert np.hypot(*deltas.T)[0] == 0.0
    assert _angles(deltas)[0] == 0.0


# -- alignment ---------------------------------------------------------------------

def test_align_identical_single_saccades():
    a = _deltas([[0.0, 0.0], [0.5, 0.5]])
    assert align(a, a) == [(0, 0)]


def test_align_one_vs_two():
    a = _deltas([[0.0, 0.0], [0.5, 0.5]])
    b = _deltas([[0.0, 0.0], [0.2, 0.1], [0.5, 0.5]])
    assert align(a, b) == [(0, 0), (0, 1)]


def test_align_matches_exhaustive_oracle(rng):
    for trial in range(30):
        na = int(rng.integers(2, 6))
        nb = int(rng.integers(2, 7))
        ua = _deltas(_random_path(rng, na + 1))
        vb = _deltas(_random_path(rng, nb + 1))
        got = align(ua, vb)
        want, want_cost = align_oracle(ua, vb)
        assert path_cost(ua, vb, got) == pytest.approx(want_cost, abs=1e-12)
        assert got == want, trial


def test_align_exact_ties_follow_step_preference(rng):
    # axis-aligned whole-number saccades have whole-number costs, so path
    # costs tie exactly and only the (1,1), (1,0), (0,1) order decides
    def x_axis(xs):
        return [(float(x), 0.0) for x in xs]

    ua, vb = x_axis([1, 2, 0]), x_axis([1, 0, 2])
    assert align(np.array(ua), np.array(vb)) == [(0, 0), (1, 0), (2, 1), (2, 2)]
    ua = x_axis([1, 0])
    assert align(np.array(ua), np.array(x_axis([0, 0]))) == [(0, 0), (1, 1)]
    for _ in range(200):
        ua = x_axis(rng.integers(0, 3, int(rng.integers(2, 5))))
        vb = x_axis(rng.integers(0, 3, int(rng.integers(2, 5))))
        assert align(np.array(ua), np.array(vb)) == align_oracle(ua, vb)[0]


def test_align_output_is_monotone(rng):
    for _ in range(10):
        da = _deltas(_random_path(rng, 6))
        db = _deltas(_random_path(rng, 9))
        path = align(da, db)
        assert path[0] == (0, 0)
        assert path[-1] == (len(da) - 1, len(db) - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


def test_align_rejects_empty():
    a = _deltas([[0.0, 0.0], [0.5, 0.5]])
    for empty in ([], np.zeros((0, 2))):
        with pytest.raises(ContractError, match="empty saccade sequence"):
            align(a, empty)
        with pytest.raises(ContractError, match="empty saccade sequence"):
            align(empty, a)


# -- multimatch ----------------------------------------------------------------------

def test_multimatch_self_is_all_ones(rng):
    for _ in range(10):
        p = _random_path(rng, 8)
        s = multimatch(p, p.copy())
        assert s.as_tuple() == (1.0, 1.0, 1.0, 1.0)
        assert s.mean == 1.0


def test_multimatch_reversed_path_loses_direction(rng):
    p = _random_path(rng, 6)
    s = multimatch(p, p[::-1].copy())
    assert s.direction < 1.0


def test_multimatch_shared_endpoints_give_position_one():
    # Two paths whose saccades end on the same fixations but leave from
    # different starts: position stays exactly 1, the vector criteria drop.
    p = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3]])
    q = np.array([[0.4, 0.1], [0.5, 0.5], [0.8, 0.3]])
    s = multimatch(p, q)
    assert s.position == 1.0
    assert s.direction < 1.0
    assert s.shape < 1.0
    assert s.length < 1.0


def test_multimatch_walkthrough_oracle(rng):
    pa = _random_path(rng, 8)
    pb = _random_path(rng, 8)
    got = multimatch(pa, pb)

    ua = np.diff(pa, axis=0)
    vb = np.diff(pb, axis=0)
    pairs, _ = align_oracle([tuple(u) for u in ua], [tuple(v) for v in vb])
    vec_d, len_d, ang_d, pos_d = [], [], [], []
    for i, j in pairs:
        u, v = ua[i], vb[j]
        vec_d.append(np.hypot(*(u - v)))
        len_d.append(abs(np.hypot(*u) - np.hypot(*v)))
        d = abs(np.arctan2(u[1], u[0]) - np.arctan2(v[1], v[0])) % (2 * np.pi)
        ang_d.append(d if d <= np.pi else 2 * np.pi - d)
        pos_d.append(np.hypot(*(pa[i + 1] - pb[j + 1])))
    assert got.shape == pytest.approx(1 - np.mean(vec_d) / (2 * DIAG), abs=1e-12)
    assert got.length == pytest.approx(1 - np.mean(len_d) / DIAG, abs=1e-12)
    assert got.direction == pytest.approx(1 - np.mean(ang_d) / np.pi, abs=1e-12)
    assert got.position == pytest.approx(1 - np.mean(pos_d) / DIAG, abs=1e-12)


def test_multimatch_is_symmetric(rng):
    for _ in range(10):
        a = _random_path(rng, 7)
        b = _random_path(rng, 5)
        s_ab = multimatch(a, b)
        s_ba = multimatch(b, a)
        np.testing.assert_allclose(s_ab.as_tuple(), s_ba.as_tuple(), atol=1e-12)


def test_multimatch_translation_invariance(rng):
    a = rng.uniform(0.25, 0.7, size=(8, 2))
    b = rng.uniform(0.25, 0.7, size=(8, 2))
    base = multimatch(a, b)
    shift = np.array([0.2, -0.15])
    moved = multimatch(a + shift, b + shift)
    np.testing.assert_allclose(moved.as_tuple(), base.as_tuple(), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(2, 10))
def test_multimatch_scores_bounded(seed, na, nb):
    r = np.random.default_rng(seed)
    a = r.uniform(0.0, 1.0, size=(na, 2))
    b = r.uniform(0.0, 1.0, size=(nb, 2))
    s = multimatch(a, b)
    for v in s.as_tuple() + (s.mean,):
        assert 0.0 <= v <= 1.0
    assert s.mean == pytest.approx(sum(s.as_tuple()) / 4.0, abs=1e-15)


def test_multimatch_bit_exact_against_pair_loop(rng):
    for trial in range(200):
        a = _random_path(rng, int(rng.integers(2, 21)))
        b = _random_path(rng, int(rng.integers(2, 21)))
        if trial % 4 == 0:  # coarse grid: equal costs tie in the alignment
            a, b = np.rint(a * 8) / 8, np.rint(b * 8) / 8
        assert multimatch(a, b).as_tuple() == multimatch_loop(a, b), trial


def test_multimatch_bit_exact_single_saccade(rng):
    one = _random_path(rng, 2)
    for other in (_random_path(rng, 2), _random_path(rng, 9)):
        assert multimatch(one, other).as_tuple() == multimatch_loop(one, other)
        assert multimatch(other, one).as_tuple() == multimatch_loop(other, one)


def test_multimatch_bit_exact_with_zero_length_saccades(rng):
    a = _random_path(rng, 8)
    a[3] = a[2]  # a saccade of length 0, angle 0
    a[6] = a[5]
    b = _random_path(rng, 6)
    b[1] = b[0]
    assert multimatch(a, b).as_tuple() == multimatch_loop(a, b)
    assert multimatch(a, a.copy()).as_tuple() == (1.0, 1.0, 1.0, 1.0)


def test_multimatch_bit_exact_on_float32_scanpaths(rng):
    a = rng.uniform(0.1, 0.9, size=(12, 2)).astype(np.float32)
    b = rng.uniform(0.1, 0.9, size=(16, 2)).astype(np.float32)
    assert multimatch(a, b).as_tuple() == multimatch_loop(a, b)


def test_align_reads_displacement_array_likes(rng):
    # nested lists and float32 arrays align as their float64 arrays do
    for _ in range(10):
        pa, pb = _random_path(rng, 7), _random_path(rng, 11)
        da, db = np.diff(pa, axis=0), np.diff(pb, axis=0)
        want = align(da, db)
        assert align(da.tolist(), db.tolist()) == want
        fa, fb = da.astype(np.float32), db.astype(np.float32)
        assert align(fa, fb) == align(fa.astype(np.float64), fb.astype(np.float64))


def test_multimatch_identical_guard_is_exact_equality(rng):
    # points that differ at all have extent, wherever the path sits
    good = _random_path(rng, 8)
    for near in ([[0.5, 0.5], [0.500001, 0.5]], [[0.0, 0.0], [1e-9, 0.0]]):
        s = multimatch(np.array(near), good)
        assert all(0.0 <= v <= 1.0 for v in s.as_tuple())
    with pytest.raises(ContractError, match="identical"):
        multimatch(np.array([[0.5, 0.5], [0.5, 0.5]]), good)
    with pytest.raises(ContractError, match="identical"):
        multimatch(good, np.zeros((3, 2)))


def test_multimatch_rejects_degenerate_paths(rng):
    flat = np.tile(np.array([[0.4, 0.6]]), (8, 1))
    good = _random_path(rng, 8)
    with pytest.raises(ContractError):
        multimatch(flat, good)
    with pytest.raises(ContractError):
        multimatch(good, flat)


# -- nss over a map ---------------------------------------------------------------------

def test_nss_scanpath_at_unique_max_is_sqrt3():
    gm = np.array([[1.0, 0.0], [0.0, 0.0]])
    path = np.zeros((8, 2))  # every point at x=0, y=0 -> pixel (0, 0)
    assert nss_scanpath(path, gm) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_nss_scanpath_covering_all_pixels_is_zero(rng):
    gm = rng.uniform(size=(2, 2))
    path = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert nss_scanpath(path, gm) == pytest.approx(0.0, abs=1e-12)


def test_nss_scanpath_matches_loop_oracle(rng):
    gm = rng.uniform(size=(7, 9))
    path = rng.uniform(size=(8, 2))
    rows = np.clip(np.round(path[:, 1] * 6), 0, 6).astype(int)
    cols = np.clip(np.round(path[:, 0] * 8), 0, 8).astype(int)
    z = (gm - gm.mean()) / gm.std()
    want = float(np.mean([z[r, c] for r, c in zip(rows, cols)]))
    assert nss_scanpath(path, gm) == pytest.approx(want, abs=1e-12)


def test_nss_scanpath_errors(rng):
    with pytest.raises(ContractError, match="variance"):
        nss_scanpath(rng.uniform(size=(8, 2)), np.full((4, 4), 0.5))
    with pytest.raises(ContractError):
        nss_scanpath(np.zeros((0, 2)), rng.uniform(size=(4, 4)))


# -- congruency ---------------------------------------------------------------------------

def test_congruency_all_points_on_max():
    gm = np.zeros((5, 5))
    gm[2, 3] = 1.0
    path = np.tile(np.array([[3 / 4.0, 2 / 4.0]]), (8, 1))  # (x, y) -> col 3, row 2
    assert congruency(path, gm, percentile=99.0) == 1.0


def test_congruency_no_points_inside():
    # strictly increasing values: the top decile is the bottom-right cells
    gm = np.arange(16.0).reshape(4, 4) / 15.0
    path = np.tile(np.zeros((1, 2)), (4, 1))  # all at the smallest cell
    assert congruency(path, gm, percentile=90.0) == 0.0


def test_congruency_half_inside():
    gm = np.arange(16.0).reshape(4, 4) / 15.0
    path = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert congruency(path, gm, percentile=90.0) == 0.5


def test_congruency_monotone_in_percentile(rng):
    gm = rng.uniform(size=(16, 16))
    path = rng.uniform(size=(8, 2))
    vals = [congruency(path, gm, percentile=p) for p in np.arange(5.0, 100.0, 5.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a


def test_congruency_percentile_bounds(rng):
    gm = rng.uniform(size=(4, 4))
    path = rng.uniform(size=(8, 2))
    for bad in (0.0, 100.0, -5.0, 120.0):
        with pytest.raises(ContractError):
            congruency(path, gm, percentile=bad)


def test_multimatch_scores_dataclass_mean():
    s = MultiMatchScores(shape=1.0, direction=0.5, length=0.75, position=0.25)
    assert s.mean == pytest.approx(0.625, abs=1e-15)
