"""Shared test helpers: central finite-difference gradient checking and
small input factories that keep inputs away from non-smooth points."""

import numpy as np
import pytest

from salypath.data import DatasetManifest, generate_synthetic, write_pgm, write_ppm
from salypath.tensor import Tensor

EPS = 1e-3
REL_TOL = 1e-3


def numeric_grad(fn, t: Tensor, eps: float = EPS) -> np.ndarray:
    """Central differences of the scalar fn() with respect to t.data."""
    flat = t.data.reshape(-1)
    out = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i].copy()
        flat[i] = orig + np.float32(eps)
        fp = float(fn().data)
        flat[i] = orig - np.float32(eps)
        fm = float(fn().data)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * eps)
    return out.reshape(t.data.shape)


def gradcheck(fn, tensors, eps: float = EPS, rel_tol: float = REL_TOL) -> float:
    """Assert analytic gradients match central differences for every tensor.

    fn rebuilds the graph from the tensors' current .data each call and
    returns a scalar Tensor. Returns the worst relative error seen.
    Relative error uses max(|analytic|, |numeric|, 1) as denominator, the
    usual guard against blowing up near-zero gradients.
    """
    worst = 0.0
    for t in tensors:
        t.grad = None
    fn().backward()
    for t in tensors:
        assert t.grad is not None, "gradient not populated"
        assert t.grad.shape == t.data.shape
        num = numeric_grad(fn, t, eps)
        ana = t.grad.astype(np.float64)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1.0)
        rel = np.abs(ana - num) / denom
        worst = max(worst, float(rel.max()))
        assert rel.max() < rel_tol, (
            f"gradient mismatch: worst rel err {rel.max():.2e} at "
            f"{np.unravel_index(rel.argmax(), rel.shape)} "
            f"(analytic {ana.reshape(-1)[rel.argmax()]:.6g}, "
            f"numeric {num.reshape(-1)[rel.argmax()]:.6g})"
        )
    return worst


def distinct_values(rng: np.random.Generator, shape, lo=-1.0, hi=1.0,
                    margin_scale: float = 1.0) -> np.ndarray:
    """Random-looking float32 array whose values are pairwise distinct with
    a gap comfortably above the finite-difference step, so max/pool argmax
    picks cannot flip under +-eps perturbation."""
    n = int(np.prod(shape))
    span = np.linspace(lo, hi, n, dtype=np.float64) * margin_scale
    vals = rng.permutation(span)
    return vals.reshape(shape).astype(np.float32)


def away_from_zero(rng: np.random.Generator, shape, min_abs: float = 0.01,
                   scale: float = 1.0) -> np.ndarray:
    """Random values with |x| >= min_abs (keeps relu kinks out of reach)."""
    x = rng.normal(scale=scale, size=shape)
    x = np.where(np.abs(x) < min_abs, np.sign(x) * min_abs + x, x)
    x[x == 0] = min_abs
    return x.astype(np.float32)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root`` through its parents, root first."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def mis_sized_dataset(root) -> DatasetManifest:
    """A 3-record 16x16 synthetic dataset under ``root`` whose record 1
    stimulus and record 2 map are rewritten as valid 8x8 images."""
    man = generate_synthetic(3, seed=0, size=(16, 16), out_dir=root)
    rng = np.random.default_rng(0)
    write_ppm(man.stimulus_path(1), rng.random((3, 8, 8)))
    write_pgm(man.map_path(2), rng.random((8, 8)))
    return man


@pytest.fixture
def rng():
    return np.random.default_rng(0)
