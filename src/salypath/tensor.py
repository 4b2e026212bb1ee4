"""Dense float32 tensors with eager reverse-mode automatic differentiation.

Design notes, load-bearing:

* All data and all gradients are float32 numpy arrays. There is no dtype
  knob; evaluation code that needs float64 precision (the metrics) works on
  plain numpy outside this module.
* Graphs are built eagerly: every op returns a new Tensor holding references
  to its parents and a closure that maps the output gradient to parent
  gradients. ``backward()`` walks the graph once in reverse topological
  order. Only leaves keep a gradient: ``.grad`` fills on tensors that
  require one and have no vjp (parameters, inputs). An op output's gradient
  lives in the pass's side table until its vjp has run, so calling
  ``backward()`` twice accumulates exactly twice.
* Every ``axis`` argument is read by numpy's rule: negative axes count from
  the end, and an axis out of range raises numpy's ``AxisError`` (a
  repeated one, ``ValueError``).
* Ties in max-style reductions route the gradient to the first index in
  row-major order (numpy argmax convention), for ``axis`` in any order.
  Constant windows therefore send their whole gradient to the top-left cell.
* ``no_grad()`` disables graph construction globally; use it for inference.
* ``+``, ``-`` and ``/`` need the Tensor on the left, ``*`` takes it on
  either side, and ``reshape`` takes separate ints. Every op on an image
  batch checks its rank by one rule, ``_nchw``.
* ``conv2d`` is shift-and-GEMM over a pixel-major flat grid: each kernel
  tap is one BLAS ``sgemm`` with a contiguous shifted slice of the grid that
  adds into the output (``beta=1``; arrays it writes must be F-contiguous
  views, or f2py writes into a copy), and backward reads the same slices.
  Convs are "same": an odd k x k kernel, zero padding k // 2 and stride 1
  keep the input's size (the model downsamples by pooling alone), and the
  zero gaps between rows and planes are the padding. The batch runs in
  groups of whole images that fit in cache; each group fills, multiplies
  and crops its own grid, so the grid, the accumulator and the gradient
  grids are one group in size (allocated once per call and reused).
* A conv site holds only its input and its output until backward: the vjp
  refills each group's padded grid from ``x.data``. ``conv2d(x, layer, relu=True)``
  clamps the output in place and masks the gradient with ``out > 0``,
  which holds exactly where the pre-activation's ``a > 0`` does (NaN and
  -0.0 included), so it gives ``conv2d(x, layer).relu()``'s bits with one
  output buffer, not two.
* ``sgemm`` comes from scipy's BLAS extension module, loaded by file path at
  the first conv (``_sgemm``). That skips ``scipy/linalg/__init__.py``, whose
  imports cost a fresh process ~0.2 s on a 2-vCPU VM, and commands that
  never convolve load no scipy BLAS at all.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_index, normalize_axis_tuple

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .types import check_int

_grad_enabled = True

# Tensor.sigmoid clamps into [smallest normal float32, largest float32 < 1]
_SIGMOID_LO = np.float32(np.finfo(np.float32).tiny)
_SIGMOID_HI = np.float32(1.0 - 2.0 ** -24)


@contextlib.contextmanager
def no_grad():
    """Context manager: ops executed inside build no graph."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float32 array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(
                f"item: tensor has {self.data.size} elements, expected 1"
            )
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- graph plumbing ------------------------------------------------

    def _track(self, out_data, parents, vjp) -> "Tensor":
        out = Tensor(out_data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    def backward(self) -> None:
        """Reverse-mode pass from this scalar.

        Adds into ``.grad`` on every reachable leaf (no vjp) with
        ``requires_grad``; an op output keeps no ``.grad``.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward: loss must be a scalar, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in flows:
                    flows[pid] = flows[pid] + pg
                else:
                    flows[pid] = pg

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _coerce(other)
        def vjp(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))
        return self._track(self.data + other.data, (self, other), vjp)

    def __mul__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        def vjp(g):
            return (_unbroadcast(g * b, self.shape), _unbroadcast(g * a, other.shape))
        return self._track(a * b, (self, other), vjp)

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        other = _coerce(other)
        def vjp(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))
        return self._track(self.data - other.data, (self, other), vjp)

    def __truediv__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        def vjp(g):
            return (
                _unbroadcast(g / b, self.shape),
                _unbroadcast(-g * a / (b * b), other.shape),
            )
        return self._track(a / b, (self, other), vjp)

    def __neg__(self) -> "Tensor":
        return self._track(-self.data, (self,), lambda g: (-g,))

    # -- elementwise functions ------------------------------------------

    def log(self) -> "Tensor":
        a = self.data
        def vjp(g):
            return (g / a,)
        return self._track(np.log(a), (self,), vjp)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        def vjp(g):
            return (g / (2.0 * out_data),)
        return self._track(out_data, (self,), vjp)

    def relu(self) -> "Tensor":
        a = self.data
        def vjp(g):
            return (g * (a > 0),)
        return self._track(np.maximum(a, 0), (self,), vjp)

    def sigmoid(self) -> "Tensor":
        """Logistic function, strictly inside (0, 1) for every float32 input.

        float32 rounds sigmoid(a) to exactly 1.0 from a ~ 17 and to 0.0
        below a ~ -104, so the output is clamped into [tiny, 1 - 2**-24]:
        the smallest normal float32 and the largest float32 below 1. The
        vjp still uses ``out * (1 - out)`` of the clamped output.
        """
        # stable form: only ever exponentiates -|a|
        a = self.data
        e = np.exp(-np.abs(a))
        out_data = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32)
        out_data = np.clip(out_data, _SIGMOID_LO, _SIGMOID_HI)
        def vjp(g):
            return (g * out_data * (1.0 - out_data),)
        return self._track(out_data, (self,), vjp)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape
        def vjp(g):
            return (_spread(g, shape, axis),)
        return self._track(out_data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.shape
        n = self.data.size // max(1, out_data.size)
        inv = np.float32(1.0 / max(1, n))
        def vjp(g):
            return (_spread(np.asarray(g) * inv, shape, axis),)
        return self._track(out_data, (self,), vjp)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max reduction. Ties route the gradient to the first maximal index
        in row-major order, whatever the order of the axes in ``axis``.
        ``axis=None`` reduces over every axis; ``axis`` is read by numpy's
        rule."""
        axes = _axes(axis, self.ndim)
        last = tuple(range(-len(axes), 0))
        moved = np.moveaxis(self.data, axes, last)
        kept = moved.shape[:self.ndim - len(axes)]
        flat = moved.reshape(kept + (math.prod(moved.shape[len(kept):]),))
        idx = np.argmax(flat, axis=-1)[..., None]
        out_data = np.take_along_axis(flat, idx, axis=-1).reshape(
            [1 if i in axes else s for i, s in enumerate(self.shape)] if keepdims else kept)
        def vjp(g):
            dx = np.zeros(flat.shape, dtype=np.float32)
            np.put_along_axis(dx, idx, g.reshape(idx.shape), axis=-1)
            return (np.moveaxis(dx.reshape(moved.shape), last, axes),)
        return self._track(out_data, (self,), vjp)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        old = self.shape
        def vjp(g):
            return (g.reshape(old),)
        return self._track(self.data.reshape(shape), (self,), vjp)

    def __getitem__(self, key) -> "Tensor":
        """Basic (numpy view-style) indexing with gradient scatter."""
        out_data = self.data[key]
        shape = self.shape
        def vjp(g):
            dx = np.zeros(shape, dtype=np.float32)
            dx[key] = g
            return (dx,)
        return self._track(out_data.copy(), (self,), vjp)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _nchw(x, caller: str) -> Tensor:
    """``x`` as a Tensor, checked to have the four axes [B, C, H, W]: the
    one rank check of every op that takes an image batch."""
    x = _coerce(x)
    if x.ndim != 4:
        raise DimensionError(f"{caller}: input must have 4 axes [B,C,H,W], got {x.ndim}")
    return x


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape).astype(np.float32, copy=False)


def _axes(axis, ndim: int) -> tuple[int, ...]:
    """The axes a reduction over ``axis`` (None: all) removes, ascending,
    by numpy's rule."""
    return tuple(range(ndim)) if axis is None else tuple(sorted(normalize_axis_tuple(axis, ndim)))


def _spread(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    """Broadcast a reduction gradient (keepdims or not) over the reduced axes."""
    axes = _axes(axis, len(shape))
    g = np.asarray(g, dtype=np.float32).reshape([1 if i in axes else s
                                                 for i, s in enumerate(shape)])
    return np.broadcast_to(g, shape).astype(np.float32, copy=False)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` (numpy's rule); gradient splits back at
    the seams. Tensors whose ranks or other extents differ raise
    DimensionError carrying numpy's message."""
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    ax = normalize_axis_index(axis, tensors[0].ndim)
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=ax)
    except ValueError as e:
        raise DimensionError(f"concat: {e}") from None
    splits = np.cumsum([t.shape[ax] for t in tensors])[:-1]
    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=ax))
    return tensors[0]._track(out_data, tensors, vjp)


def softmax2d(x: Tensor, beta: float = 1.0) -> Tensor:
    """Softmax over the spatial plane of each channel, scaled by ``beta``.

    Accepts [H,W], [C,H,W] or [B,C,H,W]; the plane is always the trailing
    two axes. Shift-by-max keeps the exponentials bounded for any finite
    input. Raises DimensionError on fewer than 2 axes or an empty plane,
    NumericError on non-finite input, ContractError unless 0 < beta < inf.
    """
    x = _coerce(x)
    if x.ndim < 2:
        raise DimensionError(f"softmax2d: need at least 2 axes, got {x.ndim}")
    if 0 in x.shape[-2:]:
        raise DimensionError(f"softmax2d: empty spatial plane {x.shape[-2]}x{x.shape[-1]}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax2d: input contains non-finite values")
    beta = float(beta)
    if not 0 < beta < float("inf"):  # NaN fails too
        raise ContractError(f"softmax2d: beta must be finite and > 0, got {beta}")
    z = np.float32(beta) * x.data
    z = z - z.max(axis=(-2, -1), keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=(-2, -1), keepdims=True)
    def vjp(g):
        inner = (g * p).sum(axis=(-2, -1), keepdims=True)
        return (np.float32(beta) * p * (g - inner),)
    return x._track(p, (x,), vjp)


# make(name, shape) -> parameter tensor. A model asks for each parameter
# once, by its checkpoint name, so one maker draws fresh weights and another
# hands out a checkpoint's arrays.
ParamMaker = Callable[[str, tuple[int, ...]], Tensor]


def kaiming_uniform(rng: np.random.Generator) -> ParamMaker:
    """Maker of fresh parameters: each ``*.weight`` [out, in, kh, kw] drawn
    uniform in +-sqrt(6/fan_in) with fan_in = in*kh*kw, in call order;
    every other parameter (biases, gates) zero."""
    def make(name: str, shape: tuple[int, ...]) -> Tensor:
        if name.endswith(".weight"):
            bound = float(np.sqrt(6.0 / math.prod(shape[1:])))
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            data = np.zeros(shape, dtype=np.float32)
        return Tensor(data, requires_grad=True)
    return make


def recording(make: ParamMaker, made: dict[str, Tensor]) -> ParamMaker:
    """``make`` that also files each tensor it hands out in ``made`` under
    its name; a name asked for twice raises ContractError."""
    def record(name: str, shape: tuple[int, ...]) -> Tensor:
        if name in made:
            raise ContractError(f"parameter {name!r} made twice")
        made[name] = p = make(name, shape)
        return p
    return record


def _same_conv(shape: tuple[int, ...]) -> None:
    """ConvLayer's one weight rule: [out, in, k, k] with k odd, so that zero
    padding k // 2 keeps the input's size."""
    if len(shape) != 4 or shape[2] != shape[3] or shape[2] < 1 or shape[2] % 2 == 0:
        raise ConfigError(f"ConvLayer: weight must be [out, in, k, k] with k odd, got {shape}")


class ConvLayer:
    """2-D "same" convolution parameters: weight [out_ch, in_ch, k, k] with k
    odd, and bias [out_ch]. The stride is 1 and the zero padding k // 2, so
    the output has the input's size.

    Convolution here is cross-correlation (no kernel flip), the standard
    deep-learning convention.
    """

    def __init__(self, weight: Tensor, bias: Tensor):
        _same_conv(weight.shape)
        if bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise DimensionError(
                f"ConvLayer: bias shape {bias.shape} does not match "
                f"out_channels {weight.shape[0]} on axis 0"
            )
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
             padding: int | None = None) -> "ConvLayer":
        """Kaiming-uniform fan-in init (bound sqrt(6/fan_in)), zero bias."""
        # only benchmarks/probe.py calls this outside the tests, with padding=kernel // 2;
        # the keyword goes with ROADMAP item 1, and until then any other value is an error
        if padding is not None and check_int(padding, "ConvLayer.init: padding") != kernel // 2:
            raise ConfigError(f"ConvLayer.init: padding must be {kernel // 2}, got {padding}")
        return cls.build(kaiming_uniform(rng), "", in_ch, out_ch, kernel)

    @classmethod
    def build(cls, make: ParamMaker, name: str, in_ch: int, out_ch: int,
              kernel: int) -> "ConvLayer":
        """Layer whose ``<name>.weight`` and ``<name>.bias`` come from ``make``,
        weight first, once the kernel passes the rule."""
        _same_conv((out_ch, in_ch, kernel, kernel))
        return cls(make(f"{name}.weight", (out_ch, in_ch, kernel, kernel)),
                   make(f"{name}.bias", (out_ch,)))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return conv2d(x, self, relu)


@functools.cache
def _sgemm():
    """scipy's float32 GEMM, loaded once per process from the extension file
    ``scipy/linalg/_fblas<EXT_SUFFIX>``, with scipy's bundled OpenBLAS set
    to one thread for the rest of the process.

    ``scipy.linalg.blas`` re-exports this module's functions, so this is the
    very object ``scipy.linalg.blas.sgemm`` names, whichever is loaded first
    (the module registers itself as ``scipy.linalg._fblas``). Going through
    ``scipy.linalg`` would run its package ``__init__`` and its
    ``scipy._lib._array_api`` chain: ~210-240 ms per process, against 3-5 ms
    for the file. ``_fblas`` and the OpenBLAS thread setter its handle
    reaches are private scipy API, pinned, not hidden: tests check that this
    is the public ``sgemm``, bit for bit, and that it then runs one thread.
    A scipy that moves or renames the file fails here, naming the path; one
    whose BLAS has no such setter (MKL, Accelerate) warns and keeps its
    thread count. ``import scipy`` first sets up the library paths of
    scipy's bundled BLAS. One thread, because OpenBLAS splits a GEMM by
    thread count (conv bits changed with it); the README measures the cost.
    """
    import ctypes
    import importlib.machinery
    import importlib.util
    from pathlib import Path

    import scipy

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = Path(scipy.__file__).parent / "linalg" / f"_fblas{suffix}"
    if not path.is_file():
        raise ImportError(f"conv2d: scipy's BLAS extension {path} does not exist",
                          path=str(path))
    spec = importlib.util.spec_from_file_location("scipy.linalg._fblas", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "sgemm"):
        raise ImportError(f"conv2d: {path} holds no sgemm", path=str(path))
    blas = ctypes.CDLL(str(path))
    for name in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        if hasattr(blas, name):
            getattr(blas, name)(ctypes.c_int(1))
            return module.sgemm
    warnings.warn(f"conv2d: {path} links no OpenBLAS with (scipy_){name}; conv bits may "
                  "change with its BLAS's thread count", RuntimeWarning)
    return module.sgemm


# Bytes of grid rows one conv2d group of images touches (input and output; in
# backward also the input gradient): small enough to stay in a core's L2 cache across
# the k*k taps. On a 2 MiB-L2 Xeon, phase-1 conv time was flat from 128 KiB to 1 MiB.
_CONV_CHUNK_BYTES = 512 * 1024


def conv2d(x: Tensor, layer: ConvLayer, relu: bool = False) -> Tensor:
    """Batched 2-D cross-correlation by shift-and-GEMM, with an optional
    ReLU epilogue.

    x: [B, C, H, W] with H, W >= 1; the layer's kernel is k x k, k odd,
    zero-padded by p = k // 2. Output: [B, out_ch, H, W].

    The batch runs in groups of n whole images, n fixed by the shapes and
    ``_CONV_CHUNK_BYTES`` so that a group's grid rows stay in a core's
    cache across the taps. Each group is written into a pixel-major flat
    grid of zeros, ``xf[n*Hp*Wp + 2*lead, C]``: image rows are
    ``Wp = W + p`` positions wide, planes ``Hp = H + p`` rows tall, and
    the group's pixel (b, i, j) sits at position
    ``lead + b*Hp*Wp + i*Wp + j`` with ``lead = p*Wp + p``. The output at
    position ``q = b*Hp*Wp + i*Wp + j`` is the sum over taps (ki, kj) of
    ``W[:, :, ki, kj] @ xf[q + ki*Wp + kj]``, so each tap is one GEMM of
    the weight slice with a contiguous shifted slice of the grid, and no
    im2col buffer exists.

    The gaps are p wide: a read up to p past any edge of a row or plane
    lands in the zero gap it shares with its neighbour, or in the grid's
    ``lead`` leading or trailing zeros, where a padded image needs 2p (a
    4x4 plane takes 25 positions, not 36). The gap positions' outputs are
    computed and cropped by the slice that fills the grid, ``[:, :H, :W]``.

    Each tap is one scipy BLAS ``sgemm`` that adds its product straight into
    the group's accumulator ``acc[n*Hp*Wp, out_ch]`` (``beta=1``; the first
    tap writes with ``beta=0``), which is then cropped, bias added, into the
    group's images of the output while it is still in cache. BLAS is
    column-major, so ``acc[:m].T``, the
    grid slices' ``.T`` and ``wt[t].T`` are F-contiguous views, passed with
    no copy. Every ``c`` must be one: f2py's ``overwrite_c`` silently writes
    into a copy of any other array. sgemm is loaded at the first call by
    ``_sgemm``, straight from scipy's ``_fblas`` extension file, so no
    process imports the ``scipy.linalg`` package for it.

    With ``relu``, the output is clamped in place
    (``np.maximum(out, 0, out=out)``, ``Tensor.relu``'s arithmetic) and
    backward masks the output gradient with ``out > 0``. That holds exactly
    where the pre-activation's ``a > 0`` does (NaN fails both; -0.0 and 0.0
    clamp to a zero), so the output, the masked gradient and the bias
    gradient summed from it have the bits of ``conv2d(x, layer).relu()``.

    The vjp keeps only ``x`` and the output: backward refills each group's
    grid from ``x.data``, instead of a padded copy of every conv input
    held until backward (the recompute-for-memory trade of Chen et al.
    2016, arXiv 1604.06174).

    Backward masks the whole output gradient and sums the bias gradient
    from it, then per group scatters its images onto the grid as
    ``gf[n*Hp*Wp, out_ch]`` (zero in the cropped positions) and, per tap,
    accumulates ``dW_t += G @ X_t.T`` and ``dxf[tap].T += W_t.T @ G`` inside
    sgemm, with G = ``gf[:m].T`` and X_t the tap's grid slice; ``dxf`` is
    cropped into the group's images of the input gradient. The input
    gradient is skipped when nothing upstream needs it.

    Scratch is sized to one group, allocated once per call and reused:
    no array but the output, the masked gradient and the input gradient
    scales with the batch. An output or input-gradient element depends on
    its own image's group alone, and the groups run in order, so the same
    inputs in the same batch give the same bits. An image's bits can
    depend on how many images share its group, because BLAS picks its
    kernel by the GEMM's size (``head.1``, 64->56 at 4x4, differs between
    batch 1 and batch 16); where a group is one image, they cannot.
    """
    sgemm = _sgemm()
    x = _nchw(x, "conv2d")
    b, c, h, w = x.shape
    out_ch, in_ch, k, _ = layer.weight.shape
    if c != in_ch:
        raise DimensionError(
            f"conv2d: input axis 1 has {c} channels, layer expects {in_ch}"
        )
    if h < 1 or w < 1:
        raise DimensionError(f"conv2d: empty spatial plane {h}x{w}")
    p = k // 2
    hp, wp = h + p, w + p
    plane = hp * wp
    lead = p * wp + p
    offsets = [ki * wp + kj for ki in range(k) for kj in range(k)]
    # [k*k, C, out_ch]: wt[t].T is tap t's [out_ch, C] weight slice
    wt = np.ascontiguousarray(layer.weight.data.transpose(2, 3, 1, 0)).reshape(-1, c, out_ch)
    per_col = 4 * (out_ch + 2 * c)
    n = max(1, _CONV_CHUNK_BYTES // (per_col * plane))
    groups = [(b0, min(b, b0 + n)) for b0 in range(0, b, n)]
    span = min(b, n) * plane  # grid positions of the largest group
    out_data = np.empty((b, out_ch, h, w), dtype=np.float32)

    def images(rows):
        """The [images, H, W, ch] pixels of a group's grid rows, as a view."""
        return rows.reshape(-1, hp, wp, rows.shape[1])[:, :h, :w]

    def fill(xf, b0, b1):
        m = (b1 - b0) * plane
        xf[m + lead:] = 0  # after a shorter last group: clear the images it left behind
        images(xf[lead:lead + m])[...] = x.data[b0:b1].transpose(0, 2, 3, 1)
        return m

    xf = np.zeros((span + 2 * lead, c), dtype=np.float32)
    acc = np.empty((span, out_ch), dtype=np.float32)
    for b0, b1 in groups:
        m = fill(xf, b0, b1)
        for t, off in enumerate(offsets):
            sgemm(1.0, wt[t].T, xf[off:m + off].T, beta=float(t > 0), c=acc[:m].T, overwrite_c=1)
        grid = images(acc[:m]).transpose(0, 3, 1, 2)
        np.add(grid, layer.bias.data[:, None, None], out=out_data[b0:b1])
        if relu:
            np.maximum(out_data[b0:b1], 0, out=out_data[b0:b1])
    # the vjp must not name xf, acc or grid: each would stay alive until backward

    def vjp(g):
        if relu:
            g = g * (out_data > 0)
        need_dx = x.requires_grad
        db = g.sum(axis=(0, 2, 3))
        xf = np.zeros((span + 2 * lead, c), dtype=np.float32)
        gf = np.zeros((span, out_ch), dtype=np.float32)
        dw = np.zeros((len(offsets), c, out_ch), dtype=np.float32)
        dxf = np.zeros(xf.shape, dtype=np.float32) if need_dx else None
        dx = np.empty(x.shape, dtype=np.float32) if need_dx else None
        for b0, b1 in groups:
            m = fill(xf, b0, b1)
            images(gf[:m])[...] = g[b0:b1].transpose(0, 2, 3, 1)
            gc = gf[:m].T
            for t, off in enumerate(offsets):
                tap = slice(off, m + off)
                sgemm(1.0, gc, xf[tap].T, beta=1.0, c=dw[t].T, trans_b=1, overwrite_c=1)
                if need_dx:
                    sgemm(1.0, wt[t].T, gc, beta=1.0, c=dxf[tap].T, trans_a=1, overwrite_c=1)
            if need_dx:
                dx[b0:b1] = images(dxf[lead:lead + m]).transpose(0, 3, 1, 2)
                dxf.fill(0)
        dw = np.ascontiguousarray(dw.reshape(k, k, c, out_ch).transpose(3, 2, 0, 1))
        return (dx, dw, db)

    return x._track(out_data, (x, layer.weight, layer.bias), vjp)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, on four strided views of the input (one
    per window cell; no window copy, no index array). Requires even
    spatial extents. A window outputs its first cell in row-major order
    that equals its max, bit for bit (of -0.0 and +0.0 the first one, the
    argmax rule), and its gradient goes to that cell alone. A window
    holding NaN pools to NaN and passes no gradient.
    """
    x = _nchw(x, "maxpool2")
    h, w = x.shape[2:]
    if h % 2:
        raise DimensionError(f"maxpool2: axis 2 extent {h} is odd")
    if w % 2:
        raise DimensionError(f"maxpool2: axis 3 extent {w} is odd")
    views = [(Ellipsis, slice(i, None, 2), slice(j, None, 2)) for i in (0, 1) for j in (0, 1)]
    c0, c1, c2, c3 = (x.data[v] for v in views)
    # np.maximum(a, b) returns b when a == b, so each pair is passed later
    # cell first: a tie, down to the sign of a zero, keeps the earlier cell
    out_data = np.maximum(np.maximum(c3, c2), np.maximum(c1, c0))

    def vjp(g):
        dx = np.empty(x.shape, dtype=np.float32)
        dbits, gbits = dx.view(np.uint32), np.asarray(g, dtype=np.float32).view(np.uint32)
        free = np.ones(out_data.shape, dtype=bool)
        for v in views:
            hit = free & (x.data[v] == out_data)
            # an integer product writes g's exact bits where hit, +0.0 elsewhere
            np.multiply(gbits, hit, out=dbits[v])
            free ^= hit
        return (dx,)

    return x._track(out_data, (x,), vjp)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling. The gradient of each input cell is
    the sum over its four replicated output cells, read as strided views
    and added as (top pair) + (bottom pair), as numpy's ``sum(axis=(3, 5))``
    adds them for W > 1."""
    x = _nchw(x, "upsample2")
    b, c, h, w = x.shape
    out_data = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g):
        r = g.reshape(b, c, h, 2, w, 2)
        dx = ((r[:, :, :, 0, :, 0] + r[:, :, :, 0, :, 1])
              + (r[:, :, :, 1, :, 0] + r[:, :, :, 1, :, 1]))
        dx += 0.0  # a window of four -0.0 sums to +0.0 in numpy's sum too
        return (dx,)

    return x._track(out_data, (x,), vjp)
