"""Per-layer tracing from outside the program.

``Tracer.patched()`` replaces the public functions of each salypath module
with wrappers that record a span: name, start, end, thread and the span
that caused it. Each name is patched where its caller looks it up (a
module global or a class attribute), so the program runs unchanged apart
from the wrapper call. Spans stay in memory; ``dump`` writes them out when
the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import salypath.attention as attention
import salypath.cli as cli
import salypath.data as data
import salypath.model as model
import salypath.saliency_metrics as saliency_metrics
import salypath.scanpath_metrics as scanpath_metrics
import salypath.tensor as tensor
import salypath.trainer as trainer

LAYERS = ("tensor", "attention", "model", "losses", "trainer", "checkpoint", "data",
          "saliency_metrics", "scanpath_metrics", "cli")

# Entry points: spans that only hand work to the layers below them. Their
# self time is call overhead, not attributed to a layer in the coverage share.
ENTRY_SPANS = ("cli.main", "cli.cmd_train", "cli.cmd_predict", "cli.cmd_eval_saliency",
               "cli.cmd_eval_scanpath", "cli.eval_record", "trainer.train")

# (owner, attribute, span name). The owner is where the caller looks the
# name up, e.g. ConvLayer.__call__ reads the module global tensor.conv2d.
PATCHES = [
    (tensor, "conv2d", "tensor.conv2d"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (model, "maxpool2", "tensor.maxpool2"),
    (model, "upsample2", "tensor.upsample2"),
    (model, "softmax2d", "tensor.softmax2d"),
    (model, "concat", "tensor.concat"),
    (attention, "concat", "tensor.concat"),
    (model, "attend", "attention.attend"),
    (attention, "channel_attention", "attention.channel_attention"),
    (attention, "spatial_attention", "attention.spatial_attention"),
    (model.SalypathModel, "encode", "model.encode"),
    (model.SalypathModel, "decode", "model.decode"),
    (model.SalypathModel, "scanpath_features", "model.scanpath_features"),
    (model.SalypathModel, "forward_tensors", "model.forward_tensors"),
    (model.SalypathModel, "forward", "model.forward"),
    (model.SalypathModel, "load", "model.load"),
    (model, "soft_argmax", "model.soft_argmax"),
    (trainer, "soft_argmax", "model.soft_argmax"),
    (trainer, "saliency_loss", "losses.saliency_loss"),
    (trainer, "scanpath_loss", "losses.scanpath_loss"),
    (trainer, "train", "trainer.train"),
    (cli, "train", "trainer.train"),
    (trainer, "prepare_samples", "trainer.prepare_samples"),
    (trainer.Adam, "step", "trainer.optimizer_step"),
    (trainer.SGD, "step", "trainer.optimizer_step"),
    (trainer, "resample_map", "data.resample_map"),
    (trainer, "resample_stimulus", "data.resample_stimulus"),
    (model, "save_checkpoint", "checkpoint.save"),
    (model, "load_checkpoint", "checkpoint.load"),
    (data, "read_ppm", "data.read_ppm"),
    (data, "read_pgm", "data.read_pgm"),
    (data, "write_pgm", "data.write_pgm"),
    (data, "write_scanpath_csv", "data.write_scanpath_csv"),
    (data, "read_scanpath_csv", "data.read_scanpath_csv"),
    (data, "load_manifest", "data.load_manifest"),
    (data, "resample_map", "data.resample_map"),
    (data, "resample_stimulus", "data.resample_stimulus"),
    (saliency_metrics, "auc_judd", "saliency_metrics.auc_judd"),
    (saliency_metrics, "auc_borji", "saliency_metrics.auc_borji"),
    (saliency_metrics, "nss", "saliency_metrics.nss"),
    (saliency_metrics, "cc", "saliency_metrics.cc"),
    (saliency_metrics, "sim", "saliency_metrics.sim"),
    (saliency_metrics, "kld", "saliency_metrics.kld"),
    (scanpath_metrics, "multimatch", "scanpath_metrics.multimatch"),
    (scanpath_metrics, "align", "scanpath_metrics.align"),
    (scanpath_metrics, "to_saccades", "scanpath_metrics.to_saccades"),
    (scanpath_metrics, "nss_scanpath", "scanpath_metrics.nss_scanpath"),
    (scanpath_metrics, "congruency", "scanpath_metrics.congruency"),
    (cli, "main", "cli.main"),
    (cli, "cmd_train", "cli.cmd_train"),
    (cli, "cmd_predict", "cli.cmd_predict"),
    (cli, "cmd_eval_saliency", "cli.cmd_eval_saliency"),
    (cli, "cmd_eval_scanpath", "cli.cmd_eval_scanpath"),
]


class Span:
    __slots__ = ("parent", "name", "t0", "t1", "children")

    def __init__(self, parent, name, t0):
        self.parent, self.name, self.t0, self.t1 = parent, name, t0, t0
        self.children: list[Span] = []

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3

    @property
    def self_ms(self) -> float:
        """Duration minus the union of the child intervals."""
        covered, end = 0.0, self.t0
        for c in sorted(self.children, key=lambda s: s.t0):
            lo, hi = max(c.t0, end), min(c.t1, self.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        return (self.t1 - self.t0 - covered) * 1e3

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class Tracer:
    def __init__(self):
        self.roots: list[Span] = []
        self.pool_workers: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else parent
        s = Span(parent, name, time.perf_counter())
        (parent.children if parent is not None else self.roots).append(s)  # atomic append
        stack.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            stack.pop()

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _pool(self):
        """ThreadPoolExecutor whose map runs each task in a cli.eval_record
        span parented to the submitting span, across the thread boundary."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.pool_workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()

                def task(*args):
                    with tracer.span("cli.eval_record", parent=parent):
                        return fn(*args)
                return super().map(task, *iterables, **kwargs)
        return TracedPool

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in PATCHES:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
            cli.ThreadPoolExecutor = self._pool()
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self, path, summary: dict) -> None:
        def enc(s: Span) -> dict:
            return {"name": s.name, "start_ms": s.t0 * 1e3, "ms": s.ms, "self_ms": s.self_ms,
                    "children": [enc(c) for c in s.children]}
        with open(path, "w") as f:
            json.dump({"summary": summary, "spans": [enc(r) for r in self.roots]}, f)


# -- summaries over the spans of some root operations ------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Profile:
    """Self time, inclusive time and call count by span name, over the
    spans below a set of root operations (the roots themselves excluded)."""

    def __init__(self, roots: list[Span]):
        self.n_roots = len(roots)
        self.wall_ms = sum(r.ms for r in roots)
        self.self_ms = defaultdict(float)
        self.incl_ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.unattributed_ms = sum(r.self_ms for r in roots)
        for r in roots:
            for s in r.walk():
                if s is r:
                    continue
                self.self_ms[s.name] += s.self_ms
                self.incl_ms[s.name] += s.ms
                self.calls[s.name] += 1
                if s.name in ENTRY_SPANS:
                    self.unattributed_ms += s.self_ms

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ms in self.self_ms.items():
            out[layer_of(name)] += ms
        return out

    def attributed_pct(self) -> float:
        """Share of the roots' wall time spent in named layer spans below
        the entry points."""
        return 100.0 * (1.0 - self.unattributed_ms / self.wall_ms) if self.wall_ms else 0.0
