"""The benchmark's tracer (benchmarks/tracing.py) wraps salypath functions
and methods by name from outside the program, and its kernel probe
(benchmarks/probe.py) calls the conv API directly. Installing the tracer's
patches on this tree must find every name it lists, removing them must
restore the originals, and the probe must still report every conv metric
the benchmark declares."""

import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark_module(monkeypatch, name: str):
    """``benchmarks/<name>.py``, loaded by path with no bytecode written, so
    benchmarks/ is left as it is."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_it_lists(monkeypatch):
    tracing = load_benchmark_module(monkeypatch, "tracing")
    before = [inspect.getattr_static(owner, attr) for owner, attr, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        pass
    after = [inspect.getattr_static(owner, attr) for owner, attr, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_probe_reports_every_declared_conv_metric(monkeypatch):
    probe = load_benchmark_module(monkeypatch, "probe")
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if m["name"].startswith(("tensor.conv2d.hot.", "tensor.conv2d.head."))}
    got = probe.run(reps=1)
    assert declared and set(got) == declared
    assert all(math.isfinite(v) and v > 0 for v, _ in got.values()), got
