"""The benchmark's tracer (benchmarks/tracing.py) wraps salypath functions
and methods by name from outside the program. Installing its patches on
this tree must find every name it lists, and removing them must restore
the originals."""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_patches_every_name_it_lists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = [inspect.getattr_static(owner, attr) for owner, attr, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        pass
    after = [inspect.getattr_static(owner, attr) for owner, attr, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(after, before))
