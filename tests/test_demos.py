"""Smoke test: every numbered demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import salypath

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(salypath.__file__).resolve().parents[1])
    # temp directories a demo makes land under tmp_path, which pytest cleans
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
