"""Smoke test: every numbered demo script, and the README's library
quickstart, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import salypath

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_python(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    src = str(Path(salypath.__file__).resolve().parents[1])
    # temp directories a script makes land under tmp_path, which pytest cleans
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart_runs(tmp_path):
    # the first python block, so the README cannot drift from the API
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len([float(v) for v in proc.stdout.split()]) == 2  # cc and MultiMatch mean
    assert (tmp_path / "model.ckpt").exists()
