"""Every demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
