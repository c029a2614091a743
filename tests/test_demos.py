"""Every demo script runs to completion as a standalone program.

The stdout of demos 01 and 02 is pinned by sha256: neither calls BLAS (01's
digest is the same with one and with two BLAS threads), so their output is
a fixed function of the code, and a change that moves one printed digit
fails here. Demos 03-05 are not pinned: their numbers go through BLAS
products, whose last bits depend on the BLAS build and its thread count.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_dataset.py": "6eb985234e2d7986a4598b5df2e2cf3279891b2a073ebf6ad0af5beef57761e2",
    "02_schedules.py": "eaaaf45cf279af3fe55f640c09db6446cb6acfa9d37919a32ec4ace00143b330",
}


def test_demos_found():
    assert DEMOS
    assert set(STDOUT_SHA256) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    if demo.name in STDOUT_SHA256:
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        assert digest == STDOUT_SHA256[demo.name]
