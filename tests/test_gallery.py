"""The gallery's quick examples run to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import countgrad

GALLERY = Path(__file__).resolve().parents[1] / "gallery"
PACKAGE_ROOT = Path(countgrad.__file__).resolve().parents[1]

# The scripts that finish in about a second; the rest train a counter first.
QUICK = {
    "01_cardinality_maps.py": "cardinality map total",
    "02_gradient_checking.py": "leaky_relu at a kink: at_kink=True",
}


@pytest.mark.parametrize("script", sorted(QUICK))
def test_quick_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    proc = subprocess.run(
        [sys.executable, str(GALLERY / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert QUICK[script] in proc.stdout
