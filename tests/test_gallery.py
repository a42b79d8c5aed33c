"""The gallery's quick examples run to completion against the package under test,
and every name the other examples import from countgrad exists."""

import ast
import importlib
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


def countgrad_imports(path):
    """(module, name) for each ``from countgrad... import name`` in a script."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "countgrad":
            yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("script", sorted(p.name for p in GALLERY.glob("*.py") if p.name not in QUICK))
def test_imported_names_exist(script):
    # these examples train a counter first, so only their imports are checked
    names = list(countgrad_imports(GALLERY / script))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
