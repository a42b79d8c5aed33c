"""The gallery's quick examples run to completion against the package under test,
and every name the other examples take from countgrad exists."""

import ast
import importlib
import importlib.util
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
    "02_gradient_checking.py": "l1_diff at a kink: at_kink=True",
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


def countgrad_names(path):
    """(module, name) for each name a script takes from countgrad.

    That is each ``from countgrad... import name``, and each attribute it
    reads off a countgrad module imported that way (``ad.Tape`` after
    ``from countgrad import autodiff as ad``).
    """
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> countgrad module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "countgrad":
            package = hasattr(importlib.import_module(node.module), "__path__")
            for alias in node.names:
                yield node.module, alias.name
                if package and importlib.util.find_spec(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield modules[node.value.id], node.attr


@pytest.mark.parametrize("script", sorted(p.name for p in GALLERY.glob("*.py") if p.name not in QUICK))
def test_imported_names_exist(script):
    # these examples train a counter first, so only the names they use are checked
    names = list(countgrad_names(GALLERY / script))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
