"""The library runs on numpy alone: importing any countgrad module loads no scipy.

scipy is a test-only reference. Its import pulls in its array-API layer and
a second OpenBLAS, about 19 MB of resident memory in every process.
"""

import os
import subprocess
import sys
from pathlib import Path

import countgrad

PACKAGE_ROOT = Path(countgrad.__file__).resolve().parents[1]

PROBE = """
import importlib, pkgutil, sys
import countgrad
names = [m.name for m in pkgutil.walk_packages(countgrad.__path__, "countgrad.")]
for name in names:
    importlib.import_module(name)
print(len(names), sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_countgrad_module_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    n_modules, loaded = proc.stdout.split(" ", 1)
    assert int(n_modules) >= 13  # every module, the harness subpackage included
    assert loaded.strip() == "[]"
