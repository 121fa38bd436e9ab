"""The package imports only its declared dependency, numpy."""

import os
import subprocess
import sys
from pathlib import Path

import beliefdyn

IMPORT_ALL = """
import importlib, pkgutil, sys
import beliefdyn
for module in pkgutil.iter_modules(beliefdyn.__path__):
    importlib.import_module("beliefdyn." + module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_importing_every_module_loads_no_scipy():
    # a fresh interpreter, so modules the test runner loaded do not count
    src = str(Path(beliefdyn.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
