"""The package exports what it names, and imports only its declared
dependency, numpy, and no process pools."""

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


EVOLVE_TRACE = """
import sys
from beliefdyn.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def _fresh_interpreter(code, *args):
    # a fresh interpreter, so modules the test runner loaded do not count
    src = str(Path(beliefdyn.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


def test_every_public_name_resolves():
    # a name left in __all__ after its definition went breaks `import *`
    assert [name for name in beliefdyn.__all__ if not hasattr(beliefdyn, name)] == []


def test_importing_every_module_loads_no_scipy():
    assert _fresh_interpreter(IMPORT_ALL).strip() == "[]"


def test_evolve_trace_loads_no_process_pool(tmp_path):
    # the trace's shard writers are bare forks: a pool's import and workers
    # would raise the run's import floor and peak memory
    two_camp = Path(__file__).resolve().parents[1] / "fixtures" / "two_camp"
    inputs = [arg for name in "pmh"
              for arg in (f"--{name}", str(two_camp / f"{name}.csv"))]
    printed = _fresh_interpreter(EVOLVE_TRACE, "evolve", *inputs, "--trace",
                                 "--out", str(tmp_path), "--quiet")
    assert printed.strip() == "[]"
    assert len(list((tmp_path / "trace").iterdir())) == 201
