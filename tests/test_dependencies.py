"""The package exports what it names, keeps only public names that
something uses and only private names that its own code uses, and imports
only its declared dependency, numpy, with no process pools and no
dataclasses."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import beliefdyn

ROOT = Path(__file__).resolve().parents[1]

# Public names kept whether or not src/, demos/ or bench/ use them, each
# with its reason: a paper claim, the benchmark or the reproducibility recipe.
KEPT_WITHOUT_CALLER = {
    "ergodic.is_scrambling": 'claim c12, "scrambling implies SIA"',
    "ergodic.contraction_coefficient": "claim c04's contraction values",
    "ergodic.subdominant_modulus": "the paper's rate lambda; the benchmark traces it",
    "ergodic.power_contraction_holds": "the block-rate inequality of a sound rate bound",
    "rng.Xoshiro256StarStar.next_uint64": "the documented reproducibility recipe",
    "clusters.kl_divergence": "bench/test_bench.py reads this re-export",
    "sampling.SampledRun.word_h": "the concept stream's drawn word, the other half "
                                  "of the reproducibility record beside word_p",
}

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


def test_importing_the_cli_loads_no_dataclasses():
    # every run imports the CLI; each @dataclass would compile its generated
    # methods at that import, about 0.8 ms a record
    printed = _fresh_interpreter("import sys, beliefdyn.cli; print('dataclasses' in sys.modules)")
    assert printed.strip() == "False"


def test_evolve_trace_loads_no_process_pool(tmp_path):
    # the CLI process writes every trace file itself: a pool's import and
    # workers would raise the run's import floor and peak memory
    two_camp = Path(__file__).resolve().parents[1] / "fixtures" / "two_camp"
    inputs = [arg for name in "pmh"
              for arg in (f"--{name}", str(two_camp / f"{name}.csv"))]
    printed = _fresh_interpreter(EVOLVE_TRACE, "evolve", *inputs, "--trace",
                                 "--out", str(tmp_path), "--quiet")
    assert printed.strip() == "[]"
    assert len(list((tmp_path / "trace").iterdir())) == 201


def _fields(cls):
    """Attributes that ``cls.__init__`` assigns: each ``self.<name> = ...``
    target and each keyword of ``vars(self).update(...)``."""
    init = vars(cls).get("__init__")
    if not inspect.isfunction(init):
        return []
    fields = []
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(init)))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"):
            fields.append(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "update"
              and ast.unparse(node.func.value) == "vars(self)"):
            fields.extend(keyword.arg for keyword in node.keywords)
    return fields


def _public_names():
    """``module.name`` of every public function or class a module defines;
    ``module.Class.name`` of every public method or property of such a class
    and, unless it is an exception (its fields are fault data), of every
    public field its ``__init__`` sets.  Each maps to its source file and the
    word a use must name: the name itself, or ``.name`` for a field, which
    only an attribute read uses (a field's name is often also a local
    variable's or a config key's)."""
    names = {}
    for info in pkgutil.iter_modules(beliefdyn.__path__):
        module = importlib.import_module("beliefdyn." + info.name)
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if (not name.startswith("_") and defined_here
                    and (inspect.isfunction(obj) or inspect.isclass(obj))):
                path = Path(inspect.getsourcefile(obj)).resolve()
                names[f"{info.name}.{name}"] = path, name
                if inspect.isclass(obj):
                    names.update((f"{info.name}.{name}.{attr}", (path, attr))
                                 for attr, member in vars(obj).items()
                                 if not attr.startswith("_")
                                 and (inspect.isfunction(member) or isinstance(member, property)))
                    if not issubclass(obj, BaseException):
                        names.update((f"{info.name}.{name}.{attr}", (path, "." + attr))
                                     for attr in _fields(obj) if not attr.startswith("_"))
    return names


def _words(node, docstrings):
    """Identifiers that one AST node names: a name, an attribute (also as
    ``.attr``), or a word of a string that is not a docstring (the benchmark
    traces names as text)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr, "." + node.attr]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings):
        return re.findall(r"\w+", node.value)
    return []


def _bound(stmt):
    """Names a top-level statement binds: a function's or class's name, or
    an assignment's plain targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _users(dirs=("src", "demos", "bench")):
    """Each identifier used in the files under ``dirs`` -> the (file,
    top-level name) it is used in; imports and ``__all__`` are not uses."""
    users = defaultdict(set)
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for stmt in tree.body:
            bound = _bound(stmt)
            if "__all__" in bound:
                continue
            owner = bound[0] if bound else None
            for node in ast.walk(stmt):
                for word in _words(node, docstrings):
                    users[word].add((path.resolve(), owner))
    return users


def test_every_public_name_has_a_use_or_a_reason():
    # a use inside the name's own definition does not count, nor, for a
    # method or a record field, a use inside its own class: such a method
    # could be private, and such a field need not be stored
    users = _users()
    unused = [key for key, (path, word) in _public_names().items()
              if key not in KEPT_WITHOUT_CALLER
              and not users[word] - {(path, key.split(".")[1])}]
    assert unused == []


def _private_names():
    """(file, name) of every private name a module of the package binds at
    its top level: a function, a class or an assignment target."""
    names = []
    for path in sorted((ROOT / "src" / "beliefdyn").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names += [(path.resolve(), name) for name in _bound(stmt)
                      if name.startswith("_") and not name.startswith("__")]
    return names


def test_every_private_name_has_a_use_in_src():
    # a private helper that only its own definition, or only a test, still
    # names is left over from a refactor
    users = _users(("src",))
    unused = [f"{path.stem}.{name}" for path, name in _private_names()
              if not users[name] - {(path, name)}]
    assert unused == []


def test_every_kept_name_exists():
    missing = []
    for key in KEPT_WITHOUT_CALLER:
        module, *parts, last = key.split(".")
        obj = importlib.import_module("beliefdyn." + module)
        for part in parts:
            obj = getattr(obj, part, None)
        if not (hasattr(obj, last) or inspect.isclass(obj) and last in _fields(obj)):
            missing.append(key)
    assert missing == []


def test_every_name_the_benchmark_traces_resolves():
    # bench/tracing.py rebinds each traced module.function, the RNG class's
    # next_index and __init__, and the CLI's own run_homophily binding; a
    # refactor that drops one of them would otherwise break only the benchmark
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.traced_names():
        module, func = name.split(".")
        if module != "rng" and not hasattr(importlib.import_module(f"beliefdyn.{module}"), func):
            missing.append(name)
    assert missing == []
    from beliefdyn.rng import Xoshiro256StarStar
    assert {"next_index", "__init__"} <= set(vars(Xoshiro256StarStar))
    import beliefdyn.cli
    import beliefdyn.homophily
    assert beliefdyn.cli.run_homophily is beliefdyn.homophily.run_homophily
