"""Every name imported by the package modules and the demos is used,
every private module-level name of the package is referred to, and the
package runs on numpy alone: no module imports scipy, and no command or
scan loads it."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\n"
                     "print(np.pi, sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 3)"]


SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))


def _unreferenced_private(trees: list[ast.Module]) -> list[str]:
    """Module-level private functions, classes and constants that no other
    top-level statement of any of the modules refers to."""
    defined = []  # (name, defining statement)
    statements = []
    for tree in trees:
        for stmt in tree.body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    refs = []  # names each statement refers to
    for stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        refs.append(names)
    return sorted(name for name, own in defined
                  if not any(name in names for stmt, names in zip(statements, refs)
                             if stmt is not own))


def test_no_unreferenced_private_definitions():
    trees = [ast.parse(p.read_text()) for p in SRC_MODULES]
    assert _unreferenced_private(trees) == []


def test_guard_sees_an_unreferenced_private_definition():
    a = ast.parse("_LIMIT = 3\n_SPARE = 4\n\n\n"
                  "def _used(n):\n    return _used(n - 1) + _LIMIT\n\n\n"
                  "def _self_only(n):\n    return _self_only(n - 1)\n\n\n"
                  "class _Helper:\n    pass\n")
    b = ast.parse("from .a import _used\nfrom . import a\n\nVALUE = _used(2) + a._Helper.x\n")
    assert _unreferenced_private([a, b]) == ["_SPARE", "_self_only"]


def _scipy_imports(tree: ast.Module) -> list[str]:
    """Imports of scipy anywhere in a module, inside functions included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_scipy(path):
    assert _scipy_imports(ast.parse(path.read_text())) == []


def test_guard_sees_a_scipy_import():
    tree = ast.parse("import numpy\nimport scipy.special as sp\n\n\n"
                     "def f():\n    from scipy import ndimage\n    return ndimage\n\n\n"
                     "class A:\n    def g(self):\n        import scipy\n"
                     "from .scipy_like import x\n")
    assert _scipy_imports(tree) == ["scipy.special (line 2)", "scipy (line 6)",
                                    "scipy (line 12)"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


# Every CLI command, and library scans in one to four dimensions, in one
# process: none of them may load scipy.
NUMPY_ONLY = """
import sys

from sobolev_pointwise import (Box, Domain, GaussianField, GridSpec, PairSampler, SinusoidField,
                               identity_suite, main_inequality_scan, node_discard_check)
from sobolev_pointwise.cli import main

for dim, points in ((1, 201), (2, 41), (3, 21)):
    grid = GridSpec.cube(-1.0, 1.0, points, dim)
    sampler = PairSampler(Domain(Box.of_grid(grid)), 100, dim, 0.1, 0.4)
    assert main_inequality_scan(SinusoidField((2.0,) * dim), 2, grid, sampler).passed
    assert node_discard_check(GaussianField(1.0, dim), 2, grid, sampler).passed
grid = GridSpec.cube(-1.0, 1.0, 9, 4)
sampler = PairSampler(Domain(Box.of_grid(grid)), 100, 4, 0.5, 0.6)
assert main_inequality_scan(SinusoidField((1.0,) * 4), 1, grid, sampler).passed
assert identity_suite(5)["draws"] == 5
commands = [
    ["identities", "--draws", "5"],
    *(["verify", "--scan", scan, "--m", "1" if scan == "lemma1" else "2",
       "--field", "sin:w=2", "--grid", "-1:1:101", "--pairs", "100"]
      for scan in ("lemma1", "main", "node-discard", "hatl")),
    ["triebel", "--field", "sin:w=2", "--grid", "-1:1:161", "--m", "2", "--pairs", "80"],
    ["mollify", "--field", "sin:w=3", "--grid", "-1:1:161", "--m", "1", "--pairs", "80",
     "--eps", "0.2,0.1"],
    ["mollify", "--field", "sin:w=3", "--grid", "-2:2:401", "--m", "1", "--pairs", "80",
     "--profile", "gauss", "--eps", "0.2"],
    ["geometry", "--dim", "6"],
]
for argv in commands:
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_and_no_scan_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_package_exports_are_the_module_exports():
    import inspect

    import sobolev_pointwise
    from sobolev_pointwise import differences, exceptions, fields, maximal, mollify, verify

    names = set()
    for module in (differences, fields, maximal, mollify, verify):
        names.update(module.__all__)
    names.update(name for name, obj in vars(exceptions).items()
                 if inspect.isclass(obj) and issubclass(obj, Exception)
                 and obj.__module__ == exceptions.__name__)
    assert sorted(sobolev_pointwise.__all__) == sorted(names)
    assert len(sobolev_pointwise.__all__) == len(names)
    assert all(hasattr(sobolev_pointwise, name) for name in names)
