"""The runtime needs numpy alone.

Two guards keep it so.  A fresh interpreter that imports the CLI, and
through it every module of the package, must not load scipy.  And every
third-party package a module of ``src/cotds`` imports must be named in
``pyproject.toml``'s ``[project].dependencies``, so an import that
creeps in fails here rather than on an install without it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cotds").glob("*.py"))


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _runtime_dependencies() -> set[str]:
    # a PEP 508 requirement starts with its distribution name
    return {re.match(r"[A-Za-z0-9._-]+", d).group().lower()
            for d in _project()["dependencies"]}


def _imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import anywhere in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def third_party_imports(path: Path) -> set[str]:
    return {name for name in _imported_packages(path)
            if name not in sys.stdlib_module_names
            and name not in ("__future__", "cotds")}


def test_cli_loads_no_scipy():
    code = ("import json, sys, cotds.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] in ('cotds', 'scipy'))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    # the CLI pulls in every module of the package ...
    assert loaded >= {"cotds"} | {f"cotds.{p.stem}" for p in MODULES
                                  if p.stem != "__init__"}
    # ... and none of them loads scipy
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_scipy_is_a_test_dependency_only():
    assert "scipy" not in _runtime_dependencies()
    assert any(d.startswith("scipy")
               for d in _project()["optional-dependencies"]["test"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_third_party_imports_are_declared(path):
    undeclared = third_party_imports(path) - _runtime_dependencies()
    assert not undeclared, (
        f"{path.name} imports {sorted(undeclared)}, which "
        "[project].dependencies does not name")


def test_detects_an_undeclared_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from __future__ import annotations\nimport os.path\n"
                 "import numpy as np\nfrom . import engine\n"
                 "def f():\n    from scipy.linalg import blas\n")
    assert third_party_imports(p) == {"numpy", "scipy"}
