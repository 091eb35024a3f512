"""No module imports a name it never reads.

No linter runs over the tree, so this walks each module's AST instead: a
top-level import whose bound name is never loaded, and is not listed in
the module's ``__all__``, is dead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/cotds", "tests", "demos")
                 for p in (ROOT / d).glob("*.py"))

# (module, name) -> why the import stays although the module never reads it
KEPT = {
    ("src/cotds/engine.py", "zip_power"):
        "bench/tracing.py patches engine.zip_power by name",
}


def _bound_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _exported(tree)
    return [name for name in _bound_names(tree) if name not in read]


def test_modules_found():
    assert ROOT / "src/cotds/engine.py" in MODULES
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_imports(path):
    rel = str(path.relative_to(ROOT))
    dead = [name for name in dead_imports(path) if (rel, name) not in KEPT]
    assert not dead, f"{rel} imports {dead} and never reads them"


def test_kept_imports_are_still_unread():
    for rel, name in KEPT:
        assert name in dead_imports(ROOT / rel), (
            f"{rel} now reads {name}; drop it from KEPT")


def test_detects_a_dead_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import os\nimport sys as system\nfrom json import dumps\n"
                 "__all__ = ['dumps']\nprint(system.argv)\n")
    assert dead_imports(p) == ["os"]
