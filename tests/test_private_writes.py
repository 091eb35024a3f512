"""No module writes another object's private attribute.

A name with a leading underscore is its owner's own: the owner's methods
may assign it through ``self``, and nothing else may.  This walks each
module's AST for assignment targets, augmented and annotated assignments
included, and reports every underscore attribute assigned on anything
but ``self``.  A target indexed into such an attribute (``d._out[0] = v``)
writes it too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src/cotds").glob("*.py"))


def _targets(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield node.target


def _written(target: ast.expr):
    """The attributes a target assigns, indexing included."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    elif isinstance(target, ast.Subscript):
        yield from _written(target.value)
    elif isinstance(target, ast.Attribute):
        yield target


def private_writes(path: Path) -> list[str]:
    """``line: target`` for each private attribute written on non-self."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for target in _targets(tree):
        for attr in _written(target):
            owner = attr.value
            if attr.attr.startswith("_") and not (
                    isinstance(owner, ast.Name) and owner.id == "self"):
                found.append(f"{attr.lineno}: {ast.unparse(attr)}")
    return sorted(found, key=lambda s: int(s.split(":")[0]))


def test_modules_found():
    assert ROOT / "src/cotds/engine.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_writes_across_objects(path):
    found = private_writes(path)
    assert not found, (f"{path.relative_to(ROOT)} writes private "
                       f"attributes of other objects: {found}")


def test_detects_a_private_write(tmp_path):
    p = tmp_path / "m.py"
    p.write_text(
        "class A:\n"
        "    def f(self, d):\n"
        "        self._ok = 1\n"
        "        self._ok[0] += 1\n"
        "        self.public, d.public = 1, 2\n"
        "        d._out = 3\n"
        "        self.d._out[0] = 4\n"
        "        x, (y, d._pair) = 5, (6, 7)\n"
        "        d._n += 1\n"
        "        d._t: int = 8\n")
    assert private_writes(p) == ["6: d._out", "7: self.d._out",
                                 "8: d._pair", "9: d._n", "10: d._t"]
