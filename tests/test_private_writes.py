"""No module writes another object's private attribute.

A name with a leading underscore is its owner's own: the owner's methods
may assign it through ``self``, and nothing else may.  This walks each
module's AST for assignment targets, augmented and annotated assignments
included, and reports every underscore attribute assigned on anything
but ``self``.  A target indexed into such an attribute (``d._out[0] = v``)
writes it too.

The acceptance suite holds a stricter rule: it assigns no attribute on
anything.  It reaches a sub-system only through its methods
(``state()``, ``set_state()``, ``rotate()``, ``snapshot()``) and the run
API, so a change of a sub-system's fields cannot silently bypass it.
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


def _attribute_writes(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for target in _targets(tree):
        yield from _written(target)


def _lines(attrs) -> list[str]:
    found = [f"{attr.lineno}: {ast.unparse(attr)}" for attr in attrs]
    return sorted(found, key=lambda s: int(s.split(":")[0]))


def private_writes(path: Path) -> list[str]:
    """``line: target`` for each private attribute written on non-self."""
    return _lines(attr for attr in _attribute_writes(path)
                  if attr.attr.startswith("_") and not (
                      isinstance(attr.value, ast.Name)
                      and attr.value.id == "self"))


def attribute_writes(path: Path) -> list[str]:
    """``line: target`` for each attribute written, on anything."""
    return _lines(_attribute_writes(path))


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


def test_acceptance_assigns_no_attribute():
    path = ROOT / "tests/test_acceptance.py"
    found = attribute_writes(path)
    assert not found, (f"{path.relative_to(ROOT)} assigns attributes; "
                       f"reach sub-systems through their methods: {found}")


def test_detects_an_attribute_write(tmp_path):
    p = tmp_path / "t.py"
    p.write_text(
        "def f(sub, log, v):\n"
        "    log = object()\n"
        "    v[0] = sub.state()[0]\n"
        "    sub.x = 1\n"
        "    sub.fd.v[1:] = v\n"
        "    log.diverged += True\n"
        "    a, sub.y = 2, 3\n")
    assert attribute_writes(p) == ["4: sub.x", "5: sub.fd.v", "6: log.diverged",
                                   "7: sub.y"]
