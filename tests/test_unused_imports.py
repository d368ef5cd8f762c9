"""Every name imported by a ``cylcc`` module is used in that module, and
every private helper, module-level or a class member, is read in the
module defining it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cylcc"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _class_members(cls):
    """``name -> line`` of each method, property, class-level name and
    ``self.`` attribute a class defines."""
    members = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        members.setdefault(name.id, node.lineno)
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            members.setdefault(node.attr, node.lineno)
    return members


def orphaned_helpers(source):
    """Private names the module never reads, as ``(line, name)``.

    They are the module-level ``_private`` functions, classes and
    constants, and the class members ``Class.name``: the ``_private``
    methods, properties, class-level names and ``self.`` attributes of
    every class, and every member but the dunders of a ``_Private``
    class.  A member counts as read when the module reads an attribute
    of that name on any object.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    orphans = [
        (line, name) for name, line in defined.items() if _private(name) and name not in used
    ]
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            orphans += [
                (line, f"{cls.name}.{name}")
                for name, line in _class_members(cls).items()
                if (_private(name) or _private(cls.name) and not name.startswith("__"))
                and name not in read
            ]
    return sorted(orphans)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_private_helpers(path):
    assert orphaned_helpers(path.read_text()) == []


def test_orphan_scan_sees_class_members():
    source = (
        "class Complex:\n"
        "    def _filtered(self):\n"
        "        self._cache = 1\n"
        "        self.public = 2\n"
        "    def _kept(self):\n"
        "        return self._cut\n"
        "    _cut = None\n"
        "class _Filtration:\n"
        "    counts = ()\n"
        "    def __init__(self):\n"
        "        self.orbits = None\n"
        "        self.keys = None\n"
        "    @property\n"
        "    def sources(self):\n"
        "        return self.keys\n"
        "def _unused():\n"
        "    return Complex()._kept(), _Filtration\n"
    )
    assert orphaned_helpers(source) == [
        (2, "Complex._filtered"),
        (3, "Complex._cache"),
        (9, "_Filtration.counts"),
        (11, "_Filtration.orbits"),
        (14, "_Filtration.sources"),
        (16, "_unused"),
    ]
