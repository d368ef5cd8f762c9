"""No ``cylcc`` module reads another one's private names.

A read is ``module._name`` on a name bound to a ``cylcc`` module, or
``from .module import _name``.  ``PINNED`` lists the reads allowed; it
is empty, and a pinned read that disappears fails too.

A private dataclass field is state the object derives or holds for
itself: it is no constructor argument and takes no part in ``==``,
``hash`` or ``repr``.  ``PRIVATE_FIELDS`` lists every such field.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cylcc"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}

PINNED = set()

PRIVATE_FIELDS = {
    "complexes.ModuliDataset._filtrations",
    "evaluation.EvMapSpec._searches",
    "evaluation.EvMapSpec._stack",
    "evaluation.LiftedEvMap._stack",
    "evaluation.TrigPolynomial._amp",
    "evaluation.TrigPolynomial._const",
    "evaluation.TrigPolynomial._orders",
    "evaluation.TrigPolynomial._shift",
    "orientation.FredholmModel._phi",
    "orientation.FredholmModel._rank",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source, reader):
    """``(reader, module, name)`` for each private name ``reader`` reads of another module."""
    tree = ast.parse(source)
    bound = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "cylcc"
            owner = node.module.rsplit(".", 1)[-1] if node.module else None
            for alias in node.names:
                if package and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif owner in MODULES and _private(alias.name):
                    reads.add((reader, owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cylcc" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _private(node.attr)
            and bound[node.value.id] != reader
        ):
            reads.add((reader, bound[node.value.id], node.attr))
    return reads


def test_only_pinned_private_reads():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= private_reads(path.read_text(), path.stem)
    assert found == PINNED


def test_scanner_sees_each_form_of_read():
    source = (
        "from . import ratmat\n"
        "from .complexes import _Filtration, GradedMap\n"
        "import cylcc.spectral as sp\n"
        "ratmat._clear([1])\n"
        "ratmat.rank([[1]])\n"
        "sp._closed_form_entry\n"
        "self._cache\n"
    )
    assert private_reads(source, "complexes_reader") == {
        ("complexes_reader", "ratmat", "_clear"),
        ("complexes_reader", "complexes", "_Filtration"),
        ("complexes_reader", "spectral", "_closed_form_entry"),
    }


def test_private_fields_stay_out_of_construction_and_comparison():
    found = set()
    for stem in sorted(MODULES):
        module = importlib.import_module(f"cylcc.{stem}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            if not dataclasses.is_dataclass(cls):
                continue
            for f in dataclasses.fields(cls):
                if _private(f.name):
                    name = f"{stem}.{cls.__name__}.{f.name}"
                    found.add(name)
                    assert (f.init, f.compare, f.repr) == (False, False, False), name
    assert found == PRIVATE_FIELDS
