"""No ``cylcc`` module calls ``print``: the library reports through its
return values and stdlib ``logging`` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cylcc"


def print_calls(source):
    """Line numbers of every call to the name ``print``."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_detects_print():
    source = "def f(x):\n    if x:\n        print(x, file=None)\n    return x\n"
    assert print_calls(source) == [3]
    assert print_calls("log.print(1)\nprinted = 2\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_print_calls(path):
    assert print_calls(path.read_text()) == []
