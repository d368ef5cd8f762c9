"""``evaluation._Stack`` is the one trig-polynomial evaluator: every
``np.sin`` and ``np.cos`` in ``evaluation.py`` lies inside ``class _Stack``."""

import ast
from pathlib import Path

EVALUATION = Path(__file__).resolve().parent.parent / "src" / "cylcc" / "evaluation.py"


def trig_outside_stack(source):
    """Line numbers of each ``np.sin`` or ``np.cos``, called or not, outside ``class _Stack``."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Stack":
            inside |= {id(n) for n in ast.walk(node)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in ("sin", "cos")
        and id(node) not in inside
    )


def test_detects_trig_outside_stack():
    source = (
        "import numpy as np\n"
        "class _Stack:\n"
        "    def f(self, x):\n"
        "        return np.sin(x) + np.cos(x)\n"
        "class Poly:\n"
        "    def f(self, x):\n"
        "        return np.sin(x)\n"
        "cos = np.cos\n"
        "np.tan(1.0)\n"
        "math.sin(1.0)\n"
    )
    assert trig_outside_stack(source) == [7, 8]


def test_only_the_stack_calls_sin_and_cos():
    assert trig_outside_stack(EVALUATION.read_text()) == []
