"""The package's syntax floor: ``pyproject.toml`` declares requires-python >= 3.10."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cylcc"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_declared_floor_is_3_10():
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
