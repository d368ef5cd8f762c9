"""The test configuration turns warnings into errors without losing failures.

``pyproject.toml`` makes every warning an error except the one
``DeprecationWarning`` that hypothesis's failure report raises through
libcst; as an error it aborted the whole run with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_other_deprecation_is_an_error():
    warnings.warn("some other deprecated name", DeprecationWarning)
'''


def test_failing_property_is_reported(tmp_path):
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "DeprecationWarning: some other deprecated name" in output
    assert "2 failed" in output and run.returncode == 1
