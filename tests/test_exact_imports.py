"""The exact stack (complexes, dataio, orientation) loads without numpy or scipy."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exact_stack_imports_no_numeric_libraries():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cylcc.complexes, cylcc.dataio, cylcc.orientation\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
