"""Locate the checkout's ``src`` tree and pin BLAS threads before numpy loads.

Imported first by every entry point.  The benchmark only ever runs the
``cylcc`` found under ``<checkout>/src``; if that tree is missing it
exits with status 2 rather than measure some other installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread, never more than the machine has.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = str(min(1, os.cpu_count() or 1))
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS


def require_source():
    if not (SRC / "cylcc" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no cylcc package under {SRC}; nothing to measure\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cylcc

    if Path(cylcc.__file__).resolve().parent != (SRC / "cylcc").resolve():
        sys.stderr.write(f"benchmark: imported cylcc from {cylcc.__file__}, not {SRC}\n")
        sys.exit(2)
