"""One batch of each benchmark workload passes every check.

``bench/workloads.py`` holds the benchmark's operations and the check of
each output; a failed check lowers the benchmark's ``pass_frac``.  Running
one set-up and one batch of each workload at the benchmark's sizes here
catches such a failure before the benchmark runs.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cylcc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    """``bench/workloads.py`` loaded by path; its ``import gen`` finds ``bench/gen.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_one_batch_passes_every_check(name, tmp_path):
    cy = SimpleNamespace(
        **{m.name: importlib.import_module(f"cylcc.{m.name}") for m in pkgutil.iter_modules(cylcc.__path__)}
    )
    ctx = WORKLOADS.SETUP[name](1, tmp_path, WORKLOADS.SIZES[name])
    ledger = WORKLOADS.Ledger()
    WORKLOADS.BATCH[name](ctx, cy, ledger)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures
