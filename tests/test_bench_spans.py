"""The benchmark's span wrappers name only functions that exist.

``bench/spans.py`` lists, per layer, the public functions the traced run
wraps; a listed name that is missing is recorded as zero calls and fails
``bench/selftest.py``.  Loading the list here catches a rename or deletion
in ``cylcc`` before the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("layer", sorted(SPANS.WRAPPED))
def test_wrapped_names_exist(layer):
    module = importlib.import_module(f"cylcc.{layer}")
    missing = [
        name for name in SPANS.WRAPPED[layer] if not callable(getattr(module, name, None))
    ]
    assert missing == []
