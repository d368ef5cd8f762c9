"""Import guards: the exact stack needs no numpy, and no cylcc code needs scipy."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code):
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + code],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_exact_stack_imports_no_numeric_libraries():
    code = (
        "import cylcc.complexes, cylcc.dataio, cylcc.orientation\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert _run(code) == "[]"


def test_numeric_pipelines_never_load_scipy():
    # Imports every module, then runs each numeric path once: the circle
    # and torus searches, the flow normalization, the spectral certificate
    # and the neck sweep.
    code = (
        "from cylcc import complexes, dataio, evaluation, gluing, indices, orientation, "
        "ratmat, spectral\n"
        "for name in ('evmap_k2.txt', 'evmap_k3.txt'):\n"
        "    spec = evaluation.parse_evmap(dataio.bundled_path(name).read_text(), name)\n"
        "    evaluation.pole_preimages(spec, n_grid=48)\n"
        "    evaluation.path_intersections(spec, n_grid=48)\n"
        "    evaluation.s0_zero_locus_check(spec, [40.0], n_cells=32)\n"
        "evaluation.flow_normalize(evaluation.EndExpansion((0.5, 1.5), (0.3, -2.0)))\n"
        "spectral.numeric_spectrum(spectral.OperatorKind.neg_hyperbolic(0.3), 1024, 4)\n"
        "gluing.estimate_sweep([gluing.NeckParams(s_grid=256)], [1.0])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run(code) == "[]"
