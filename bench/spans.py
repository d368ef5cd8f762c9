"""Span wrappers around each layer's public functions, for the traced run.

The wrappers live here only; ``cylcc`` is never edited.  ``install``
replaces every binding of a wrapped function in every loaded ``cylcc``
module (``dataio.load_dataset`` and ``complexes.load_dataset`` are the
same object, so both get the wrapper), and ``uninstall`` puts the
originals back.  A listed function that does not exist is skipped and its
layer simply records zero calls.

Self time: a span's duration minus the time its child spans took,
including the children's own bookkeeping, so nested calls in one layer
are never counted twice.  Work counters run after the span's clock has
stopped and are charged to nobody.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "dataio",
    "indices",
    "complexes",
    "ratmat",
    "evaluation",
    "orientation",
    "spectral",
    "gluing",
)


def _matrix_cells(m):
    return len(m) * (len(m[0]) if m else 0)


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


def _max_bits(obj):
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    return _bits(obj)


def _count_ratmat(work, args, kwargs, result):
    matrix = args[0] if args else next(iter(kwargs.values()), [])
    work["cells"] += _matrix_cells(matrix)
    bits = max(_max_bits(args), _max_bits(result))
    work["max_entry_bits"] = max(work["max_entry_bits"], bits)


def _count_records(work, args, kwargs, result):
    work["records"] += len(result.orbits) + len(result.curves)


def _count_complex(work, args, kwargs, result):
    work["generators"] += sum(len(ids) for ids in result.generators.values())
    work["block_nonzeros"] += sum(
        1 for block in result.blocks.values() for row in block for x in row if x != 0
    )


def _count_preimages(work, args, kwargs, result):
    work["preimages"] += len(result)


def _count_crossings(work, args, kwargs, result):
    work["crossings"] += len(result.crossings)


def _count_instance(work, args, kwargs, result):
    work["instances"] += 1


def _count_operator(work, args, kwargs, result):
    work["operator_dim"] += result.shape[0]


def _count_eigenpairs(work, args, kwargs, result):
    work["eigenpairs"] += len(result.entries)


def _count_sweep(work, args, kwargs, result):
    work["sweep_rows"] += len(result.rows)


def _count_spectrum_check(work, args, kwargs, result):
    work["spectra_checked"] += 1


# layer -> {public function: work counter or None}
WRAPPED = {
    "dataio": {
        "read_dataset": _count_records,
        "parse_records": None,
        "bundled_path": None,
    },
    "indices": {
        "classify_orbit": None,
        "cz_index": None,
        "fredholm_index": None,
        "cover_index": None,
        "automatic_transversality": None,
        "winding_bounds_check": _count_spectrum_check,
    },
    "complexes": {
        "load_dataset": None,
        "differential_matrix": _count_complex,
        "graded_map_from_dataset": None,
        "verify_d_squared": None,
        "homology": None,
        "chain_map_check": None,
        "chain_homotopy_check": None,
        "side_complexes": None,
        "stage_sequence": None,
        "direct_limit": None,
    },
    "ratmat": {
        "rank": _count_ratmat,
        "nullspace": _count_ratmat,
        "det": _count_ratmat,
        "solve_coordinates": _count_ratmat,
        "mat_mul": None,
        "mat_mul_shaped": None,
        "mat_sub": None,
        "mat_add": None,
        "hstack": None,
    },
    "evaluation": {
        "parse_evmap": None,
        "pole_preimages": _count_preimages,
        "path_intersections": _count_crossings,
        "s0_zero_locus_check": None,
        "flow_normalize": None,
        "s0_eval": None,
        "lift_spec": None,
    },
    "orientation": {
        "comparison_sign": _count_instance,
        "ds0_sign": _count_instance,
        "glued_sign": None,
        "arc_pair_check": None,
        "wedge_sign": None,
    },
    "spectral": {
        "closed_form_spectrum": None,
        "numeric_spectrum": _count_eigenpairs,
        "finite_difference_operator": _count_operator,
        "winding_number": None,
        "gram_matrix": None,
    },
    "gluing": {
        "estimate_sweep": _count_sweep,
        "solve_neck": None,
        "preglue": None,
        "theta_residuals": None,
        "obstruction_pairing": None,
        "momo_check": None,
        "two_sided_pairing": None,
        "two_sided_pairing_quadrature": None,
        "make_cutoffs": None,
    },
}

# Work counters each layer reports, whether or not it ran.
WORK_COUNTERS = {
    "dataio": ("records",),
    "indices": ("spectra_checked",),
    "complexes": ("generators", "block_nonzeros"),
    "ratmat": ("cells", "max_entry_bits"),
    "evaluation": ("preimages", "crossings"),
    "orientation": ("instances",),
    "spectral": ("operator_dim", "eigenpairs"),
    "gluing": ("sweep_rows",),
}


class LayerStats:
    def __init__(self, layer):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.work = {name: 0 for name in WORK_COUNTERS[layer]}


class Tracer:
    """Per-layer calls, self time, failures and work counts."""

    def __init__(self):
        self.stats = {layer: LayerStats(layer) for layer in LAYERS}
        self._stack = []
        self._undo = []
        self.missing = []

    def reset(self):
        self.stats = {layer: LayerStats(layer) for layer in LAYERS}

    def _wrap(self, layer, fn, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                stats = self.stats[layer]
                stats.calls += 1
                stats.self_s += (t1 - t0) - children[0]
                if not ok:
                    stats.failed += 1
                elif counter is not None:
                    counter(stats.work, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every listed function at every binding site in ``cylcc``."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "cylcc" or name.startswith("cylcc."))
        ]
        self.missing = []
        for layer, functions in WRAPPED.items():
            home = sys.modules.get(f"cylcc.{layer}")
            for name, counter in functions.items():
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, fn, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo = []

    def snapshot(self):
        """Flat ``<layer>.<metric>`` values for one traced batch."""
        out = {}
        for layer in LAYERS:
            stats = self.stats[layer]
            out[f"{layer}.calls"] = stats.calls
            out[f"{layer}.self_s"] = stats.self_s
            out[f"{layer}.failed"] = stats.failed
            for name, value in stats.work.items():
                out[f"{layer}.{name}"] = value
        return out
