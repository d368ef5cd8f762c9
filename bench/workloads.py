"""The two benchmark workloads, each a seeded setup plus a fixed batch.

A workload is a sequence of parts: ``exact`` is ``exact_complex`` then
``exact_signs``, ``numeric`` is ``evmap_certify`` then ``spectral_neck``.
``SETUP[name](seed, workdir, sizes)`` generates every part's seeded
inputs (with :mod:`gen`, never with ``cylcc``), writes the ones that have
a text format, and returns a context per part.
``BATCH[name](ctx, cy, ledger)`` runs the known-answer canary and then
each part's fixed batch of operations through the public functions of
the ``cylcc`` modules in ``cy``, checking every output.  Calls always go
through module attributes (``cy.complexes.homology``) so that the traced
run's wrappers see them.

The canary uses the bundled data files and a few fixed examples with
answers from the test suite.  It takes a few milliseconds, touches all
eight layers, and decides ``correct``.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import gen

PARTS = {
    "exact": ("exact_complex", "exact_signs"),
    "numeric": ("evmap_certify", "spectral_neck"),
}
WORKLOADS = tuple(PARTS)

PART_SIZES = {
    # Several mid-size complexes rather than one large one: every
    # operation stays short enough for its fastest repetition to fall in
    # a quiet moment of a shared machine, and the seed-to-seed variation
    # of the complexes averages out.  Five transvections per generator
    # make the blocks dense, so the elimination does nearly the same
    # number of Fraction operations for every seed.
    "exact_complex": {
        "complexes": 6, "dims": (16, 20, 16), "moves_per_dim": 5, "cuts": 8,
        "stage_dims": (8, 10, 8), "stages": 3,
    },
    "exact_signs": {"instances": 150, "max_dim": 6},
    # Search and scan resolutions below the defaults (96 Newton seeds per
    # axis, 8192 scan points, 128 cells) keep every call short; every
    # bundled and seeded map still gives its full set of preimages.
    "evmap_certify": {
        "random_maps": 1, "perturbation_terms": 2, "T_grid": (60.0,),
        "n_grid": 48, "n_scan": 2048, "n_cells": 64,
    },
    # Grids 128 and 256 take the dense eigh path, 1024 and 2048 shift-invert
    # eigsh (the switch is at 1024 rows, that is grid 512).
    "spectral_neck": {
        "grids": (128, 256, 1024, 2048),
        "count": 8,
        # (T0, r, T values) per neck family, as in the gluing tests
        "sweep": ((21.0, 4.0, (45.0, 60.0, 90.0)), (41.0, 8.0, (90.0, 110.0, 130.0))),
        "s_grid": 32768,
    },
}

# Sizes for the self-test: every code path, a fraction of a second.
PART_TINY = {
    "exact_complex": {
        "complexes": 2, "dims": (3, 5, 3), "moves_per_dim": 5, "cuts": 3, "stage_dims": (2, 3, 2), "stages": 2,
    },
    "exact_signs": {"instances": 12, "max_dim": 4},
    "evmap_certify": {
        "random_maps": 1, "perturbation_terms": 1, "T_grid": (40.0,),
        "n_grid": 48, "n_scan": 2048, "n_cells": 64,
    },
    "spectral_neck": {"grids": (256,), "count": 4, "sweep": ((21.0, 4.0, (45.0, 60.0)),), "s_grid": 2048},
}

SIZES = {name: {part: PART_SIZES[part] for part in parts} for name, parts in PARTS.items()}
TINY = {name: {part: PART_TINY[part] for part in parts} for name, parts in PARTS.items()}


class Ledger:
    """Counts attempted and failed operations; a failure is never dropped.

    An operation fails when it raises or when its check returns false.
    ``outcomes`` keeps (name, passed) in order, so two repetitions of one
    batch can be compared; ``seconds`` keeps each operation's wall time,
    its check included.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.canary_failed = 0
        self.outcomes = []
        self.failures = []
        self.seconds = {}

    def op(self, name, check, canary=False):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            passed = bool(check())
            detail = "check failed"
        except Exception as exc:  # the program under test raised: count it
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        self.seconds[name] = time.perf_counter() - t0
        self.outcomes.append((name, passed))
        if not passed:
            self.failed += 1
            self.canary_failed += canary
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}"[:300])
        return passed


# --- known-answer canary ---------------------------------------------------


def canary(cy, ledger):
    dataio, cx = cy.dataio, cy.complexes

    def bundled_pair():
        ds = dataio.read_dataset(
            dataio.bundled_path("consistent_orbits.txt"),
            dataio.bundled_path("consistent_curves.txt"),
        )
        d_plus, d_minus = cx.side_complexes(ds)
        phi = [
            cx.graded_map_from_dataset(ds, d_plus, d_minus, "cobordism", tag=t)
            for t in ("phi0", "phi1")
        ]
        k_plus = cx.graded_map_from_dataset(ds, d_plus, d_minus, "k_plus")
        k_minus = cx.graded_map_from_dataset(ds, d_plus, d_minus, "k_minus")
        orbits = {oid: ds.orbit(oid) for oid in ds.orbits}
        index_ok = all(
            cy.indices.fredholm_index(
                cy.indices.CurveTopology(0, (c.from_id,), (c.to_id,), 0), orbits
            ) == c.ind
            for c in ds.curves
            if c.level == "symplectization"
        )
        return (
            cx.verify_d_squared(d_plus).ok
            and cx.verify_d_squared(d_minus).ok
            and all(cx.chain_map_check(d_plus, d_minus, p).ok for p in phi)
            and cx.chain_homotopy_check(phi[0], phi[1], k_plus, k_minus, d_plus, d_minus).ok
            and cx.homology(d_plus) == {3: 1, 2: 0, 1: 0, 0: 1}
            and cy.indices.classify_orbit(orbits["Pq"]).quality == "good"
            and index_ok
        )

    def corrupted_pair():
        ds = dataio.read_dataset(
            dataio.bundled_path("consistent_orbits.txt"),
            dataio.bundled_path("corrupted_curves.txt"),
        )
        res = cx.verify_d_squared(cx.side_complexes(ds)[0])
        return not res.ok and res.pair == ("Pa", "Pq")

    def bundled_limit():
        ds = dataio.read_dataset(
            dataio.bundled_path("direct_limit_orbits.txt"),
            dataio.bundled_path("direct_limit_curves.txt"),
        )
        res = cx.direct_limit(*cx.stage_sequence(ds))
        return res.value == {1: 1, 0: 0} and res.all_stable

    def bundled_k2():
        text = dataio.bundled_path("evmap_k2.txt").read_text()
        spec = cy.evaluation.parse_evmap(text, "evmap_k2.txt")
        poles = cy.evaluation.pole_preimages(spec)
        return len(poles) == 4 and _degree_identity(poles, cy.evaluation.path_intersections(spec)) == 0

    def fixed_signs():
        o, F = cy.orientation, Fraction
        model = o.FredholmModel(matrix=((F(1), F(0)), (F(0), F(1))), e_basis=())
        jac = ((F(1), F(0)), (F(0), F(1)))
        return (
            o.comparison_sign(model, [], [], [], []) == 1
            and o.ds0_sign(3, "north", jac, (0.5, 1.5), 40.0) == 1
            and o.ds0_sign(3, "south", jac, (0.5, 1.5), 40.0) == -1
        )

    def closed_forms():
        sp = cy.spectral
        table = sp.closed_form_spectrum(sp.OperatorKind.pos_hyperbolic(0.5), 2)
        windings = all(
            cy.indices.winding_bounds_check(sp.closed_form_spectrum(kind, 6), cz).ok
            for kind, cz in _kinds_with_cz(sp, 0.4, 1.0)
        )
        return table.eigenvalue(1) == 0.5 and table.eigenvalue(-1) == -0.5 and windings

    def pairing_sample():
        sp, gl = cy.spectral, cy.gluing
        cok = gl.CokernelBasisModel(
            k=2, spectrum_plus=sp.closed_form_spectrum(sp.OperatorKind.pos_hyperbolic(0.5), 2)
        )
        out = gl.two_sided_pairing(1.0, 2.0, cok, [1.0, 0.0], [0.0, 0.0])
        return out.shape == (1,) and math.isclose(out[0], math.exp(-2.0), rel_tol=1e-14)

    for name, check in (
        ("canary.bundled_pair", bundled_pair),
        ("canary.corrupted_pair", corrupted_pair),
        ("canary.bundled_limit", bundled_limit),
        ("canary.bundled_k2", bundled_k2),
        ("canary.fixed_signs", fixed_signs),
        ("canary.closed_forms", closed_forms),
        ("canary.pairing_sample", pairing_sample),
    ):
        ledger.op(name, check, canary=True)


def _kinds_with_cz(sp, eps_hyp, eps_ell):
    """The three model kinds with the Conley-Zehnder index their windings bound."""
    return (
        (sp.OperatorKind.elliptic(eps_ell), 1),
        (sp.OperatorKind.pos_hyperbolic(eps_hyp), 0),
        (sp.OperatorKind.neg_hyperbolic(eps_hyp), 1),
    )


def _degree_identity(poles, crossings):
    """The common degree if north count = south count = meridian count, else None."""
    north = sum(p.sign for p in poles if p.pole == 1)
    south = sum(p.sign for p in poles if p.pole == -1)
    return north if north == south == crossings.total_signed else None


# --- exact_complex ---------------------------------------------------------


def setup_exact_complex(seed, workdir, sizes):
    workdir = Path(workdir)
    complexes = []
    for i in range(sizes["complexes"]):
        orbits, curves, info = gen.exact_complex_dataset(
            seed * 64 + i, sizes["dims"], sizes["moves_per_dim"]
        )
        paths = (workdir / f"complex{i}_orbits.txt", workdir / f"complex{i}_curves.txt")
        paths[0].write_text(orbits)
        paths[1].write_text(curves)
        complexes.append({"paths": paths, "info": info, "cuts": gen.action_cuts(info, sizes["cuts"])})
    s_orbits, s_curves, s_info = gen.staged_dataset(seed + 1, sizes["stage_dims"], sizes["stages"])
    (workdir / "staged_orbits.txt").write_text(s_orbits)
    (workdir / "staged_curves.txt").write_text(s_curves)
    return {"workdir": workdir, "complexes": complexes, "staged_info": s_info}


def batch_exact_complex(ctx, cy, ledger):
    cx, workdir = cy.complexes, ctx["workdir"]
    for n, item in enumerate(ctx["complexes"]):
        info = item["info"]
        expected = {g: b for g, b in info["betti"].items() if info["generators"][g]}
        state = {}

        def read(item=item, info=info, state=state):
            state["ds"] = cy.dataio.read_dataset(*item["paths"])
            return len(state["ds"].orbits) == sum(info["generators"].values())

        def full(expected=expected, state=state):
            complex_ = cx.differential_matrix(state["ds"])
            return cx.verify_d_squared(complex_).ok and cx.homology(complex_) == expected

        ledger.op(f"complex{n}.read", read)
        ledger.op(f"complex{n}.full_homology", full)
        for i, cut in enumerate(item["cuts"]):

            def at_cut(cut=cut, info=info, state=state):
                dims = cx.homology(cx.differential_matrix(state["ds"], action_max=cut))
                euler = sum((-1) ** g * b for g, b in dims.items())
                return min(dims.values(), default=0) >= 0 and euler == gen.euler_below(info, cut)

            ledger.op(f"complex{n}.cut{i}", at_cut)

    def staged():
        ds = cy.dataio.read_dataset(workdir / "staged_orbits.txt", workdir / "staged_curves.txt")
        res = cx.direct_limit(*cx.stage_sequence(ds))
        return (
            all(res.value.get(g, 0) == b for g, b in ctx["staged_info"]["betti"].items())
            and res.all_stable
            and all(v == 1 for v in res.stabilized_from.values())
        )

    ledger.op("complex.direct_limit", staged)


# --- exact_signs -----------------------------------------------------------


def setup_exact_signs(seed, workdir, sizes):
    rng = random.Random(seed)
    signs = []
    for slot in range(sizes["instances"]):
        inst = gen.sign_instance(rng, sizes["max_dim"], slot)
        inst["expected"] = gen.expected_comparison_sign(inst)
        signs.append(inst)
    ds0 = [gen.ds0_instance(rng, sizes["max_dim"]) for _ in range(sizes["instances"])]
    return {"signs": signs, "ds0": ds0}


def batch_exact_signs(ctx, cy, ledger):
    o = cy.orientation
    for i, inst in enumerate(ctx["signs"]):

        def comparison(inst=inst):
            model = o.FredholmModel(
                matrix=tuple(tuple(Fraction(x) for x in row) for row in inst["matrix"]),
                e_basis=tuple(tuple(v) for v in inst["e_basis"]),
            )
            sign = o.comparison_sign(
                model, inst["ker"], inst["f"], inst["coker"], inst["phi_f"],
                preimage_basis=inst["preimage"], e_basis=inst["e_ref"],
            )
            return sign == inst["expected"]

        ledger.op(f"signs.comparison{i}", comparison)
    for i, inst in enumerate(ctx["ds0"]):
        ledger.op(
            f"signs.ds0_{i}",
            lambda inst=inst: o.ds0_sign(
                inst["k"], inst["pole"], inst["jac"], inst["lambdas"], inst["T"]
            ) == inst["expected"],
        )


# --- evmap_certify ---------------------------------------------------------


def setup_evmap_certify(seed, workdir, sizes):
    workdir = Path(workdir)
    rng = random.Random(seed)
    paths = []
    for i in range(sizes["random_maps"]):
        path = workdir / f"torus_map_{i}.txt"
        path.write_text(gen.torus_map_text(rng, sizes["perturbation_terms"]))
        paths.append(path)
    return {
        "maps": paths,
        "T_grid": list(sizes["T_grid"]),
        "search": {"n_grid": sizes["n_grid"], "n_scan": sizes["n_scan"]},
        "scan": {"n_scan": sizes["n_scan"], "n_cells": sizes["n_cells"]},
    }


def batch_evmap_certify(ctx, cy, ledger):
    ev = cy.evaluation
    sources = [("evmap_k2.txt", None), ("evmap_k3.txt", 1)]
    sources += [(path, None) for path in ctx["maps"]]
    for source, known_degree in sources:
        name = Path(source).stem
        state = {}

        def poles(source=source, state=state):
            path = cy.dataio.bundled_path(source) if isinstance(source, str) else source
            state["spec"] = ev.parse_evmap(Path(path).read_text(), Path(path).name)
            state["poles"] = ev.pole_preimages(state["spec"], n_grid=ctx["search"]["n_grid"])
            return len(state["poles"]) > 0 and all(
                p.pole in (-1, 1) and p.sign in (-1, 1) for p in state["poles"]
            )

        def degree(known_degree=known_degree, state=state):
            crossings = ev.path_intersections(state["spec"], **ctx["search"])
            degree = _degree_identity(state["poles"], crossings)
            return degree is not None and known_degree in (None, degree)

        def zero_locus(state=state):
            return ev.s0_zero_locus_check(state["spec"], ctx["T_grid"], **ctx["scan"]).ok

        ledger.op(f"evmap.{name}.poles", poles)
        ledger.op(f"evmap.{name}.degree", degree)
        ledger.op(f"evmap.{name}.zero_locus", zero_locus)


# --- spectral_neck ---------------------------------------------------------


def setup_spectral_neck(seed, workdir, sizes):
    rng = random.Random(seed)
    k = 3
    c = [[1.0 if i == j else (rng.uniform(-0.5, 0.5) if j > i else 0.0) for j in range(k)] for i in range(k)]
    d = [
        [rng.uniform(-1.0, 1.0) if (col <= i if i < k - 1 else col == k - 1) else 0.0 for col in range(k)]
        for i in range(k)
    ]
    return {
        # Below 0.5: near 0.6 the dense neg_hyperbolic solve runs about 30%
        # faster (measured at grid 512), which would tie batch time to the seed.
        "eps_hyp": rng.uniform(0.2, 0.5),
        "eps_ell": rng.uniform(0.5, 2.5),
        "grids": list(sizes["grids"]),
        "count": sizes["count"],
        "sweep": [
            (T0, r, T, sizes["s_grid"]) for T0, r, T_values in sizes["sweep"] for T in T_values
        ],
        "amplitudes": [rng.uniform(0.3, 1.5) for _ in range(3)],
        "cokernel": {"c": c, "d": d, "eps_minus": rng.uniform(0.2, 0.6)},
        "c_coeffs": [rng.uniform(-1.5, 1.5) for _ in range(k)],
        "d_coeffs": [rng.uniform(-1.5, 1.5) for _ in range(k)],
        "T_pair": (rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0)),
    }


def _second_order_ok(numeric, closed, eps, kind_name, grid):
    """|lambda_h - lambda| <= omega^3 h^2 / 6 for the centred difference.

    The discrete symbol of d/dt at frequency omega is sin(omega h)/h, so
    each eigenvalue errs by at most omega - sin(omega h)/h.
    """
    h = 1.0 / grid
    for entry in numeric.entries:
        exact = closed.eigenvalue(entry.index)
        if kind_name == "elliptic":
            omega = abs(exact + eps)
        else:
            omega = math.sqrt(max(exact * exact - eps * eps, 0.0))
        bound = omega**3 * h * h / 6.0 * (1.0 + 1e-6) + 1e-8 * (1.0 + abs(exact))
        if not abs(entry.eigenvalue - exact) <= bound:
            return False
    return True


def batch_spectral_neck(ctx, cy, ledger):
    sp, gl, idx = cy.spectral, cy.gluing, cy.indices
    half = ctx["count"] // 2
    for kind, cz in _kinds_with_cz(sp, ctx["eps_hyp"], ctx["eps_ell"]):
        closed = sp.closed_form_spectrum(kind, half)
        for grid in ctx["grids"]:

            def spectrum(kind=kind, cz=cz, closed=closed, grid=grid):
                numeric = sp.numeric_spectrum(kind, grid, ctx["count"])
                windings = all(
                    e.winding == closed.entry(e.index).winding for e in numeric.entries
                )
                return (
                    numeric.indices == closed.indices
                    and _second_order_ok(numeric, closed, kind.eps, kind.kind, grid)
                    and windings
                    and idx.winding_bounds_check(numeric, cz).ok
                )

            ledger.op(f"spectral.{kind.kind}.{grid}", spectrum)

    def sweep():
        grids = [
            gl.NeckParams(T0=T0, T=T, h=0.5, r=r, s_grid=s_grid) for T0, r, T, s_grid in ctx["sweep"]
        ]
        report = gl.estimate_sweep(grids, ctx["amplitudes"])
        return (
            len(report.rows) == len(grids) * len(ctx["amplitudes"])
            and report.max_ratio < 50.0
            and report.ratios_nonincreasing_in_T()
        )

    def pairing():
        spec_c = ctx["cokernel"]
        cok = gl.CokernelBasisModel(
            k=3,
            spectrum_plus=sp.closed_form_spectrum(sp.OperatorKind.pos_hyperbolic(ctx["eps_hyp"]), 3),
            c=tuple(map(tuple, spec_c["c"])),
            spectrum_minus=sp.closed_form_spectrum(
                sp.OperatorKind.neg_hyperbolic(spec_c["eps_minus"]), 3
            ),
            d=tuple(map(tuple, spec_c["d"])),
        )
        t_minus, t_plus = ctx["T_pair"]
        closed = gl.two_sided_pairing(t_minus, t_plus, cok, ctx["c_coeffs"], ctx["d_coeffs"])
        quad = gl.two_sided_pairing_quadrature(
            t_minus, t_plus, cok, ctx["c_coeffs"], ctx["d_coeffs"], gl.NeckParams()
        )
        return float(max(abs(closed - quad))) < 1e-8

    ledger.op("neck.sweep", sweep)
    ledger.op("neck.two_sided_pairing", pairing)


PART_SETUP = {
    "exact_complex": setup_exact_complex,
    "exact_signs": setup_exact_signs,
    "evmap_certify": setup_evmap_certify,
    "spectral_neck": setup_spectral_neck,
}

PART_BATCH = {
    "exact_complex": batch_exact_complex,
    "exact_signs": batch_exact_signs,
    "evmap_certify": batch_evmap_certify,
    "spectral_neck": batch_spectral_neck,
}


def _setup(parts):
    def setup(seed, workdir, sizes):
        return {part: PART_SETUP[part](seed, workdir, sizes[part]) for part in parts}

    return setup


def _batch(parts):
    def batch(ctx, cy, ledger):
        canary(cy, ledger)
        for part in parts:
            PART_BATCH[part](ctx[part], cy, ledger)

    return batch


SETUP = {name: _setup(parts) for name, parts in PARTS.items()}
BATCH = {name: _batch(parts) for name, parts in PARTS.items()}
