import math
import random
import warnings

import numpy as np
import pytest

from cylcc import evaluation
from cylcc.dataio import bundled_path
from cylcc.errors import DegeneracyError, DomainError, ValidationError
from cylcc.evaluation import (
    EndExpansion,
    EvMapSpec,
    MeridianPath,
    TrigPolynomial,
    flow_normalize,
    lift_spec,
    parse_evmap,
    path_intersections,
    pole_preimages,
    s0_eval,
    s0_zero_locus_check,
)

from .oracles import trig_polynomial_oracle


def identity_angle_map(lambdas=(0.5, 1.5)):
    f1 = TrigPolynomial(1, (("cos", (1,), 1.0),))
    f2 = TrigPolynomial(1, (("sin", (1,), 1.0),))
    return EvMapSpec(2, (f1, f2), lambdas)


def doubled_angle_map():
    f1 = TrigPolynomial(1, (("cos", (2,), 1.0),))
    f2 = TrigPolynomial(1, (("sin", (2,), 1.0),))
    return EvMapSpec(2, (f1, f2), (0.5, 1.5))


def bundled_spec(name):
    return parse_evmap(bundled_path(name).read_text(), name)


def bisection_flow_point(coeffs, lambdas, radius):
    """Independent oracle: locate |c(s)| = r by plain bisection."""
    c = np.asarray(coeffs, float)
    lam = np.asarray(lambdas, float)

    def g(s):
        return float(np.sum(c * c * np.exp(2 * lam * s))) - radius**2

    lo, hi = -200.0, 200.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    return c * np.exp(lam * s)


class TestFlowNormalize:
    def test_single_active_coordinate(self):
        e = EndExpansion((0.5, 1.0), (2.0, 0.0))
        assert np.allclose(flow_normalize(e), [1.0, 0.0], atol=1e-12)

    def test_pole(self):
        e = EndExpansion((0.5, 1.0, 2.0), (0.0, 0.0, 3.0))
        assert np.allclose(flow_normalize(e), [0.0, 0.0, 1.0], atol=1e-12)

    def test_golden_ratio_point(self):
        # e^{2s} + e^{4s} = 1 has x = e^{2s} = (sqrt(5) - 1)/2.
        e = EndExpansion((1.0, 2.0), (1.0, 1.0))
        point = flow_normalize(e)
        x = (math.sqrt(5.0) - 1.0) / 2.0
        assert np.allclose(point, [math.sqrt(x), x], atol=1e-12)
        oracle = bisection_flow_point((1.0, 1.0), (1.0, 2.0), 1.0)
        assert np.allclose(point, oracle, atol=1e-10)

    def test_zero_vector_rejected(self):
        e = EndExpansion((0.5, 1.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            flow_normalize(e)

    def test_flow_equivariance(self):
        rng = random.Random(2)
        for _ in range(50):
            lam = sorted(rng.uniform(0.2, 3.0) for _ in range(3))
            c = [rng.uniform(-2, 2) for _ in range(3)]
            if all(abs(x) < 1e-3 for x in c):
                continue
            s0 = rng.uniform(-3, 3)
            moved = [ci * math.exp(li * s0) for ci, li in zip(c, lam)]
            p1 = flow_normalize(EndExpansion(tuple(lam), tuple(c)))
            p2 = flow_normalize(EndExpansion(tuple(lam), tuple(moved)))
            assert np.allclose(p1, p2, atol=1e-9)

    def test_custom_radius(self):
        e = EndExpansion((1.0,), (3.0,))
        assert np.allclose(flow_normalize(e, radius=2.0), [2.0], atol=1e-12)


class TestS0Eval:
    def test_pole_coefficients_give_zero(self):
        for sign in (1.0, -1.0):
            e = EndExpansion((0.5, 1.0, 2.0), (0.0, 0.0, sign))
            assert np.allclose(s0_eval(3.0, e), 0.0)

    def test_exponential_factor(self):
        e = EndExpansion((0.5, 1.0), (1.0, 7.0))
        out = s0_eval(1.0, e)
        assert out.shape == (1,)
        assert np.isclose(out[0], math.exp(-1.0), atol=1e-15)

    def test_doubling_T_decays(self):
        e = EndExpansion((0.5, 1.0, 2.0), (1.0, -2.0, 5.0))
        a = s0_eval(2.0, e)
        b = s0_eval(4.0, e)
        factors = np.exp(-2.0 * np.array(e.lambdas[:-1]) * 2.0)
        assert np.allclose(b, a * factors, rtol=1e-12)
        assert np.all(np.abs(b) < np.abs(a))

    def test_zero_iff_leading_coefficients_zero(self):
        rng = random.Random(9)
        for _ in range(50):
            lam = tuple(sorted(rng.uniform(0.2, 2.0) for _ in range(3)))
            c = [rng.choice([0.0, rng.uniform(0.1, 2.0)]) for _ in range(3)]
            e = EndExpansion(lam, tuple(c))
            for T in (1.0, 5.0, 25.0):
                is_zero = np.allclose(s0_eval(T, e), 0.0, atol=0.0)
                assert is_zero == (c[0] == 0.0 and c[1] == 0.0)

    def test_requires_positive_T(self):
        e = EndExpansion((0.5, 1.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            s0_eval(0.0, e)


def random_trig_polynomial(rng, nvars, n_terms, kinds=("const", "cos", "sin")):
    """Seeded terms of every kind; small orders so that orders repeat."""
    terms = []
    for _ in range(n_terms):
        kind = rng.choice(kinds)
        orders = tuple(rng.randint(-2, 2) for _ in range(nvars))
        terms.append((kind, orders, rng.uniform(-1.5, 1.5)))
    return TrigPolynomial(nvars, tuple(terms))


class TestTrigPolynomial:
    CASES = [
        (nvars, n_terms, kinds)
        for nvars in (1, 2)
        for n_terms, kinds in (
            (0, ("const",)),
            (3, ("const",)),
            (6, ("cos",)),
            (6, ("sin",)),
            (12, ("const", "cos", "sin")),
        )
    ]

    @pytest.mark.parametrize("nvars,n_terms,kinds", CASES)
    def test_against_term_by_term_oracle(self, nvars, n_terms, kinds):
        rng = random.Random(1000 * nvars + 10 * n_terms + len(kinds))
        theta = np.array([[rng.random() for _ in range(nvars)] for _ in range(40)])
        for _ in range(10):
            poly = random_trig_polynomial(rng, nvars, n_terms, kinds)
            expected = trig_polynomial_oracle(poly.terms, theta)
            value, grad = poly.value_and_grad(theta)
            assert poly(theta).shape == value.shape == (len(theta),)
            assert grad.shape == (len(theta), nvars)
            assert np.allclose(poly(theta), expected, rtol=0.0, atol=1e-12)
            assert np.allclose(value, expected, rtol=0.0, atol=1e-12)
            for var in range(nvars):
                d = poly.partial(var)
                assert np.allclose(
                    grad[:, var], trig_polynomial_oracle(d.terms, theta), rtol=0.0, atol=1e-12
                )
                assert np.allclose(grad[:, var], d(theta), rtol=0.0, atol=1e-12)

    def test_single_point_and_empty_batch(self):
        poly = TrigPolynomial(2, (("cos", (1, -1), 0.5), ("sin", (1, -1), 2.0)))
        point = (0.1, 0.7)
        assert np.allclose(poly(point), trig_polynomial_oracle(poly.terms, point), atol=1e-12)
        value, grad = poly.value_and_grad(np.zeros((0, 2)))
        assert value.shape == (0,) and grad.shape == (0, 2)

    def test_pure_sines_vanish_exactly_at_zero(self):
        # The circle scan records an exact zero sample as a root.
        poly = TrigPolynomial(2, (("sin", (3, 0), -2.0), ("sin", (1, -2), 0.5)))
        value, grad = poly.value_and_grad((0.0, 0.0))
        assert poly((0.0, 0.0))[0] == 0.0 and value[0] == 0.0
        assert np.allclose(grad, [[2.0 * math.pi * (-6.0 + 0.5), 2.0 * math.pi * (-1.0)]])

    def test_arrays_do_not_enter_equality(self):
        a = TrigPolynomial(1, (("cos", (1,), 1.0),))
        b = TrigPolynomial(1, (("cos", (1,), 1.0),))
        assert a == b and hash(a) == hash(b)
        assert "_orders" not in repr(a)


class TestPolePreimages:
    def test_identity_map_one_per_pole(self):
        pp = pole_preimages(identity_angle_map())
        north = [p for p in pp if p.pole == 1]
        south = [p for p in pp if p.pole == -1]
        assert len(north) == 1 and len(south) == 1
        assert np.isclose(north[0].params[0], 0.25, atol=1e-9)
        assert np.isclose(south[0].params[0], 0.75, atol=1e-9)
        assert north[0].sign == 1 and south[0].sign == 1

    def test_doubled_map_two_per_pole(self):
        pp = pole_preimages(doubled_angle_map())
        assert sum(1 for p in pp if p.pole == 1) == 2
        assert sum(1 for p in pp if p.pole == -1) == 2
        assert all(p.sign == 1 for p in pp)

    def test_first_coordinate_poles(self):
        pp = pole_preimages(identity_angle_map(), "first_coordinate")
        east = [p for p in pp if p.pole == 1]
        west = [p for p in pp if p.pole == -1]
        assert np.isclose(east[0].params[0], 0.0, atol=1e-9)
        assert np.isclose(west[0].params[0], 0.5, atol=1e-9)
        assert east[0].sign == 1 and west[0].sign == 1

    def test_k3_count_matches_grid_scan(self):
        from cylcc.spectral import winding_number

        spec = bundled_spec("evmap_k3.txt")
        pp = pole_preimages(spec)
        n_cells, m = 100, 25
        t = np.arange(m) / m
        total = 0
        for i in range(n_cells):
            for j in range(n_cells):
                x0, y0, h = i / n_cells, j / n_cells, 1.0 / n_cells
                loop = np.vstack(
                    [
                        np.column_stack([x0 + t * h, np.full(m, y0)]),
                        np.column_stack([np.full(m, x0 + h), y0 + t * h]),
                        np.column_stack([x0 + h - t * h, np.full(m, y0 + h)]),
                        np.column_stack([np.full(m, x0), y0 + h - t * h]),
                    ]
                )
                total += abs(winding_number(spec.evaluate(loop)[:, :2]))
        assert total == len(pp) == 4

    def test_tangency_raises(self):
        f1 = TrigPolynomial(1, (("const", (0,), 1.0), ("cos", (1,), -1.0)))
        f2 = TrigPolynomial(1, (("const", (0,), 2.0),))
        spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
        with pytest.raises(DegeneracyError):
            pole_preimages(spec)

    def test_seeds_on_exact_roots_do_not_warn(self):
        # The grid seeds (0, 0) and (0, 1/2) sit exactly on roots, so their
        # first Newton step is zero, and damping must not divide by it.
        f1 = TrigPolynomial(2, (("sin", (1, 0), 1.0),))
        f2 = TrigPolynomial(2, (("sin", (0, 1), 1.0),))
        f3 = TrigPolynomial(2, (("cos", (1, 0), 1.0), ("cos", (0, 1), 0.5)))
        spec = EvMapSpec(3, (f1, f2, f3), (0.5, 1.5, 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pp = pole_preimages(spec)
        expected = [
            ((0.0, 0.0), 1, 1),
            ((0.0, 0.5), 1, -1),
            ((0.5, 0.0), -1, 1),
            ((0.5, 0.5), -1, -1),
        ]
        assert len(pp) == len(expected)
        for p, (params, pole, sign) in zip(pp, expected):
            assert np.allclose(p.params, params, atol=1e-12)
            assert (p.pole, p.sign) == (pole, sign)

    @pytest.mark.parametrize(
        "name,search", [("evmap_k2.txt", "_circle_roots"), ("evmap_k3.txt", "_torus_zeros")]
    )
    def test_lost_root_fails_degree_certificate(self, monkeypatch, name, search):
        real = getattr(evaluation, search)

        def drop_first_root(*args, **kwargs):
            found = real(*args, **kwargs)
            if search == "_circle_roots":
                return found[1:]
            roots, converged, lost = found
            return roots[1:], converged, lost

        spec = bundled_spec(name)
        pole_preimages(spec)  # the certificate holds with every root
        monkeypatch.setattr(evaluation, search, drop_first_root)
        counts = r"signed count -?\d+ over the \+ pole, -?\d+ over the - pole"
        with pytest.raises(DegeneracyError, match=counts) as info:
            pole_preimages(spec)
        assert ("Newton seeds converged" in str(info.value)) == (search == "_torus_zeros")

    def test_reparametrization_invariance(self):
        spec = bundled_spec("evmap_k2.txt")
        base = pole_preimages(spec)
        shifted = EvMapSpec(
            2,
            tuple(_shift_circle(c, 0.37) for c in spec.components),
            spec.lambdas,
        )
        moved = pole_preimages(shifted)
        for pole in (1, -1):
            assert sum(p.sign for p in base if p.pole == pole) == sum(
                p.sign for p in moved if p.pole == pole
            )

    def test_orientation_reversal_flips_signs(self):
        spec = bundled_spec("evmap_k2.txt")
        base = pole_preimages(spec)
        mirrored = EvMapSpec(
            2,
            tuple(_mirror_circle(c) for c in spec.components),
            spec.lambdas,
            orientation=-1,
        )
        moved = pole_preimages(mirrored)
        for pole in (1, -1):
            assert sum(p.sign for p in base if p.pole == pole) == sum(
                p.sign for p in moved if p.pole == pole
            )


def _shift_circle(poly, delta):
    """theta -> theta + delta on a one-variable trig polynomial."""
    terms = []
    for kind, (m,), v in poly.terms:
        if kind == "const":
            terms.append((kind, (m,), v))
            continue
        phase = 2.0 * math.pi * m * delta
        if kind == "cos":
            terms.append(("cos", (m,), v * math.cos(phase)))
            terms.append(("sin", (m,), -v * math.sin(phase)))
        else:
            terms.append(("sin", (m,), v * math.cos(phase)))
            terms.append(("cos", (m,), v * math.sin(phase)))
    return TrigPolynomial(1, tuple(terms))


def _mirror_circle(poly):
    """theta -> -theta."""
    terms = []
    for kind, (m,), v in poly.terms:
        if kind == "sin":
            terms.append(("sin", (m,), -v))
        else:
            terms.append((kind, (m,), v))
    return TrigPolynomial(1, tuple(terms))


def seeded_torus_map(seed):
    """T^2 -> R^3: each component a dominant mode plus small seeded terms.

    The dominant modes (1,0), (0,1), (1,1) meet pairwise transversally, so
    every pair of components has common zeros; maps coming near the
    origin are redrawn.
    """
    rng = random.Random(seed)
    while True:
        comps = []
        for mode in ((1, 0), (0, 1), (1, 1)):
            amp, phase = rng.uniform(0.8, 1.2), rng.uniform(0.0, 2.0 * math.pi)
            terms = [
                ("const", (0, 0), rng.uniform(-0.1, 0.1)),
                ("sin", mode, amp * math.cos(phase)),
                ("cos", mode, amp * math.sin(phase)),
            ]
            for _ in range(2):
                orders = (rng.randint(0, 2), rng.randint(-2, 2))
                terms.append((rng.choice(("cos", "sin")), orders, rng.uniform(-0.1, 0.1)))
            comps.append(TrigPolynomial(2, tuple(terms)))
        spec = EvMapSpec(3, tuple(comps), (0.5, 1.5, 2.5))
        axis = np.arange(64) / 64
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        if np.min(np.linalg.norm(spec.evaluate(grid), axis=1)) > 0.05:
            return spec


class TestPathIntersections:
    def test_constant_map_away_from_path_is_empty(self):
        f1 = TrigPolynomial(1, (("const", (0,), 0.3),))
        f2 = TrigPolynomial(1, (("const", (0,), -1.0),))
        spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
        res = path_intersections(spec)
        assert res.crossings == ()
        assert res.components == ()

    def test_identity_map_single_crossing(self):
        res = path_intersections(identity_angle_map())
        assert len(res.crossings) == 1
        assert res.crossings[0].sign == 1
        assert np.isclose(res.crossings[0].params[0], 0.0, atol=1e-9)
        assert res.total_signed == 1

    def test_component_boundary_consistency_bundled_k2(self):
        spec = bundled_spec("evmap_k2.txt")
        res = path_intersections(spec)
        assert res.components
        for comp in res.components:
            if comp.start_pole != comp.end_pole:
                # a transporting arc: equal end signs, matching net crossing
                assert comp.start_sign == comp.end_sign
                assert comp.net_crossing == comp.start_sign
            else:
                assert comp.start_sign == -comp.end_sign
                assert comp.net_crossing == 0

    def test_degree_identity_random_k2_maps(self):
        rng = random.Random(21)
        tested = 0
        while tested < 8:
            f1 = TrigPolynomial(
                1,
                (
                    ("const", (0,), rng.uniform(-0.4, 0.4)),
                    ("cos", (1,), rng.uniform(-1, 1)),
                    ("cos", (2,), rng.uniform(-0.7, 0.7)),
                    ("sin", (1,), rng.uniform(-1, 1)),
                ),
            )
            f2 = TrigPolynomial(
                1,
                (
                    ("const", (0,), rng.uniform(-0.4, 0.4)),
                    ("sin", (1,), rng.uniform(-1, 1)),
                    ("sin", (2,), rng.uniform(-0.7, 0.7)),
                    ("cos", (1,), rng.uniform(-1, 1)),
                ),
            )
            try:
                spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
                pp = pole_preimages(spec)
                res = path_intersections(spec)
            except (ValidationError, DegeneracyError):
                continue
            tested += 1
            north = sum(p.sign for p in pp if p.pole == 1)
            south = sum(p.sign for p in pp if p.pole == -1)
            assert north == south == res.total_signed

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_degree_identity_seeded_torus_maps(self, seed):
        spec = seeded_torus_map(seed)
        degrees = set()
        for axis, pole_choice in ((2, "last_coordinate"), (0, "first_coordinate")):
            pp = pole_preimages(spec, pole_choice)
            north = sum(p.sign for p in pp if p.pole == 1)
            south = sum(p.sign for p in pp if p.pole == -1)
            crossings = {
                path_intersections(spec, MeridianPath(pole_choice, through, 1)).total_signed
                for through in range(3)
                if through != axis
            }
            assert len(pp) >= 2
            assert {north, south} | crossings == {north}
            degrees.add(north)
        assert len(degrees) == 1

    def test_k3_crossings_match_pole_degree(self):
        spec = bundled_spec("evmap_k3.txt")
        pp = pole_preimages(spec)
        res = path_intersections(spec)
        north = sum(p.sign for p in pp if p.pole == 1)
        south = sum(p.sign for p in pp if p.pole == -1)
        assert north == south == res.total_signed == 1

    def test_tangency_raises(self):
        # second component tangent to zero where the first is positive
        f1 = TrigPolynomial(1, (("const", (0,), 2.0),))
        f2 = TrigPolynomial(1, (("const", (0,), 1.0), ("cos", (1,), -1.0)))
        spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
        with pytest.raises(DegeneracyError):
            path_intersections(spec)

    def test_declared_singular_image_on_path_rejected(self):
        spec0 = identity_angle_map()
        spec = EvMapSpec(
            2, spec0.components, spec0.lambdas, singular_params=((0.0,),)
        )
        with pytest.raises(ValidationError):
            path_intersections(spec)


class TestZeroLocus:
    def test_no_preimages_empty_zero_set(self):
        f1 = TrigPolynomial(1, (("const", (0,), 2.0), ("cos", (1,), 0.5)))
        f2 = TrigPolynomial(1, (("sin", (1,), 1.0),))
        spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
        report = s0_zero_locus_check(spec, [5.0, 10.0, 50.0])
        assert report.ok

    def test_identity_map_zero_locus(self):
        report = s0_zero_locus_check(identity_angle_map(), np.linspace(5, 50, 10))
        assert report.ok

    def test_bundled_specs_agree(self):
        for name in ("evmap_k2.txt", "evmap_k3.txt"):
            spec = bundled_spec(name)
            grid = np.linspace(40.0, 80.0, 4)
            report = s0_zero_locus_check(spec, grid, tol=1e-8)
            assert report.ok, report.mismatches


class TestLift:
    def test_inclusion_identity(self):
        spec = bundled_spec("evmap_k2.txt")
        lifted = lift_spec(spec, (0, 2), 3, (0.5, 1.0, 1.5))
        theta = np.linspace(0, 1, 13).reshape(-1, 1)
        base = spec.evaluate(theta)
        big = lifted.evaluate(theta)
        assert np.allclose(big[:, 0], base[:, 0])
        assert np.allclose(big[:, 2], base[:, 1])
        assert np.allclose(big[:, 1], 0.0)

    def test_position_validation(self):
        spec = bundled_spec("evmap_k2.txt")
        with pytest.raises(ValidationError):
            lift_spec(spec, (2, 0), 3, (0.5, 1.0, 1.5))
        with pytest.raises(ValidationError):
            lift_spec(spec, (0,), 3, (0.5, 1.0, 1.5))
        with pytest.raises(ValidationError):
            lift_spec(spec, (0, 5), 3, (0.5, 1.0, 1.5))


class TestParsing:
    def test_bundled_files_roundtrip(self):
        spec2 = bundled_spec("evmap_k2.txt")
        assert spec2.k == 2 and spec2.lambdas == (0.5, 1.5)
        spec3 = bundled_spec("evmap_k3.txt")
        assert spec3.k == 3 and spec3.nvars == 2

    def test_missing_header(self):
        with pytest.raises(ValidationError, match="header"):
            parse_evmap("term comp=0 kind=const order=0 value=1\n")

    def test_bad_term(self):
        with pytest.raises(ValidationError):
            parse_evmap("evmap k=2 lambdas=1,2\nterm comp=0 kind=tan order=1 value=1\n")


class TestSpecValidation:
    def test_origin_hit_rejected(self):
        f1 = TrigPolynomial(1, (("cos", (1,), 1.0),))
        f2 = TrigPolynomial(1, (("cos", (1,), 2.0),))  # both vanish together
        with pytest.raises(ValidationError, match="origin"):
            EvMapSpec(2, (f1, f2), (0.5, 1.5))

    def test_end_expansion_ordering(self):
        with pytest.raises(ValidationError):
            EndExpansion((2.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValidationError):
            EndExpansion((-1.0, 1.0), (1.0, 1.0))
