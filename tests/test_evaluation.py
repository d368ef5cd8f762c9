import dataclasses
import importlib.util
import math
import random
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cylcc import evaluation
from cylcc.dataio import bundled_path
from cylcc.errors import DegeneracyError, DomainError, NumericError, ValidationError
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

from .oracles import (
    brentq_circle_roots_oracle,
    brentq_flow_normalize_oracle,
    torus_newton_oracle,
    torus_scan_oracle,
    trig_partial_oracle,
    trig_polynomial_oracle,
)

GEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def _load_gen():
    """The benchmark's seeded input generators (``bench/gen.py``), loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def term_by_term(poly):
    """``poly`` as a function summed term by term, without the package's evaluator."""
    return lambda theta: trig_polynomial_oracle(poly.terms, theta)


def count_lattice_values(monkeypatch):
    """Record the number of values (points times components) of every
    ``_Stack.lattice`` call made from now on, in call order."""
    real = evaluation._Stack.lattice
    sizes = []

    def counted(self, corners, step, count):
        values = real(self, corners, step, count)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(evaluation._Stack, "lattice", counted)
    return sizes


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

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(DomainError, match="finite"):
            flow_normalize(EndExpansion((1.0,), (3.0,)), radius=radius)

    @staticmethod
    def random_cases(n, spread, lam_range=(0.2, 5.0)):
        """(eigenvalues, coefficients 10^+-spread, radius) with some zero coefficients."""
        rng = np.random.default_rng(11)
        for _ in range(n):
            k = int(rng.integers(1, 5))
            lam = tuple(float(x) for x in np.sort(rng.uniform(*lam_range, k)))
            coeffs = rng.normal(size=k) * 10.0 ** rng.uniform(-spread, spread, k)
            coeffs[rng.random(k) < 0.2] = 0.0
            coeffs[0] = coeffs[0] or 1.0
            yield lam, coeffs, float(10.0 ** rng.uniform(-2.0, 2.0))

    def test_matches_brentq_oracle(self):
        cases = [*self.random_cases(200, 2.0), *self.random_cases(500, 8.0)]
        for lam, coeffs, radius in cases:
            point = flow_normalize(EndExpansion(lam, tuple(coeffs.tolist())), radius)
            oracle = brentq_flow_normalize_oracle(lam, coeffs, radius)
            assert np.max(np.abs(point - oracle)) <= 1e-14 * max(1.0, radius)

    def test_newton_steps_bounded(self, monkeypatch):
        # Newton starts right of the zero of a convex increasing function,
        # so it needs few steps even for eigenvalues 1e-3..1e3 and
        # coefficients 10^+-8.
        monkeypatch.setattr(evaluation, "_FLOW_STEPS", 12)
        for lam, coeffs, radius in self.random_cases(500, 8.0, lam_range=(1e-3, 1e3)):
            point = flow_normalize(EndExpansion(lam, tuple(coeffs.tolist())), radius)
            assert abs(np.linalg.norm(point) - radius) <= 1e-13 * radius

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_FLOW_STEPS", 1)
        with pytest.raises(NumericError, match="did not converge"):
            flow_normalize(EndExpansion((1.0, 2.0), (1.0, 1.0)))

    def test_zero_coefficient_on_a_fast_mode(self):
        # e^{24.9 s} overflows at the flow time s ~ 100 of the first mode;
        # the zero coefficient must stay zero, not become 0 * inf.
        point = flow_normalize(EndExpansion((0.032, 24.9), (-4e-7, 0.0)), 0.01)
        assert np.allclose(point, [-0.01, 0.0], rtol=1e-13, atol=0.0)


class TestCircleRoots:
    @staticmethod
    def assert_same_roots(comp, n_cells, oracle):
        roots, excluded, uncertified = evaluation._cell_zeros(evaluation._Stack([comp]), n_cells)
        assert not uncertified and excluded > 0
        assert len(roots) == len(oracle)
        for (r,) in roots:
            assert min(min(abs(r - o), 1.0 - abs(r - o)) for o in oracle) <= 2e-14

    @pytest.mark.parametrize("component", [0, 1])
    def test_bundled_k2_matches_brentq_oracle(self, component):
        comp = bundled_spec("evmap_k2.txt").components[component]
        for n_scan in (1024, 8192):
            oracle = brentq_circle_roots_oracle(term_by_term(comp), n_scan)
            assert oracle
            self.assert_same_roots(comp, n_scan, oracle)

    @staticmethod
    def random_trig_polynomial(seed):
        """A random trig polynomial with a root other than 0, and its brentq roots."""
        rng = random.Random(seed)
        while True:
            terms = tuple(
                (rng.choice(("cos", "sin")), (rng.randint(1, 4),), rng.uniform(-1.0, 1.0))
                for _ in range(rng.randint(2, 4))
            ) + (("const", (0,), rng.uniform(-0.3, 0.3)),)
            comp = TrigPolynomial(1, terms)
            oracle = brentq_circle_roots_oracle(term_by_term(comp), 4096)
            if any(r != 0.0 for r in oracle):
                return comp, oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trig_polynomials_match_brentq_oracle(self, seed):
        comp, oracle = self.random_trig_polynomial(seed)
        self.assert_same_roots(comp, 4096, oracle)

    @staticmethod
    def assert_scan_matches(spec, n_scan, oracle):
        zeros = evaluation._scan_zeros(spec, 60.0, n_scan)
        assert len(zeros) == len(oracle)
        for (z,), o in zip(zeros, oracle):
            assert min(abs(z - o), 1.0 - abs(z - o)) <= 2e-11

    @pytest.mark.parametrize("n_scan", [1024, 2048, 4096])
    def test_scan_on_bundled_k2_matches_brentq_oracle(self, n_scan):
        spec = bundled_spec("evmap_k2.txt")
        oracle = brentq_circle_roots_oracle(term_by_term(spec.components[0]), n_scan)
        assert oracle
        self.assert_scan_matches(spec, n_scan, oracle)

    @pytest.mark.parametrize("seed", range(20))
    def test_scan_on_random_trig_polynomials_matches_brentq_oracle(self, seed):
        comp, oracle = self.random_trig_polynomial(seed)
        one = TrigPolynomial(1, (("const", (0,), 1.0),))
        self.assert_scan_matches(EvMapSpec(2, (comp, one), (0.5, 1.5)), 4096, oracle)

    @staticmethod
    def assert_scan_matches_per_cell_oracle(spec, n_scan):
        zeros = evaluation._scan_zeros(spec, 60.0, n_scan)
        scale = math.exp(-2.0 * spec.lambdas[0] * 60.0)
        oracle = torus_scan_oracle(spec.components[:1], [scale], n_scan)
        assert zeros and len(zeros) == len(oracle)
        assert np.allclose(zeros, oracle, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_scan", [1024, 2048, 4096, 8192])
    def test_scan_on_bundled_k2_matches_per_cell_oracle(self, n_scan):
        self.assert_scan_matches_per_cell_oracle(bundled_spec("evmap_k2.txt"), n_scan)

    @pytest.mark.parametrize("seed", range(20))
    def test_scan_on_random_trig_polynomials_matches_per_cell_oracle(self, seed):
        comp, _ = self.random_trig_polynomial(seed)
        one = TrigPolynomial(1, (("const", (0,), 1.0),))
        self.assert_scan_matches_per_cell_oracle(EvMapSpec(2, (comp, one), (0.5, 1.5)), 4096)

    def test_scan_work_after_first_level(self, monkeypatch):
        # The first level evaluates the 2 * 8192 half steps of the circle
        # once; every later level only the 5 lattice points of each kept
        # cell, so the 20-odd levels down to 1e-11 stay cheap.
        spec = bundled_spec("evmap_k2.txt")
        sizes = count_lattice_values(monkeypatch)
        assert len(evaluation._scan_zeros(spec, 60.0, 8192)) == 4
        assert sizes[0] == 2 * 8192
        assert sum(sizes[1:]) < sizes[0] / 2

    def test_kantorovich_ball_on_the_circle(self):
        # sin 2 pi x at 0: beta = 1 / (2 pi), K = 4 pi^2 and f = 0, so eta is
        # beta times the absolute slack 1e-12, and the uniqueness radius is
        # 2 / (beta K) = 1 / pi.
        comp = TrigPolynomial(1, (("sin", (1,), 1.0),))
        ok, t_exist, t_unique = evaluation._kantorovich(
            evaluation._Stack([comp]), np.array([[0.0], [1e-12]])
        )
        assert ok.all()
        assert t_exist[0] == pytest.approx(1e-12 / (2.0 * math.pi), rel=1e-6, abs=0.0)
        assert t_exist[1] >= 1e-12
        assert np.allclose(t_unique, 1.0 / math.pi, rtol=1e-9) and np.all(t_unique < 1.0 / math.pi)


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

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_requires_finite_T(self, T):
        e = EndExpansion((0.5, 1.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            s0_eval(T, e)


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
                d = trig_partial_oracle(poly, var)
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

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_lipschitz_bounds_dominate_samples(self, nvars):
        rng = random.Random(70 + nvars)
        for _ in range(20):
            poly = random_trig_polynomial(rng, nvars, 8)
            x = np.array([[rng.uniform(-2.0, 2.0) for _ in range(nvars)] for _ in range(300)])
            y = x + np.array([[rng.uniform(-0.1, 0.1) for _ in range(nvars)] for _ in range(300)])
            fx, gx = poly.value_and_grad(x)
            fy, gy = poly.value_and_grad(y)
            step = np.abs(x - y).max(axis=1)
            assert np.all(np.abs(gx).sum(axis=1) <= poly.lipschitz)
            assert np.all(np.abs(fx - fy) <= poly.lipschitz * step + 2.0 * poly.abs_slack)
            assert np.all(np.abs(gx - gy).sum(axis=1) <= poly.grad_lipschitz * step)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValidationError, match="not finite"):
            TrigPolynomial(1, (("cos", (1,), value),))
        with pytest.raises(ValidationError, match="not finite"):
            parse_evmap(f"evmap k=2 lambdas=1,2\nterm comp=0 kind=const order=0 value={value}\n")


class TestStack:
    @staticmethod
    def components(rng, nvars):
        """One to three seeded trig polynomials with orders up to 4, and constants."""
        comps = []
        for _ in range(rng.randint(1, 3)):
            terms = [("const", (0,) * nvars, rng.uniform(-1.0, 1.0))]
            for _ in range(rng.randint(0, 6)):
                orders = tuple(rng.randint(-4, 4) for _ in range(nvars))
                terms.append((rng.choice(("cos", "sin")), orders, rng.uniform(-1.5, 1.5)))
            comps.append(TrigPolynomial(nvars, tuple(terms)))
        return comps

    @pytest.mark.parametrize("step", [1.0 / 48, 1.0 / 256, 1e-6, 1e-12])
    @pytest.mark.parametrize("nvars, counts", [(1, (1, 2, 5, 97, 2042, 4096)), (2, (1, 2, 5, 48))])
    def test_lattice_matches_point_evaluation(self, nvars, counts, step):
        # Counts cover both circle layouts: the whole axis in the table (1,
        # 2, 5 and the prime 97), and runs of q = 2 (2042 = 2 x 1021) and
        # q = 64 (4096) points.
        rng = random.Random(1000 * nvars + int(-math.log2(step)))
        for _ in range(6):
            comps = self.components(rng, nvars)
            stack = evaluation._Stack(comps)
            corners = np.array([[rng.random() for _ in range(nvars)] for _ in range(3)])
            for count in counts:
                values = stack.lattice(corners, step, count)
                assert values.shape == (len(comps), len(corners)) + (count,) * nvars
                axes = np.meshgrid(*[np.arange(count)] * nvars, indexing="ij")
                offsets = np.stack(axes, axis=-1).reshape(-1, nvars) * step
                for b, corner in enumerate(corners):
                    for c, comp in enumerate(comps):
                        error = np.abs(values[c, b].ravel() - comp(corner + offsets))
                        assert error.max() <= comp.abs_slack

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_value_and_grad_matches_each_component(self, nvars):
        rng = random.Random(nvars)
        x = np.array([[rng.random() for _ in range(nvars)] for _ in range(50)])
        for _ in range(10):
            comps = self.components(rng, nvars)
            values, grad = evaluation._Stack(comps).value_and_grad(x)
            for c, comp in enumerate(comps):
                own_values, own_grad = comp.value_and_grad(x)
                assert np.abs(values[c] - own_values).max() <= comp.abs_slack
                assert np.allclose(grad[c], own_grad.T, rtol=0.0, atol=1e-14 * comp.lipschitz)


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
        # 1 - cos 2 pi x has a double root at 0: no ball certifies it and
        # the component is too flat there to exclude the cells.
        f1 = TrigPolynomial(1, (("const", (0,), 1.0), ("cos", (1,), -1.0)))
        f2 = TrigPolynomial(1, (("const", (0,), 2.0),))
        spec = EvMapSpec(2, (f1, f2), (0.5, 1.5))
        box = r"\[-?[\d.e-]+, -?[\d.e-]+\]"
        with pytest.raises(DegeneracyError, match=f"cells uncertified .* among them {box}") as info:
            pole_preimages(spec)
        assert "0 roots certified" in str(info.value)
        (x,) = info.value.where
        assert min(x, 1.0 - x) < 1e-3
        # The printed ends of a cell 2^-10 of a seed cell wide differ.
        ends = re.findall(box, str(info.value))
        assert ends and all(len(set(end[1:-1].split(", "))) == 2 for end in ends)

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

    @pytest.mark.parametrize("name", ["evmap_k2.txt", "evmap_k3.txt"])
    def test_lost_root_fails_degree_certificate(self, monkeypatch, name):
        real = evaluation._cell_zeros

        def drop_first_root(*args, **kwargs):
            roots, excluded, uncertified = real(*args, **kwargs)
            return roots[1:], excluded, uncertified

        pole_preimages(bundled_spec(name))  # the certificate holds with every root
        monkeypatch.setattr(evaluation, "_cell_zeros", drop_first_root)
        counts = r"signed count -?\d+ over the \+ pole, -?\d+ over the - pole"
        # A fresh map: the first one holds its unpatched search.
        with pytest.raises(DegeneracyError, match=counts) as info:
            pole_preimages(bundled_spec(name))
        assert "cells excluded" in str(info.value)

    def test_non_transverse_preimage_rejected(self):
        # The sine's root at 0 is certified, but |det J| = 2 pi 1e-9 there.
        spec = parse_evmap(
            "evmap k=2 lambdas=1,2\n"
            "term comp=0 kind=sin order=1 value=1e-9\n"
            "term comp=1 kind=const order=0 value=1\n"
            "term comp=1 kind=cos order=1 value=0.5\n"
        )
        message = re.escape(
            "preimage at (0.0,) of the +1 pole on axis 1 is not transverse (|det J| = 6.28e-09)"
        )
        with pytest.raises(DegeneracyError, match=message) as info:
            pole_preimages(spec)
        assert info.value.where == (0.0,)

    def test_double_root_leaves_cells_uncertified(self):
        # (0, 0) and (0, 1/2) are double roots of (f1, f2): no Kantorovich
        # ball certifies them and f1 is too flat there to exclude the cells.
        f1 = TrigPolynomial(2, (("const", (0, 0), 1.0), ("cos", (1, 0), -1.0)))
        f2 = TrigPolynomial(2, (("sin", (0, 1), 1.0),))
        f3 = TrigPolynomial(2, (("const", (0, 0), 2.0), ("cos", (1, 0), 1.0)))
        spec = EvMapSpec(3, (f1, f2, f3), (0.5, 1.5, 2.5))
        box = r"\[-?[\d.e-]+, -?[\d.e-]+\] x \[-?[\d.e-]+, -?[\d.e-]+\]"
        with pytest.raises(DegeneracyError, match=f"cells uncertified .* among them {box}") as info:
            pole_preimages(spec)
        assert "0 roots certified" in str(info.value)
        x, y = info.value.where
        assert min(x, 1.0 - x) < 0.01 and min(y, abs(y - 0.5), 1.0 - y) < 0.01

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


TORUS_MAPS = ["evmap_k3.txt", 3, 7, 11]


def torus_map(source):
    return bundled_spec(source) if isinstance(source, str) else seeded_torus_map(source)


class TestCertifiedCellSearch:
    @pytest.mark.parametrize("n_grid", [48, 96])
    @pytest.mark.parametrize("source", TORUS_MAPS)
    def test_matches_newton_oracle(self, source, n_grid):
        spec = torus_map(source)
        for omit in range(3):
            f1, f2 = (c for j, c in enumerate(spec.components) if j != omit)
            stack = evaluation._Stack([f1, f2])
            roots, excluded, uncertified = evaluation._cell_zeros(stack, n_grid)
            expected = torus_newton_oracle(f1, f2, n_grid)
            assert not uncertified and excluded > 0
            assert len(roots) == len(expected) >= 2
            d = np.abs(np.array(roots)[:, None, :] - np.array(expected)[None, :, :]) % 1.0
            close = np.minimum(d, 1.0 - d).max(axis=2) <= 1e-12
            assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)

    def test_kantorovich_balls(self):
        # (sin 2 pi x, sin 2 pi y): beta = 1 / (2 pi cos), K = 4 pi^2, so near
        # the root (0, 0) the uniqueness radius is about 2 / (beta K) = 1 / pi,
        # inside the distance 1/2 to the next root.
        f1 = TrigPolynomial(2, (("sin", (1, 0), 1.0),))
        f2 = TrigPolynomial(2, (("sin", (0, 1), 1.0),))
        x = np.array([[1e-11, -1e-11], [0.0, 0.0], [1e-6, 0.0]])
        ok, t_exist, t_unique = evaluation._kantorovich(evaluation._Stack([f1, f2]), x)
        assert ok.tolist() == [True, True, False]  # the last fails |f| < 1e-10
        assert np.all(t_exist[:2] >= np.abs(x[:2]).max(axis=1))
        assert np.allclose(t_unique[:2], 1.0 / math.pi, rtol=1e-9) and np.all(t_unique[:2] < 0.5)
        # At a double root h tends to 1/2 from above: never certified.
        g1 = TrigPolynomial(2, (("const", (0, 0), 1.0), ("cos", (1, 0), -1.0)))
        near = np.array([[10.0**-e, 0.0] for e in (6, 7, 8)])
        assert not evaluation._kantorovich(evaluation._Stack([g1, f2]), near)[0].any()

    def test_kantorovich_balls_nonsymmetric_jacobian(self):
        # (sin 2 pi x, sin 2 pi x + 0.2 sin 2 pi y): J(0, 0) = [[2 pi, 0], [2 pi, 0.4 pi]]
        # has |J^-1| = 5 / pi in the max norm, while |J| / det J is only 3 / pi.
        f1 = TrigPolynomial(2, (("sin", (1, 0), 1.0),))
        f2 = TrigPolynomial(2, (("sin", (1, 0), 1.0), ("sin", (0, 1), 0.2)))
        x = np.array([[0.0, 0.0], [1e-12, -2e-12], [-3e-12, 1e-12]])
        ok, t_exist, t_unique = evaluation._kantorovich(evaluation._Stack([f1, f2]), x)
        assert ok.all()
        lip = max(f1.grad_lipschitz, f2.grad_lipschitz)
        for p, t1, t2 in zip(x, t_exist, t_unique):
            jac = np.array([f1.value_and_grad(p)[1][0], f2.value_and_grad(p)[1][0]])
            inv = np.linalg.inv(jac)
            beta = np.abs(inv).sum(axis=1).max()
            eta = np.abs(inv @ np.array([f1(p)[0], f2(p)[0]])).max()
            h = beta * lip * eta
            assert t2 <= (1.0 + math.sqrt(1.0 - 2.0 * h)) / (beta * lip)
            assert t2 == pytest.approx((1.0 + math.sqrt(1.0 - 2.0 * h)) / (beta * lip), rel=1e-8)
            assert t1 >= 2.0 * eta / (1.0 + math.sqrt(1.0 - 2.0 * h))
        assert t_unique[0] == pytest.approx(2.0 / (5.0 / math.pi * 4.8 * math.pi**2), rel=1e-8)

    def test_meridian_search_work(self, monkeypatch):
        # The dense Newton sweep evaluated more than 60,000 points here.
        # A point counts once per component: the size of its values.
        spec = bundled_spec("evmap_k3.txt")
        real = evaluation._Stack.value_and_grad
        values = []

        def counted(self, x):
            out = real(self, x)
            values.append(out[0].size)
            return out

        monkeypatch.setattr(evaluation._Stack, "value_and_grad", counted)
        assert path_intersections(spec, n_grid=48).total_signed == 1
        assert 0 < sum(values) <= 200


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

    def test_crossings_are_the_filtered_pole_preimages(self):
        # The crossings through s e_through are the preimages of the pole s
        # on axis ``through``: the same points with the same signs.
        gen = _load_gen()
        specs = [bundled_spec("evmap_k2.txt"), bundled_spec("evmap_k3.txt")] + [
            parse_evmap(gen.torus_map_text(random.Random(seed), 2)) for seed in range(1, 11)
        ]
        cases = 0
        for spec in specs:
            for through, pole_axis, through_axis in (
                (0, "last_coordinate", "first_coordinate"),
                (spec.k - 1, "first_coordinate", "last_coordinate"),
            ):
                poles = pole_preimages(spec, through_axis)
                for sign in (1, -1):
                    res = path_intersections(spec, MeridianPath(pole_axis, through, sign))
                    expected = [(p.params, p.sign) for p in poles if p.pole == sign]
                    assert [(c.params, c.sign) for c in res.crossings] == expected
                    cases += 1
        assert cases == 48

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

    def test_report_truth_is_its_ok(self):
        assert bool(s0_zero_locus_check(identity_angle_map(), [20.0])) is True
        mismatch = evaluation.ZeroLocusMismatch(20.0, (0.5,), "zero without pole preimage")
        assert bool(evaluation.ZeroLocusReport(False, (mismatch,))) is False

    def test_zero_without_pole_preimage_reported(self, monkeypatch):
        real = evaluation.pole_preimages
        dropped = []

        def drop_first(*args, **kwargs):
            poles = real(*args, **kwargs)
            dropped.append(poles[0])
            return poles[1:]

        monkeypatch.setattr(evaluation, "pole_preimages", drop_first)
        report = s0_zero_locus_check(bundled_spec("evmap_k2.txt"), [60.0])
        assert not report.ok
        (mismatch,) = report.mismatches
        assert (mismatch.T, mismatch.reason) == (60.0, "zero without pole preimage")
        assert abs(mismatch.parameter[0] - dropped[0].params[0]) < 1e-8

    def test_bundled_specs_agree(self):
        for name in ("evmap_k2.txt", "evmap_k3.txt"):
            spec = bundled_spec(name)
            grid = np.linspace(40.0, 80.0, 4)
            report = s0_zero_locus_check(spec, grid)
            assert report.ok, report.mismatches

    @pytest.mark.parametrize("name, seeds", [("evmap_k2.txt", 1024), ("evmap_k3.txt", 40)])
    def test_pole_search_uses_the_scan_resolution(self, monkeypatch, name, seeds):
        real = evaluation._cell_zeros
        used = []

        def recorded(stack, n_cells, *args):
            used.append(n_cells)
            return real(stack, n_cells, *args)

        monkeypatch.setattr(evaluation, "_cell_zeros", recorded)
        assert s0_zero_locus_check(bundled_spec(name), [60.0], n_scan=seeds, n_cells=seeds).ok
        assert used == [seeds]

    @pytest.mark.parametrize("name, T", [("evmap_k3.txt", 260.0), ("evmap_k2.txt", 800.0)])
    def test_underflowing_section_scale_rejected(self, name, T):
        # e^{-2 lambda T} is 0.0 here, so every sample of the section would be
        # 0 and every closed cell kept at every level.
        with pytest.raises(DomainError, match=f"T = {T:g}, lambda = "):
            s0_zero_locus_check(bundled_spec(name), [T])

    @pytest.mark.parametrize("T", [math.nan, math.inf, -5.0, 0.0])
    def test_gluing_parameter_must_be_finite_and_positive(self, T):
        # At T = nan the scan kept no cell and reported every pole preimage
        # as missed; T <= 0 passed.
        with pytest.raises(DomainError, match="finite and positive"):
            s0_zero_locus_check(bundled_spec("evmap_k2.txt"), [60.0, T])

    def test_torus_scan_matches_per_cell_oracle(self):
        gen = _load_gen()
        specs = [bundled_spec("evmap_k3.txt")] + [
            parse_evmap(gen.torus_map_text(random.Random(seed), 2)) for seed in range(1, 31)
        ]
        for spec in specs:
            for T in (40.0, 60.0):
                zeros = evaluation._scan_zeros(spec, T, 64)
                scales = [math.exp(-2.0 * lam * T) for lam in spec.lambdas[:2]]
                oracle = torus_scan_oracle(spec.components[:2], scales, 64)
                assert len(zeros) == len(oracle)
                assert np.allclose(zeros, oracle, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "name, n_cells, sliced_calls", [("evmap_k2.txt", 8192, 997), ("evmap_k3.txt", 64, 1169)]
    )
    def test_scan_levels_take_few_calls(self, name, n_cells, sliced_calls):
        # Python and C function calls inside one scan, as sys.setprofile
        # sees them.  Levels that read their cells' signs through window
        # slices and argwhere took about 30 calls each around the lattice,
        # sliced_calls in all; one lattice and one gather of the children's
        # samples per level must take at most 60% of that.
        spec = bundled_spec(name)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            evaluation._scan_zeros(spec, 60.0, n_cells)
        finally:
            sys.setprofile(None)
        assert calls <= 0.6 * sliced_calls

    def test_torus_scan_evaluates_each_lattice_point_once(self, monkeypatch):
        # Sampling each cell's 3x3 grid separately took 9 * 64^2 = 36,864
        # points per component on the first level, for 128^2 distinct ones.
        spec = bundled_spec("evmap_k3.txt")
        sizes = count_lattice_values(monkeypatch)
        evaluation._scan_zeros(spec, 60.0, 64)
        assert sizes[0] == 2 * 128 * 128  # both components at each point
        assert sum(sizes[1:]) < sizes[0] / 2


# The benchmark's calls on one map, in its order: (name, seeding).
BENCH_CALLS = (
    ("pole_preimages", {"n_grid": 48}),
    ("path_intersections", {"n_scan": 2048, "n_grid": 48}),
    ("s0_zero_locus_check", {"n_scan": 2048, "n_cells": 64}),
)
# The three searching calls, each with its search sizes as keywords.
SEARCH_CALLS = {
    "pole_preimages": lambda spec, **size: pole_preimages(spec, **size),
    "path_intersections": lambda spec, **size: path_intersections(spec, **size),
    "s0_zero_locus_check": lambda spec, **size: s0_zero_locus_check(spec, [60.0], **size),
}


class TestHeldSearch:
    @pytest.mark.parametrize("name, keys", [
        ("evmap_k2.txt", [(0, 2048), (1, 2048), (1, 8192)]),
        ("evmap_k3.txt", [(0, 48), (2, 48), (2, 64)]),
    ])
    def test_one_search_per_axis_and_seeding(self, monkeypatch, name, keys):
        # On the circle the zero-locus check repeats the arc search of
        # path_intersections; the torus calls seed 48 and 64 cells.
        real = evaluation._cell_zeros
        seeded = []

        def recorded(stack, n_cells):
            seeded.append(n_cells)
            return real(stack, n_cells)

        monkeypatch.setattr(evaluation, "_cell_zeros", recorded)
        spec = bundled_spec(name)
        for _ in range(2):
            for call, size in BENCH_CALLS:
                SEARCH_CALLS[call](spec, **size)
        assert sorted(spec._searches) == keys
        assert sorted(seeded) == sorted(n for _, n in keys)
        pole_preimages(spec, n_scan=1024, n_grid=40)  # a new seeding searches again
        assert len(seeded) == 4

    @pytest.mark.parametrize("order", [1, -1], ids=["bench-order", "reversed"])
    @pytest.mark.parametrize("source", ["evmap_k2.txt", "evmap_k3.txt", 1, 2])
    def test_held_search_changes_no_result(self, source, order):
        # Each call on a map of its own against all of them on one map.
        def load():
            if isinstance(source, str):
                return bundled_spec(source)
            return parse_evmap(_load_gen().torus_map_text(random.Random(source), 2))

        calls = [*BENCH_CALLS, *((call, {}) for call in SEARCH_CALLS)][::order]
        shared = load()
        for call, size in calls:
            assert SEARCH_CALLS[call](shared, **size) == SEARCH_CALLS[call](load(), **size)

    def test_held_searches_are_invisible(self):
        spec, fresh = bundled_spec("evmap_k2.txt"), bundled_spec("evmap_k2.txt")
        before = (hash(spec), repr(spec))
        poles = pole_preimages(spec, n_scan=2048)
        assert spec._searches and not fresh._searches
        assert spec == fresh and (hash(spec), repr(spec)) == (hash(fresh), repr(fresh)) == before
        copy = dataclasses.replace(spec)
        assert copy == spec and copy._searches == {}
        flipped = dataclasses.replace(spec, orientation=-1)
        assert [p.sign for p in pole_preimages(flipped, n_scan=2048)] == [-p.sign for p in poles]


class TestSearchSizes:
    # Unchecked, n_scan = -5 seeded no cell, so pole_preimages returned no
    # preimage and its degree check passed as 0 == 0; a size of 0 raised
    # ZeroDivisionError, n_scan = 2048.5 TypeError, and n_scan = 100.5
    # seeded 101 cells of width 1/100.5.

    @pytest.mark.parametrize("value", [-5, 0, 100.5, 2048.5, "64", None, True, False])
    @pytest.mark.parametrize(
        "call, name, map_name",
        [
            ("pole_preimages", "n_scan", "evmap_k2.txt"),
            ("pole_preimages", "n_grid", "evmap_k3.txt"),
            ("path_intersections", "n_scan", "evmap_k2.txt"),
            ("path_intersections", "n_grid", "evmap_k3.txt"),
            ("s0_zero_locus_check", "n_scan", "evmap_k2.txt"),
            ("s0_zero_locus_check", "n_cells", "evmap_k3.txt"),
        ],
    )
    def test_rejected(self, call, name, map_name, value):
        message = re.escape(f"{name} must be an integer >= 1, got {value!r}")
        with pytest.raises(DomainError, match=message):
            SEARCH_CALLS[call](bundled_spec(map_name), **{name: value})

    def test_least_and_numpy_integer_sizes_accepted(self):
        assert len(pole_preimages(bundled_spec("evmap_k2.txt"), n_scan=1)) == 4
        spec = bundled_spec("evmap_k3.txt")
        assert s0_zero_locus_check(spec, [60.0], n_scan=np.int64(2048), n_cells=np.int64(64)).ok


class TestLift:
    def test_inclusion_identity(self):
        spec = bundled_spec("evmap_k2.txt")
        lifted = lift_spec(spec, (0, 2), (0.5, 1.0, 1.5))
        assert lifted.k == 3
        theta = np.linspace(0, 1, 13).reshape(-1, 1)
        base = spec.evaluate(theta)
        big = lifted.evaluate(theta)
        assert np.allclose(big[:, 0], base[:, 0])
        assert np.allclose(big[:, 2], base[:, 1])
        assert np.allclose(big[:, 1], 0.0)

    def test_position_validation(self):
        spec = bundled_spec("evmap_k2.txt")
        with pytest.raises(ValidationError, match="strictly increasing"):
            lift_spec(spec, (2, 0), (0.5, 1.0, 1.5))
        with pytest.raises(ValidationError, match="one target slot per original component"):
            lift_spec(spec, (0,), (0.5, 1.0, 1.5))
        with pytest.raises(ValidationError, match="out of range"):
            lift_spec(spec, (0, 5), (0.5, 1.0, 1.5))
        with pytest.raises(ValidationError, match="finite"):
            lift_spec(spec, (0, 2), (0.5, math.nan, 1.5))

    def test_eigenvalues_checked_at_lift_time(self):
        spec = bundled_spec("evmap_k2.txt")
        with pytest.raises(ValidationError, match="nondecreasing"):
            lift_spec(spec, (0, 2), (3.0, 2.0, 1.0))
        # new_k is the number of eigenvalues, so too few leave a slot out of range
        with pytest.raises(ValidationError, match="target slots out of range"):
            lift_spec(spec, (0, 2), (0.5, 1.0))


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
        with pytest.raises(ValidationError, match="<memory>:2: unknown term kind 'tan'"):
            parse_evmap("evmap k=2 lambdas=1,2\nterm comp=0 kind=tan order=1 value=1\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("evmap k=2 lambdas=1,2 orientaton=-1", "m.txt:1: unknown field 'orientaton'"),
            ("term comp=2 kind=const order=0 value=1", "m.txt:2: component 2 out of range for k=2"),
            ("term comp=-1 kind=const order=0 value=1", "m.txt:2: component -1 out of range"),
            ("term comp=0 kind=cos order=1 value 1", "m.txt:2: expected key=value, got 'value'"),
            ("term comp=0 kind=cos order=1 value=1 value=2", "m.txt:2: duplicate field 'value'"),
        ],
        ids=["misspelt_key", "comp_too_large", "comp_negative", "no_equals", "repeated_key"],
    )
    def test_malformed_records_rejected_with_location(self, text, message):
        if not text.startswith("evmap"):
            text = "evmap k=2 lambdas=1,2\n" + text
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_evmap(text + "\n", "m.txt")

    @pytest.mark.parametrize(
        "fields,message",
        [
            ("k=2 lambdas=1,2,3", "need one eigenvalue per component"),
            ("k=2 lambdas=2,1", "flow eigenvalues must be nondecreasing"),
            ("k=2 lambdas=0,2", "flow eigenvalues must be finite and positive"),
            ("k=2 lambdas=1,2 orientation=2", "orientation flag must be +1 or -1"),
        ],
        ids=["lambda_count", "lambda_order", "lambda_zero", "orientation"],
    )
    def test_header_fields_rejected_at_header_line(self, fields, message):
        text = f"# header after a comment and a blank line\n\nevmap {fields}\n"
        with pytest.raises(ValidationError) as err:
            parse_evmap(text + "term comp=0 kind=const order=0 value=1\n", "m.txt")
        assert str(err.value) == f"m.txt:3: {message}"

    def test_header_orientation_with_plus_sign(self):
        spec = parse_evmap("evmap k=2 lambdas=1,2 orientation=+1\nterm comp=0 kind=const order=0 value=1\n")
        assert spec.orientation == 1

    @pytest.mark.parametrize("k", [1, 4, 10_000, 1_000_000])
    def test_header_k_rejected_before_allocating(self, k):
        # One polynomial of arity k - 1 per component used to be built
        # before k was checked: 0.39 s at k = 10^4, minutes at k = 10^6.
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=re.escape(f"m.txt:1: unknown evmap k '{k}' (2|3)")):
            parse_evmap(f"evmap k={k} lambdas=1,2\n", "m.txt")
        assert time.perf_counter() - start < 0.25


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_end_expansion_rejects_non_finite(self, value):
        with pytest.raises(ValidationError, match="finite"):
            EndExpansion((value, 1.0), (1.0, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            EndExpansion((0.5, 1.0), (1.0, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spec_rejects_non_finite_lambdas(self, value):
        f1 = TrigPolynomial(1, (("cos", (1,), 1.0),))
        f2 = TrigPolynomial(1, (("sin", (1,), 1.0),))
        with pytest.raises(ValidationError, match="finite"):
            EvMapSpec(2, (f1, f2), (0.5, value))
        with pytest.raises(ValidationError, match="finite"):
            parse_evmap(f"evmap k=2 lambdas={value},2\nterm comp=0 kind=const order=0 value=1\n")

    @pytest.mark.parametrize("k", [2, 3])
    def test_screened_origin_check_matches_dense_grid(self, k):
        # Maps shifted so that |F| is 1e-10 or 2e-9 at a grid point, or
        # F = 0 halfway between grid points, and unshifted maps.
        nvars = k - 1
        axis = np.arange(256) / 256
        grid = np.stack(np.meshgrid(*[axis] * nvars, indexing="ij"), -1).reshape(-1, nvars)
        rng = random.Random(40 + k)
        verdicts = []
        for target, offset in [(1e-10, 0.0), (2e-9, 0.0), (0.0, 0.5 / 256), (None, 0.0)] * 3:
            comps = [random_trig_polynomial(rng, nvars, 5) for _ in range(k)]
            if target is not None:
                p = grid[rng.randrange(len(grid))] + offset
                direction = np.array([rng.gauss(0.0, 1.0) for _ in range(k)])
                shift = target * direction / np.linalg.norm(direction)
                comps = [
                    TrigPolynomial(nvars, c.terms + (("const", (0,) * nvars, s - c(p)[0]),))
                    for c, s in zip(comps, shift)
                ]
            dense = np.linalg.norm(np.column_stack([c(grid) for c in comps]), axis=1)
            rejected = bool(dense.min() < 1e-9)
            assert rejected == (target == 1e-10)
            if rejected:
                with pytest.raises(ValidationError, match="map image approaches the origin"):
                    EvMapSpec(k, tuple(comps), (0.5, 1.5, 2.5)[:k])
            else:
                EvMapSpec(k, tuple(comps), (0.5, 1.5, 2.5)[:k])
            verdicts.append(rejected)
        assert verdicts.count(True) == 3


def _cos_sin(orders_cos=(1,), orders_sin=(1,)):
    return (TrigPolynomial(len(orders_cos), (("cos", orders_cos, 1.0),)),
            TrigPolynomial(len(orders_sin), (("sin", orders_sin, 1.0),)))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: EndExpansion((1.0,), ()), ValidationError,
                 "lambdas and coeffs must have equal length", id="end-lengths"),
    pytest.param(lambda: EndExpansion((), ()), ValidationError,
                 "an end expansion needs at least one mode", id="end-empty"),
    pytest.param(lambda: EndExpansion((True, 1.0), (1.0, 1.0)), ValidationError,
                 "flow eigenvalues must be finite and positive", id="end-eigenvalue-bool"),
    pytest.param(lambda: EndExpansion((1j, 1.0), (1.0, 1.0)), ValidationError,
                 "flow eigenvalues must be finite and positive", id="end-eigenvalue-complex"),
    pytest.param(lambda: s0_eval(1.0, EndExpansion((1.0,), (1.0,))), ValidationError,
                 "s0 needs k >= 2 modes", id="s0-k"),
    # A bool T was taken as 1.0, and a str or None T raised a bare TypeError.
    pytest.param(lambda: s0_eval(True, EndExpansion((0.5, 1.0), (1.0, 1.0))), DomainError,
                 "the gluing parameter T must be finite and positive, got True", id="s0-T-bool"),
    pytest.param(lambda: s0_eval("2", EndExpansion((0.5, 1.0), (1.0, 1.0))), DomainError,
                 "the gluing parameter T must be finite and positive, got '2'", id="s0-T-str"),
    pytest.param(lambda: s0_eval(None, EndExpansion((0.5, 1.0), (1.0, 1.0))), DomainError,
                 "the gluing parameter T must be finite and positive, got None", id="s0-T-none"),
    pytest.param(lambda: s0_eval(math.nan, EndExpansion((0.5, 1.0), (1.0, 1.0))), DomainError,
                 "the gluing parameter T must be finite and positive, got nan", id="s0-T-nan"),
    pytest.param(lambda: flow_normalize(EndExpansion((1.0,), (3.0,)), True), DomainError,
                 "radius must be finite and positive, got True", id="radius-bool"),
    pytest.param(lambda: flow_normalize(EndExpansion((1.0,), (3.0,)), "2"), DomainError,
                 "radius must be finite and positive, got '2'", id="radius-str"),
    pytest.param(lambda: flow_normalize(EndExpansion((1.0,), (3.0,)), None), DomainError,
                 "radius must be finite and positive, got None", id="radius-none"),
    pytest.param(lambda: flow_normalize(EndExpansion((1.0,), (3.0,)), math.nan), DomainError,
                 "radius must be finite and positive, got nan", id="radius-nan"),
    pytest.param(lambda: s0_zero_locus_check(identity_angle_map(), [True]), DomainError,
                 "the gluing parameter T must be finite and positive, got True", id="grid-T-bool"),
    pytest.param(lambda: s0_zero_locus_check(identity_angle_map(), [60.0, "2"]), DomainError,
                 "the gluing parameter T must be finite and positive, got '2'", id="grid-T-str"),
    pytest.param(lambda: s0_zero_locus_check(identity_angle_map(), [None]), DomainError,
                 "the gluing parameter T must be finite and positive, got None", id="grid-T-none"),
    pytest.param(lambda: s0_zero_locus_check(identity_angle_map(), [math.nan]), DomainError,
                 "the gluing parameter T must be finite and positive, got nan", id="grid-T-nan"),
    pytest.param(lambda: TrigPolynomial(1, (("tan", (1,), 1.0),)), ValidationError,
                 "unknown term kind 'tan'", id="term-kind"),
    pytest.param(lambda: TrigPolynomial(1, (("cos", (1, 2), 1.0),)), ValidationError,
                 "term order tuple has wrong arity", id="term-arity"),
    pytest.param(lambda: TrigPolynomial(1, (("sin", (0.5,), 1.0),)), ValidationError,
                 "term order must be an integer, got 0.5", id="term-order-fraction"),
    pytest.param(lambda: TrigPolynomial(2, (("cos", (1, True), 1.0),)), ValidationError,
                 "term order must be an integer, got True", id="term-order-bool"),
    pytest.param(lambda: EvMapSpec(4, _cos_sin() * 2, (0.5, 1.0, 1.5, 2.0)), ValidationError,
                 "evaluation maps are implemented for k in {2, 3}", id="spec-k"),
    pytest.param(lambda: EvMapSpec(2, _cos_sin()[:1], (0.5, 1.5)), ValidationError,
                 "need one component per target coordinate", id="spec-components"),
    pytest.param(lambda: EvMapSpec(2, _cos_sin(orders_sin=(1, 1)), (0.5, 1.5)), ValidationError,
                 "component arity must match the domain dimension", id="spec-arity"),
    pytest.param(lambda: EvMapSpec(2, _cos_sin(), (0.5, True)), ValidationError,
                 "flow eigenvalues must be finite and positive", id="spec-eigenvalue-bool"),
    # lift_spec converted its eigenvalues with float() before checking them:
    # "0.5" became 0.5 and True became 1.0.
    pytest.param(lambda: lift_spec(identity_angle_map(), [0, 2], ["0.5", "1.0", 2.5]),
                 ValidationError, "flow eigenvalues must be finite and positive",
                 id="lift-eigenvalue-str"),
    pytest.param(lambda: lift_spec(identity_angle_map(), [0, 2], [True, 1.0, 2.5]),
                 ValidationError, "flow eigenvalues must be finite and positive",
                 id="lift-eigenvalue-bool"),
    pytest.param(lambda: pole_preimages(identity_angle_map(), pole_choice="middle"),
                 ValidationError, "pole_choice must be last_coordinate or first_coordinate",
                 id="pole-choice"),
    pytest.param(lambda: MeridianPath(through_sign=0), ValidationError,
                 "through_sign must be +1 or -1", id="through-sign"),
    pytest.param(lambda: path_intersections(identity_angle_map(), MeridianPath(through=1)),
                 ValidationError, "the meridian must pass through a distinct axis",
                 id="meridian-axis"),
    pytest.param(lambda: parse_evmap("evmap k=2 lambdas=1,2\nevmap k=2 lambdas=1,2\n"),
                 ValidationError, "<memory>:2: duplicate evmap header", id="duplicate-header"),
    pytest.param(
        lambda: parse_evmap("evmap k=2 lambdas=1,2\nterm comp=0 kind=cos order=1,2 value=1\n"),
        ValidationError, "<memory>:2: order arity 2 != 1", id="order-arity",
    ),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)
