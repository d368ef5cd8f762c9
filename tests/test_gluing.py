import math

import numpy as np
import pytest

from cylcc import gluing
from cylcc.errors import DomainError, ValidationError
from cylcc.gluing import (
    CokernelBasisModel,
    NeckField,
    NeckParams,
    Ramp,
    RampMode,
    SweepReport,
    SweepRow,
    estimate_sweep,
    make_cutoffs,
    momo_check,
    obstruction_pairing,
    preglue,
    solve_neck,
    theta_residuals,
    two_sided_pairing,
    two_sided_pairing_quadrature,
)
from cylcc.spectral import OperatorKind, closed_form_spectrum

from .oracles import star_norm_oracle, sweep_oracle

KIND = OperatorKind.pos_hyperbolic(0.5)


class _ValueFlipped(RampMode):
    """A planted defect: the value changes sign, the derivative does not."""

    def value(self, s):
        return -super().value(s)


def setup(T=60.0, max_index=3, **kw):
    params = NeckParams(T=T, **kw)
    spectrum = closed_form_spectrum(KIND, max_index)
    return params, spectrum


class TestNeckParams:
    def test_invariants(self):
        with pytest.raises(DomainError):
            NeckParams(h=1.5)
        with pytest.raises(DomainError):
            NeckParams(h=0.5, r=1.0)  # r <= 1/h
        with pytest.raises(DomainError):
            NeckParams(T0=10.0, r=4.0)  # T0 <= 5r
        with pytest.raises(DomainError):
            NeckParams(T0=21.0, T=40.0)  # T <= 2 T0

    @pytest.mark.parametrize("field", ["T0", "T", "h", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # nan passes every inequality test; T = inf used to fail later as
        # "mode -1 is not finite-energy", and T0 = nan gave a sweep row.
        with pytest.raises(DomainError, match="must be finite"):
            NeckParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("s_grid", 100.5), ("s_grid", math.nan), ("s_grid", True), ("s_grid", 63)],
    )
    def test_sizes_must_be_integers(self, field, value):
        # s_grid = 100.5 gave a sweep row and nan passed every inequality.
        with pytest.raises(DomainError, match=f"{field} must be an integer >= 64, got"):
            NeckParams(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        # A numpy s_grid used to reach list repetition as a numpy bool.
        sizes = NeckParams(s_grid=np.int64(256))
        assert type(sizes.s_grid) is int
        assert estimate_sweep([sizes], [1.0]) == estimate_sweep([NeckParams(s_grid=256)], [1.0])

    def test_defaults_satisfy_paper_constraints(self):
        p = NeckParams()
        assert p.r > 1.0 / p.h
        assert p.T0 > 5.0 * p.r
        assert p.T > 2.0 * p.T0

    @pytest.mark.parametrize("x", [
        37 * NeckParams().grid_step,  # ceil(x / step) = 38: one step down
        np.nextafter(1091 * NeckParams().grid_step, math.inf),  # ceil = 1091: one step up
    ])
    def test_count_below_corrects_the_rounded_guess(self, x):
        params = NeckParams()
        assert params.count_below(x) == np.count_nonzero(params.grid() < x)

    def test_run_sum_overflows_to_inf(self):
        # K^2 = 1e600 is past the float range although its logarithm is not.
        params, spectrum = setup()
        assert gluing._constant_run_sum(1e300, 1.0, 0.0, 0, 10, params) == math.inf
        assert NeckField.end_from_above(spectrum, params, {1: 1e300}).star_norm() == math.inf


class TestCutoffs:
    def test_endpoint_values(self):
        params, _ = setup()
        cut = make_cutoffs(params)
        w = params.ramp_width
        assert (cut.plus.lo, cut.plus.width) == (params.T0, w)
        assert (cut.minus.lo, cut.minus.width) == (params.T - w, w)
        # minus is 1 - beta_minus: beta_minus is 1 at T - w and 0 at T
        assert cut.minus.value(params.T - w) == 0.0
        assert cut.minus.value(params.T) == 1.0
        assert cut.plus.value(params.T0) == 0.0
        assert cut.plus.value(params.T0 + w) == 1.0

    def test_ramp_rate_integrates_to_one(self):
        params, _ = setup()
        for ramp in make_cutoffs(params):
            s = np.linspace(ramp.lo - 0.5, ramp.hi + 0.5, 2_000_001)
            val = np.trapezoid(ramp.rate(s), s)
            assert abs(val - 1.0) < 1e-12

    def test_profiles_monotone(self):
        params, _ = setup()
        s = np.linspace(0.0, params.s_max, 4001)
        for ramp in make_cutoffs(params):
            assert np.all(np.diff(ramp.value(s)) >= 0.0)
            assert np.all(ramp.rate(s) >= 0.0)


class TestSimpsonRule:
    @pytest.mark.parametrize("n", [2, 3, 8, 31])
    def test_exact_on_cubics_and_odd_n_rounded_up(self, n):
        nodes, weights = gluing._simpson_rule(-1.5, 2.0, n)
        assert len(nodes) == len(weights) == n + n % 2 + 1
        assert (nodes[0], nodes[-1]) == (-1.5, 2.0)
        cubic = 2.0 * nodes**3 - nodes**2 + 0.5 * nodes + 3.0

        def antiderivative(x):
            return 0.5 * x**4 - x**3 / 3.0 + 0.25 * x**2 + 3.0 * x

        exact = antiderivative(2.0) - antiderivative(-1.5)
        assert weights @ cubic == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_numpy_integer_counts_accepted(self):
        nodes, weights = gluing._simpson_rule(0.0, 1.0, np.int64(3))
        assert len(nodes) == len(weights) == 5
        cok = CokernelBasisModel.exact(np.int64(2), closed_form_spectrum(KIND, 3))
        assert cok.sigma(np.int32(2)).index == 2

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_fewer_than_one_panel_rejected(self, n):
        # n = 0 and -1 gave one node of infinite weight (nan pairings), and
        # n = -4 numpy's "negative dimensions"; n_quad=0 meant s_grid.
        params, spectrum = setup()
        cok = CokernelBasisModel.exact(2, spectrum)
        field = NeckField.end_from_above(spectrum, params, {1: 1.0})
        with pytest.raises(ValidationError, match="at least one panel"):
            gluing._simpson_rule(0.0, 1.0, n)
        with pytest.raises(ValidationError, match="at least one panel"):
            obstruction_pairing(cok.sigma(1), field, n_quad=n)
        args = (3.0, 2.5, _two_sided_model(spectrum), [1.2, -0.4, 0.8], [0.5, -1.0, 0.3], params)
        with pytest.raises(ValidationError, match="at least one panel"):
            two_sided_pairing_quadrature(*args, n)


class TestPreglue:
    def test_zero_ends_trivial_cylinder(self):
        params, spectrum = setup()
        zero = NeckField.zero(spectrum, params)
        glued = preglue(zero, zero)
        assert glued.mode_indices == []

    def test_plateau_is_plain_sum(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5})
        glued = preglue(eta_p, eta_m)
        w = params.ramp_width
        s = np.linspace(params.T0 + w, params.T - w, 17)
        for i, src in ((1, eta_p), (-1, eta_m)):
            assert np.allclose(glued.mode_value(i, s), src.mode_value(i, s), rtol=0.0)

    def test_bottom_branch_matches_eta_minus(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5})
        glued = preglue(eta_p, eta_m)
        s = np.array([params.T0])
        assert glued.mode_value(1, s)[0] == 0.0  # beta_plus vanishes there
        assert glued.mode_value(-1, s)[0] == eta_m.mode_value(-1, s)[0]

    def test_output_lives_on_the_ends_neck(self):
        # Given a neck beside its ends, preglue built a field on that neck:
        # ends on T = 60 gave a field on T = 80 with its top mode anchored at
        # 120, not 160.  Now every output is on the ends' own neck.
        params, spectrum = setup(T=80.0)
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5})
        glued = preglue(eta_p, eta_m)
        assert all(f.params is params for f in (glued, *solve_neck(eta_p, eta_m)))
        assert glued.modes[1].anchor == 160.0

    def test_support_violation(self):
        params, spectrum = setup()
        bad = NeckField.end_from_below(spectrum, params, {-1: 1.0})
        with pytest.raises(ValidationError):
            preglue(bad, bad)
        with pytest.raises(ValidationError):
            NeckField.end_from_above(spectrum, params, {-1: 1.0})

    def test_nonconstant_ends_rejected(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5})
        zero = NeckField.zero(spectrum, params)
        with pytest.raises(ValidationError, match="top-end mode 1 is not constant"):
            preglue(preglue(eta_p, zero), eta_m)
        with pytest.raises(ValidationError, match="bottom-end mode -1 is not constant"):
            preglue(eta_p, preglue(zero, eta_m))


class TestSolveNeck:
    def test_zero_bottom_forcing_gives_zero_psi_plus(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 1.0})
        zero = NeckField.zero(spectrum, params)
        psi_plus, _ = solve_neck(eta_p, zero)
        grid = params.grid()
        assert all(
            np.allclose(psi_plus.mode_value(i, grid), 0.0)
            for i in spectrum.indices
        )

    def test_negative_mode_endpoint(self):
        params, spectrum = setup()
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.0})
        psi_plus, _ = solve_neck(NeckField.zero(spectrum, params), eta_m)
        top = np.array([params.s_max])
        assert abs(psi_plus.b(-1, top)[0] + 1.0) < 1e-15

    def test_positive_modes_constant(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 3.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: -2.0, -2: 0.7})
        checks = momo_check(eta_p, eta_m)
        assert checks["positive_mode_drift"] < 1e-9
        assert checks["endpoint_deviation"] < 1e-9

    def test_momo_check_reads_exactly_zero_on_valid_ends(self):
        # Both values are exact by construction: psi_+ has no positive
        # modes, and each endpoint is 0.0 + (-d) + d.
        params, spectrum = setup()
        rng = np.random.default_rng(11)
        for _ in range(100):
            top = {i: float(rng.uniform(-5, 5)) for i in (1, 2, 3) if rng.random() < 0.7}
            bottom = {i: float(rng.uniform(-5, 5)) for i in (-1, -2, -3) if rng.random() < 0.7}
            eta_p = NeckField.end_from_above(spectrum, params, top)
            eta_m = NeckField.end_from_below(spectrum, params, bottom)
            assert momo_check(eta_p, eta_m) == {
                "positive_mode_drift": 0.0, "endpoint_deviation": 0.0,
            }

    def test_residuals_tiny(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0, 3: -1.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5, -2: 0.5})
        psi_plus, psi_minus = solve_neck(eta_p, eta_m)
        res_plus, res_minus = theta_residuals(eta_p, eta_m, psi_plus, psi_minus)
        assert res_plus < 1e-9
        assert res_minus < 1e-9

    def test_peach_one_analogue(self):
        # After solving, eta_- + psi_- has no positive-mode content above
        # the bottom cutoff ramp.
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.0})
        _, psi_minus = solve_neck(eta_p, eta_m)
        grid = params.grid()
        above = grid[grid >= params.T0 + params.ramp_width]
        content = max(
            float(np.max(np.abs(
                eta_m.mode_value(i, above) + psi_minus.mode_value(i, above)
            )))
            for i in spectrum.indices
            if i > 0
        )
        assert content < 1e-10

    def test_nonconstant_ends_rejected(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5})
        zero = NeckField.zero(spectrum, params)
        with pytest.raises(ValidationError, match="top-end mode 1 is not constant"):
            solve_neck(preglue(eta_p, zero), eta_m)
        with pytest.raises(ValidationError, match="bottom-end mode -1 is not constant"):
            solve_neck(eta_p, preglue(zero, eta_m))

    def test_residuals_catch_planted_flips(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0, 3: -1.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5, -2: 0.5})
        psi_plus, psi_minus = solve_neck(eta_p, eta_m)
        # psi_- mode 1 is c e^{-2 lambda T}, about 1.8e-26 here: each mode's
        # residual is relative to its own size, so its flips show as well.
        for psi, index, which in ((psi_plus, -1, 0), (psi_minus, 1, 1)):
            mode = psi.modes[index]
            flipped = RampMode(-mode.a, -mode.c, mode.ramp, mode.anchor)
            value_only = _ValueFlipped(mode.a, mode.c, mode.ramp, mode.anchor)
            for planted in (flipped, value_only):
                bad = NeckField(spectrum, params, {**psi.modes, index: planted})
                fields = [psi_plus, psi_minus]
                fields[which] = bad
                res = theta_residuals(eta_p, eta_m, *fields)
                assert res[which] > 1e-3
                assert res[1 - which] < 1e-9

    def test_mode_collision_rejected(self):
        params, spectrum = setup()
        eta_p = NeckField.end_from_above(spectrum, params, {1: 1.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.0})
        collide = NeckField(spectrum, params, dict(eta_p.modes))
        bad = NeckField(spectrum, params, {**eta_m.modes, **eta_p.modes})
        with pytest.raises(ValidationError):
            solve_neck(collide, bad)


# Neck geometries for the norm: s_grid 64, an odd size, sizes that put
# T0 and T (81), all four ramp ends (121, and 261 on the wide neck) or
# none of them (361, step 1/3) exactly on grid points, and the
# benchmark's size.
NORM_GEOMETRIES = [
    dict(s_grid=64),
    dict(s_grid=1001),
    dict(s_grid=81),
    dict(s_grid=121),
    dict(s_grid=361),
    dict(T=45.0, s_grid=32768),
    dict(T=45.0, s_grid=32767),
    dict(T0=41.0, T=130.0, r=8.0, s_grid=261),
    dict(T0=41.0, T=130.0, r=8.0, s_grid=32768),
]


def _norm_fields(params, spectrum):
    """End data, their preglued and solved fields, and single ramp modes.

    Single modes are scaled so that |b e^{lambda s}| is about one where it
    is largest, which keeps every squared grid value a normal float.
    """
    cut = make_cutoffs(params)
    top = NeckField.end_from_above(spectrum, params, {1: 2.0, 2: -1.0, 3: 0.5})
    bottom = NeckField.end_from_below(spectrum, params, {-1: 1.5, -2: 0.5, -3: -0.7})
    fields = [top, bottom, preglue(top, bottom), *solve_neck(top, bottom)]
    for i in (1, 2, 3, -1, -2, -3):
        lam = spectrum.eigenvalue(i)
        for ramp in (cut.plus, cut.minus):
            for a, c in ((0.7, -1.9), (0.0, 1.3), (1.3, -1.3), (-0.4, 0.0)):
                if lam > 0.0:
                    peak = params.s_max if a + c != 0.0 else ramp.hi
                else:
                    peak = 0.0 if a != 0.0 else ramp.lo
                if abs(lam * peak) > 700.0:
                    continue  # no float scale makes the mode representable
                scale = math.exp(-lam * peak)
                fields.append(NeckField(spectrum, params, {i: RampMode(a * scale, c * scale, ramp)}))
    return fields


class TestStarNorm:
    @pytest.mark.parametrize("geometry", NORM_GEOMETRIES, ids=str)
    def test_matches_full_grid_oracle(self, geometry):
        params, spectrum = setup(**geometry)
        for field in _norm_fields(params, spectrum):
            expected = star_norm_oracle(field)
            assert field.star_norm() == pytest.approx(expected, rel=1e-12, abs=0.0), field.modes

    @pytest.mark.parametrize(
        "lo, width",
        [(-10.0, 2.0), (-1.0, 2.0), (119.0, 3.0), (200.0, 1.0), (30.0, 0.01), (0.0, 120.0)],
    )
    def test_ramp_off_or_between_grid_points(self, lo, width):
        # Supports beyond the grid, across an end, narrower than a step,
        # or the whole neck, on the coarsest grid.
        params, spectrum = setup(s_grid=64)
        for i in (1, -1):
            field = NeckField(spectrum, params, {i: RampMode(0.3, -0.7, Ramp(lo, width))})
            assert field.star_norm() == pytest.approx(star_norm_oracle(field), rel=1e-12, abs=0.0)

    def test_top_mode_with_underflowing_scale_keeps_its_norm(self):
        # e^{-2 lambda_3 T} underflows to 0 at T = 130; anchored at 2T, mode
        # 3 is still 0.5 e^{lambda_3 (s - 2T)}, and its norm counts.
        params, spectrum = setup(T0=41.0, T=130.0, r=8.0, s_grid=32768)
        field = NeckField.end_from_above(spectrum, params, {1: 2.0, 3: 0.5})
        assert field.modes[3] == RampMode(0.5, anchor=260.0)
        assert field.b(3, np.array([0.0, 260.0])).tolist() == [0.0, 0.0]
        only_1 = NeckField.end_from_above(spectrum, params, {1: 2.0})
        assert field.star_norm() == pytest.approx(star_norm_oracle(field), rel=1e-12, abs=0.0)
        assert field.star_norm() > only_1.star_norm()

    @pytest.mark.parametrize("T", [56.0, 57.5, 59.0, 60.0])
    def test_top_end_anchored_at_2T(self, T):
        # For mode 2 of pos_hyperbolic(0.5), e^{2 lambda T} overflows from
        # T = 56.3 on, and c e^{-2 lambda T} is subnormal up to T = 59.1
        # and 0 after it.  A stored c e^{-2 lambda T} was rejected as not
        # finite-energy (inf times subnormal) at 57.5 and 59, and dropped
        # at 60.  Expected values are formed in log space.
        params = NeckParams(T=T)
        spectrum = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 4)
        lam, c = spectrum.eigenvalue(2), -1.5
        field = NeckField.end_from_above(spectrum, params, {2: c})
        grid = params.grid()
        expected = -np.exp(math.log(-c) + lam * (grid - 2.0 * T))
        # subnormal values near s = 0 carry few bits: compare them absolutely
        assert np.allclose(field.mode_value(2, grid), expected, rtol=1e-12, atol=1e-300)
        assert field.mode_value(2, np.array([2.0 * T])).tolist() == [c]
        squares = np.exp(2.0 * (math.log(-c) + lam * (grid - 2.0 * T)))
        norm = math.sqrt(float(np.trapezoid(squares, grid))) * (1.0 + lam)
        assert field.star_norm() == pytest.approx(norm, rel=1e-12, abs=0.0)
        bottom = NeckField.zero(spectrum, params)
        psi_plus, psi_minus = solve_neck(field, bottom)
        assert psi_minus.modes[2] == RampMode(c, -c, make_cutoffs(params).plus, 2.0 * T)
        assert max(theta_residuals(field, bottom, psi_plus, psi_minus)) < 1e-9

    @pytest.mark.parametrize("T", [56.0, 60.0])
    def test_theta_residuals_mix_anchors(self, T):
        # A top end stored the old way, K = c e^{-2 lambda T} anchored at 0,
        # checked against a neck solved from the same end anchored at 2T.
        # e^{2 lambda T} is a float at T = 56, where K is normal; at T = 60
        # it overflows and K underflows to 0, so the end reads as zero and
        # the whole of psi_- is residual.
        params = NeckParams(T=T)
        spectrum = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 4)
        lam, c = spectrum.eigenvalue(2), -1.5
        bottom = NeckField.zero(spectrum, params)
        psi_plus, psi_minus = solve_neck(NeckField.end_from_above(spectrum, params, {2: c}), bottom)
        K = c * math.exp(-2.0 * lam * T)
        old_style = NeckField(spectrum, params, {2: RampMode(K)})
        res_plus, res_minus = theta_residuals(old_style, bottom, psi_plus, psi_minus)
        assert res_plus < 1e-9
        if K != 0.0:
            assert res_minus < 1e-9
        else:
            assert res_minus == 1.0

    @pytest.mark.parametrize(
        "T, i, a, c, ramp",
        [
            # e^{lambda s} overflows at the top end, so mode_value is inf
            # there even where b e^{lambda s} is a float (the last two)
            (60.0, 2, 1.0, 0.0, None),
            (60.0, 2, 1e-300, 0.0, None),
            (60.0, 2, 1e-320, 0.0, None),
            (60.0, 2, 1.0, -1.0, "plus"),  # zero above T0 + w
            (130.0, 2, 1.0, -1.0, "minus"),  # overflows below the ramp
            (130.0, 1, 1.0, -1.0, "minus"),
            (60.0, -2, 1.0, 0.0, None),  # underflows to zero
        ],
    )
    def test_finiteness_check_matches_full_grid(self, T, i, a, c, ramp):
        params, spectrum = setup(T0=41.0, T=T, r=8.0) if T > 82.0 else setup(T=T)
        cut = make_cutoffs(params)
        mode = RampMode(a, c, {"plus": cut.plus, "minus": cut.minus, None: None}[ramp])
        grid = params.grid()
        b = mode.value(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.where(b == 0.0, 0.0, b * np.exp(spectrum.eigenvalue(i) * grid))
        if np.all(np.isfinite(vals)):
            NeckField(spectrum, params, {i: mode})
        else:
            with pytest.raises(ValidationError, match="finite-energy"):
                NeckField(spectrum, params, {i: mode})

    def test_mode_coefficients_validated(self):
        with pytest.raises(ValidationError):
            RampMode(math.inf)
        with pytest.raises(ValidationError):
            RampMode(1.0, 2.0)  # no ramp, so c must be 0

    def test_neck_never_builds_the_grid(self, monkeypatch):
        params, spectrum = setup(s_grid=32768)

        def no_grid(self):
            raise AssertionError("a full-grid pass")

        monkeypatch.setattr(NeckParams, "grid", no_grid)
        eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0})
        eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5, -2: 0.5})
        glued = preglue(eta_p, eta_m)
        psi_plus, psi_minus = solve_neck(eta_p, eta_m)
        NeckField(spectrum, params, dict(glued.modes))
        assert all(f.star_norm() > 0.0 for f in (eta_p, eta_m, glued, psi_plus, psi_minus))
        assert momo_check(eta_p, eta_m)["endpoint_deviation"] < 1e-12
        assert len(estimate_sweep(_benchmark_necks(), [0.4, 0.9, 1.4]).rows) == 18


# obstruction_pairing of sigma_1..sigma_3 frozen before the neck's
# Simpson rule was shared: (field, n_quad, values), with n_quad odd
# (rounded up), even and the default s_grid.
PINNED_OBSTRUCTION = (
    ("ends", None, (5.725037161100089e-20, 2.1619826640927297e-246, -3.0267757297298213e-246)),
    ("ends", 1001, (5.725037161121505e-20, 2.1619826641008168e-246, -3.0267757297411436e-246)),
    ("ends", 1000, (5.725037161121689e-20, 2.161982664100886e-246, -3.02677572974124e-246)),
    ("ends", 65, (5.725038367974531e-20, 2.1619831198525e-246, -3.0267763677935e-246)),
    ("ends", 64, (5.725038526054012e-20, 2.1619831795490728e-246, -3.026776451368702e-246)),
    ("glued", None, (2.862518580550044e-20, -1.0809913320463648e-247, -2.1619826640927297e-247)),
    ("glued", 257, (2.862518583133612e-20, -1.0809913330220142e-247, -2.1619826660440284e-247)),
    ("glued", 256, (2.862518583215322e-20, -1.0809913330528707e-247, -2.1619826661057414e-247)),
    ("psi_minus", 257, (2.862518583133611e-20, -1.0809913330220139e-247, -2.1619826660440277e-247)),
)


class TestObstructionPairing:
    @pytest.mark.parametrize("T", [45.0, 60.0, 120.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_single_mode_matches_closed_form(self, T, k):
        params, spectrum = setup(T=T)
        cok = CokernelBasisModel.exact(k, spectrum)
        for i in range(1, k):
            lam = spectrum.eigenvalue(i)
            c_i = 2.0
            eta_p = NeckField.end_from_above(spectrum, params, {i: c_i})
            value = obstruction_pairing(cok.sigma(i), eta_p)
            closed = c_i * math.exp(-2.0 * lam * T)
            assert abs(value - closed) < 1e-8
            if closed > 1e-300:
                assert abs(value - closed) < 1e-8 * abs(closed)

    def test_zero_field(self):
        params, spectrum = setup()
        cok = CokernelBasisModel.exact(2, spectrum)
        assert obstruction_pairing(cok.sigma(1), NeckField.zero(spectrum, params)) == 0.0

    def test_mixed_modes_only_matching_contributes(self):
        params, spectrum = setup(T=45.0)
        cok = CokernelBasisModel.exact(3, spectrum)
        eta_p = NeckField.end_from_above(spectrum, params, {1: 1.0, 2: 5.0, 3: -7.0})
        only_1 = NeckField.end_from_above(spectrum, params, {1: 1.0})
        a = obstruction_pairing(cok.sigma(1), eta_p)
        b = obstruction_pairing(cok.sigma(1), only_1)
        assert abs(a - b) < 1e-10

    def test_translation_covariance(self):
        params, spectrum = setup(T=45.0)
        cok = CokernelBasisModel.exact(2, spectrum)
        lam = spectrum.eigenvalue(1)
        base = obstruction_pairing(
            cok.sigma(1), NeckField.end_from_above(spectrum, params, {1: 2.0})
        )
        for s0 in (0.3, 1.0, -0.8):
            shifted = obstruction_pairing(
                cok.sigma(1),
                NeckField.end_from_above(
                    spectrum, params, {1: 2.0 * math.exp(-lam * s0)}
                ),
            )
            assert np.isclose(shifted, base * math.exp(-lam * s0), rtol=1e-12)

    def test_spectrum_mismatch_rejected(self):
        params, spectrum = setup()
        other = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.5), 3)
        cok = CokernelBasisModel.exact(2, other)
        field = NeckField.end_from_above(spectrum, params, {1: 1.0})
        with pytest.raises(ValidationError):
            obstruction_pairing(cok.sigma(1), field)

    def test_default_panels_are_the_fields_grid(self):
        params, spectrum = setup(T=45.0, s_grid=256)
        sigma = CokernelBasisModel.exact(2, spectrum).sigma(1)
        field = NeckField.end_from_above(spectrum, params, {1: 2.0})
        assert obstruction_pairing(sigma, field) == obstruction_pairing(sigma, field, 256)
        assert obstruction_pairing(sigma, field) != obstruction_pairing(sigma, field, 2048)

    @pytest.mark.parametrize("which, n_quad, expected", PINNED_OBSTRUCTION)
    def test_pinned_values(self, which, n_quad, expected):
        params, spectrum = setup(T=45.0)
        if which == "ends":
            cok = CokernelBasisModel.exact(3, spectrum)
            field = NeckField.end_from_above(spectrum, params, {1: 2.0, 2: 5.0, 3: -7.0})
        else:
            c = ((1.0, 0.3, -0.2), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0))
            cok = CokernelBasisModel(k=3, spectrum_plus=spectrum, c=c)
            eta_p = NeckField.end_from_above(spectrum, params, {1: 2.0, 3: -1.0})
            eta_m = NeckField.end_from_below(spectrum, params, {-1: 1.5, -2: 0.5})
            if which == "glued":
                field = preglue(eta_p, eta_m)
            else:
                field = solve_neck(eta_p, eta_m)[1]
        for i, value in enumerate(expected, start=1):
            got = obstruction_pairing(cok.sigma(i), field, n_quad)
            assert got == pytest.approx(value, rel=1e-14, abs=0.0)


def _two_sided_model(spectrum, c=None, d=None):
    """A k = 3 cokernel model with tails at both ends."""
    return CokernelBasisModel(
        k=3,
        spectrum_plus=spectrum,
        c=c or ((1.0, 0.3, -0.2), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0)),
        spectrum_minus=closed_form_spectrum(OperatorKind.neg_hyperbolic(0.4), 3),
        d=d or ((0.7, 0.0, 0.0), (0.4, -0.6, 0.0), (0.0, 0.0, 1.1)),
    )


class TestTwoSidedPairing:
    def test_degenerate_case_reduces_to_one_sided(self):
        params, spectrum = setup()
        cok = CokernelBasisModel(k=3, spectrum_plus=spectrum)
        T_plus = 2.0
        out = two_sided_pairing(1.0, T_plus, cok, [1.5, -2.0, 0.3], [0.0, 0.0, 0.0])
        expected = np.array(
            [
                1.5 * math.exp(-2.0 * spectrum.eigenvalue(1) * T_plus),
                -2.0 * math.exp(-2.0 * spectrum.eigenvalue(2) * T_plus),
            ]
        )
        assert np.allclose(out, expected, rtol=1e-14)

    def test_sample_value(self):
        # k = 2, c = (1, 0), lambda_1 = 0.5, T_+ = 2: single entry e^{-2}.
        params, _ = setup()
        spectrum = closed_form_spectrum(KIND, 2)
        cok = CokernelBasisModel(k=2, spectrum_plus=spectrum)
        out = two_sided_pairing(1.0, 2.0, cok, [1.0, 0.0], [0.0, 0.0])
        assert out.shape == (1,)
        assert np.isclose(out[0], math.exp(-2.0), rtol=1e-14)

    def test_closed_form_vs_quadrature(self):
        params, spectrum = setup()
        cok = _two_sided_model(spectrum)
        c_co = [1.2, -0.4, 0.8]
        d_co = [0.5, -1.0, 0.3]
        closed = two_sided_pairing(3.0, 2.5, cok, c_co, d_co)
        quad = two_sided_pairing_quadrature(3.0, 2.5, cok, c_co, d_co, params)
        assert np.max(np.abs(closed - quad)) < 1e-8

    @pytest.mark.parametrize(
        "n_quad, expected",
        [
            (4096, (0.0985019983486742, -3.355865823528161e-09)),
            (4095, (0.0985019983486742, -3.355865823528161e-09)),
            (64, (0.09850202183337928, -3.355866623628875e-09)),
            (33, (0.09850229319068364, -3.3558758685042964e-09)),
        ],
    )
    def test_quadrature_pinned(self, n_quad, expected):
        # Frozen before the oracle took its rates from Ramp.
        _, spectrum = setup()
        cok = _two_sided_model(spectrum)
        quad = two_sided_pairing_quadrature(
            3.0, 2.5, cok, [1.2, -0.4, 0.8], [0.5, -1.0, 0.3], NeckParams(), n_quad
        )
        assert quad == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_support_pattern_enforced(self):
        _, spectrum = setup()
        spec_minus = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.4), 2)
        with pytest.raises(ValidationError):
            CokernelBasisModel(
                k=2,
                spectrum_plus=spectrum,
                spectrum_minus=spec_minus,
                d=((0.0, 1.0), (0.0, 1.0)),  # row 0 may touch col 0 only
            )

    @pytest.mark.parametrize("T_minus, T_plus", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_gluing_parameters_must_be_finite_and_positive(self, T_minus, T_plus):
        _, spectrum = setup()
        spec_minus = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.4), 2)
        cok = CokernelBasisModel(
            k=2, spectrum_plus=spectrum, spectrum_minus=spec_minus, d=((1.0, 0.0), (0.0, 1.0))
        )
        args = (T_minus, T_plus, cok, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError, match="finite and positive"):
            two_sided_pairing(*args)
        with pytest.raises(DomainError, match="finite and positive"):
            two_sided_pairing_quadrature(*args, NeckParams())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cokernel_data_rejected(self, value):
        # Each used to give a nan pairing value.
        _, spectrum = setup()
        with pytest.raises(ValidationError, match="c must be finite"):
            _two_sided_model(spectrum, c=((1.0, value, -0.2), (0.0, 1.0, 0.5), (0.0, 0.0, 1.0)))
        with pytest.raises(ValidationError, match="d must be finite"):
            _two_sided_model(spectrum, d=((0.7, 0.0, 0.0), (value, -0.6, 0.0), (0.0, 0.0, 1.1)))
        cok = _two_sided_model(spectrum)
        for c_co, d_co in (([1.0, value, 0.0], [0.0] * 3), ([0.0] * 3, [value, 0.0, 0.0])):
            with pytest.raises(ValidationError, match="coefficients must be finite"):
                two_sided_pairing(1.0, 1.0, cok, c_co, d_co)
            with pytest.raises(ValidationError, match="coefficients must be finite"):
                two_sided_pairing_quadrature(1.0, 1.0, cok, c_co, d_co, NeckParams())

    def test_shape_mismatch(self):
        _, spectrum = setup()
        cok = CokernelBasisModel(k=2, spectrum_plus=spectrum)
        with pytest.raises(ValidationError):
            two_sided_pairing(1.0, 1.0, cok, [1.0], [0.0, 0.0])


# estimate_sweep rows frozen from the full-grid trapezoid norm on the
# benchmark's neck geometry: (T, r, amplitude, psi_plus_norm,
# psi_minus_norm, ratio) at s_grid 32768.
PINNED_SWEEP = (
    (45.0, 4.0, 0.4, 1.84293898988384e-10, 0.0, 4.357092624205717),
    (45.0, 4.0, 0.9, 4.14661272723864e-10, 0.0, 9.803458404462864),
    (45.0, 4.0, 1.4, 6.450286464593439e-10, 0.0, 15.249824184720008),
    (60.0, 4.0, 0.4, 1.019300750441128e-13, 0.0, 4.357092624207169),
    (60.0, 4.0, 0.9, 2.2934266884925383e-13, 0.0, 9.803458404466133),
    (60.0, 4.0, 1.4, 3.5675526265439477e-13, 0.0, 15.249824184725092),
    (90.0, 4.0, 0.4, 3.118064648498092e-20, 0.0, 4.357092624215773),
    (90.0, 4.0, 0.9, 7.015645459120707e-20, 0.0, 9.80345840448549),
    (90.0, 4.0, 1.4, 1.091322626974332e-19, 0.0, 15.249824184755205),
    (90.0, 8.0, 0.4, 4.258195196437321e-20, 0.0, 11.900555616641789),
    (90.0, 8.0, 0.9, 9.580939191983972e-20, 0.0, 26.776250137444023),
    (90.0, 8.0, 1.4, 1.4903683187530622e-19, 0.0, 41.65194465824626),
    (110.0, 8.0, 0.4, 1.933217628333037e-24, 0.0, 11.90055561664788),
    (110.0, 8.0, 0.9, 4.349739663749334e-24, 0.0, 26.77625013745773),
    (110.0, 8.0, 1.4, 6.766261699165629e-24, 0.0, 41.651944658267574),
    (130.0, 8.0, 0.4, 8.776794454196142e-29, 0.0, 11.900555616653847),
    (130.0, 8.0, 0.9, 1.9747787521941318e-28, 0.0, 26.776250137471152),
    (130.0, 8.0, 1.4, 3.0718780589686495e-28, 0.0, 41.65194465828846),
)


def _benchmark_necks(s_grid=32768):
    return [NeckParams(T0=21.0, T=T, h=0.5, r=4.0, s_grid=s_grid) for T in (45.0, 60.0, 90.0)] + [
        NeckParams(T0=41.0, T=T, h=0.5, r=8.0, s_grid=s_grid) for T in (90.0, 110.0, 130.0)
    ]


class TestSweep:
    def test_pinned_rows(self):
        rows = estimate_sweep(_benchmark_necks(), [0.4, 0.9, 1.4]).rows
        assert len(rows) == len(PINNED_SWEEP)
        for row, (T, r, amp, plus, minus, ratio) in zip(rows, PINNED_SWEEP):
            assert (row.params.T, row.params.r, row.amplitude) == (T, r, amp)
            assert row.psi_plus_norm == pytest.approx(plus, rel=1e-12, abs=0.0)
            assert row.psi_minus_norm == pytest.approx(minus, rel=1e-12, abs=0.0)
            assert row.ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)

    def _grids(self):
        return [NeckParams(T0=21, T=T, h=0.5, r=4) for T in (45, 60, 90)] + [
            NeckParams(T0=41, T=T, h=0.5, r=8) for T in (90, 110, 130)
        ]

    def test_matches_per_amplitude_oracle(self):
        necks = _benchmark_necks()
        amplitudes = (0.0, 0.4, -0.4, 0.9, 1.4, 3.7e5)
        rows = estimate_sweep(necks, amplitudes).rows
        expected = sweep_oracle(necks, amplitudes)
        assert len(rows) == len(expected) == 36
        for row, want in zip(rows, expected):
            assert (row.params, row.amplitude) == (want.params, want.amplitude)
            for name in ("psi_plus_norm", "psi_minus_norm", "ratio"):
                assert getattr(row, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0.0)

    def test_one_solve_per_neck(self, monkeypatch):
        real = gluing.solve_neck
        solved = []

        def counted(eta_plus, eta_minus):
            solved.append(eta_plus.params)
            return real(eta_plus, eta_minus)

        monkeypatch.setattr(gluing, "solve_neck", counted)
        necks = _benchmark_necks()
        assert len(estimate_sweep(necks, [0.4, 0.9, 1.4]).rows) == 18
        assert solved == necks

    def test_extreme_amplitudes_scale_the_unit_norms(self):
        # Solved at each amplitude, the trapezoid sums overflowed to a norm
        # of inf at 1e300 and underflowed to 0 at 1e-300.
        unit, huge, tiny = estimate_sweep(_benchmark_necks()[:1], [1.0, 1e300, 1e-300]).rows
        assert huge.psi_plus_norm == 1e300 * unit.psi_plus_norm == 4.607347474709602e290
        assert tiny.psi_plus_norm == 1e-300 * unit.psi_plus_norm == 4.6073474747096e-310
        assert huge.psi_minus_norm == tiny.psi_minus_norm == 0.0
        assert huge.ratio == pytest.approx(1.0892731560514297e301, rel=1e-12, abs=0.0)
        assert tiny.ratio == pytest.approx(1.0892731560514288e-299, rel=1e-12, abs=0.0)

    def test_zero_forcing_zero_ratio(self):
        report = estimate_sweep([NeckParams(T=60.0)], [0.0])
        assert report.rows[0].ratio == 0.0
        assert report.rows[0].psi_plus_norm == 0.0

    def test_ratio_bounded_and_nonincreasing_in_T(self):
        report = estimate_sweep(self._grids(), [0.5, 1.0])
        assert report.max_ratio < 50.0
        assert report.ratios_nonincreasing_in_T()

    def test_ratio_rising_beyond_the_jitter_fails(self):
        def row(T, ratio, amplitude=1.0, **neck):
            return SweepRow(params=NeckParams(T=T, **neck), amplitude=amplitude,
                            psi_plus_norm=1.0, psi_minus_norm=1.0, ratio=ratio)

        # Rows of another neck family or amplitude are not compared across.
        base = (row(45.0, 2.0), row(90.0, 1.0), row(60.0, 3.0, s_grid=256),
                row(60.0, 3.0, amplitude=0.5), row(90.0, 3.0, T0=41.0, r=8.0))
        assert SweepReport(base + (row(60.0, 2.0 * (1.0 + 0.9e-5)),)).ratios_nonincreasing_in_T()
        assert not SweepReport(base + (row(60.0, 2.0 * (1.0 + 2e-5)),)).ratios_nonincreasing_in_T()

    def test_families_differing_only_in_grid_are_not_compared(self):
        # The T = 60 ratio on s_grid 256 is below that on s_grid 2048 by
        # 5e-4 relative; grouped by (r, h, amplitude) alone, rows of the two
        # families were compared across and failed together.
        family_a = [NeckParams(T=T, s_grid=256) for T in (45.0, 60.0)]
        family_b = [NeckParams(T=T, s_grid=2048) for T in (45.0, 60.0)]
        for necks in (family_a, family_b, family_a + family_b):
            report = estimate_sweep(necks, [1.0])
            assert [row.params for row in report.rows] == necks
            assert report.ratios_nonincreasing_in_T()

    def test_r_doubling_norm_factor(self):
        # Frozen from the exact per-mode solve at T = 90, h = 0.5,
        # lambda = 0.5: doubling r multiplies ||psi_+||_* by ~1.366 (the
        # ramp-tail exponential), not the 1/(hr) forcing heuristic.
        rows = estimate_sweep(
            [
                NeckParams(T0=21, T=90.0, h=0.5, r=4),
                NeckParams(T0=41, T=90.0, h=0.5, r=8),
            ],
            [1.0],
        ).rows
        factor = rows[1].psi_plus_norm / rows[0].psi_plus_norm
        assert 1.30 < factor < 1.45


def _end(kind=KIND, **params):
    """A top end on the given spectrum kind and neck grid."""
    return NeckField.end_from_above(closed_form_spectrum(kind, 2), NeckParams(**params), {1: 1.0})


def _bottom(kind=KIND, **params):
    """A bottom end on the given spectrum kind and neck grid."""
    return NeckField.end_from_below(closed_form_spectrum(kind, 2), NeckParams(**params), {-1: 1.0})


def _solved(kind=KIND, **params):
    """Both ends on the given spectrum kind and neck grid, and their neck solve."""
    top, bottom = _end(kind, **params), _bottom(kind, **params)
    return (top, bottom, *solve_neck(top, bottom))


def _cokernel(**kw):
    return CokernelBasisModel(**{"k": 2, "spectrum_plus": closed_form_spectrum(KIND, 3), **kw})


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: Ramp(0.0, 0.0), DomainError,
                 "a ramp needs a finite start and a finite positive width", id="ramp-width"),
    pytest.param(
        lambda: NeckField.end_from_below(closed_form_spectrum(KIND, 2), NeckParams(), {1: 1.0}),
        ValidationError, "a bottom end carries negative modes only", id="bottom-modes",
    ),
    pytest.param(
        lambda: preglue(_end(OperatorKind.pos_hyperbolic(0.25)), _bottom()),
        ValidationError, "fields are bound to different spectrum tables", id="ends-spectra",
    ),
    pytest.param(lambda: preglue(_end(T=80.0), _bottom()), ValidationError,
                 "fields live on different neck grids", id="ends-grids"),
    pytest.param(lambda: solve_neck(_end(), _bottom(T=80.0)), ValidationError,
                 "fields live on different neck grids", id="solve-grids"),
    pytest.param(lambda: momo_check(_end(T=80.0), _bottom()), ValidationError,
                 "fields live on different neck grids", id="momo-grids"),
    pytest.param(lambda: theta_residuals(*_solved()[:2], *_solved(T=80.0)[2:]), ValidationError,
                 "fields live on different neck grids", id="residual-grids"),
    pytest.param(
        lambda: theta_residuals(*_solved()[:3], _solved(OperatorKind.pos_hyperbolic(0.25))[3]),
        ValidationError, "fields are bound to different spectrum tables", id="residual-spectra",
    ),
    pytest.param(lambda: _cokernel(k=0), ValidationError, "cokernel rank k must be >= 1",
                 id="cokernel-rank"),
    pytest.param(lambda: _cokernel(k=True), ValidationError,
                 "cokernel rank k must be an integer, got True", id="cokernel-rank-bool"),
    pytest.param(lambda: _cokernel(k=1.5), ValidationError,
                 "cokernel rank k must be an integer, got 1.5", id="cokernel-rank-float"),
    pytest.param(lambda: _cokernel(c=((1.0,),)), ValidationError, "c must be a k x k matrix",
                 id="c-shape"),
    pytest.param(lambda: _cokernel(c=((2.0, 0.0), (0.0, 1.0))), ValidationError,
                 "c must have unit diagonal", id="c-diagonal"),
    pytest.param(lambda: _cokernel(c=((1.0, 0.0), (0.5, 1.0))), ValidationError,
                 "c must be upper triangular", id="c-triangular"),
    pytest.param(lambda: _cokernel(k=4), ValidationError,
                 "spectrum table too small for the cokernel rank", id="cokernel-spectrum"),
    pytest.param(lambda: _cokernel(d=((1.0, 0.0), (0.0, 1.0))), ValidationError,
                 "negative-end data needs its spectrum table", id="d-spectrum"),
    pytest.param(
        lambda: _cokernel(d=((1.0,),), spectrum_minus=closed_form_spectrum(KIND, 3)),
        ValidationError, "d must be a k x k matrix", id="d-shape",
    ),
    pytest.param(lambda: _cokernel().sigma(0), ValidationError,
                 "sigma index 0 out of range 1..2", id="sigma-index"),
    pytest.param(lambda: _cokernel().sigma(1.0), ValidationError,
                 "sigma index must be an integer, got 1.0", id="sigma-index-float"),
    pytest.param(lambda: gluing._simpson_rule(0.0, 1.0, 2.5), ValidationError,
                 "Simpson's rule panel count must be an integer, got 2.5", id="panels-float"),
    pytest.param(lambda: gluing._simpson_rule(0.0, 1.0, math.nan), ValidationError,
                 "Simpson's rule panel count must be an integer, got nan", id="panels-nan"),
    pytest.param(lambda: gluing._simpson_rule(0.0, 1.0, True), ValidationError,
                 "Simpson's rule panel count must be an integer, got True", id="panels-bool"),
    pytest.param(
        lambda: obstruction_pairing(_cokernel().sigma(1), _end(), n_quad=2.5), ValidationError,
        "Simpson's rule panel count must be an integer, got 2.5", id="pairing-panels-float",
    ),
    pytest.param(
        lambda: two_sided_pairing(1.0, 1.0, _cokernel(), [1.0, 1.0], [1.0]),
        ValidationError, "need 2 bottom-end coefficients", id="bottom-coefficients",
    ),
    pytest.param(lambda: estimate_sweep([NeckParams()], [1.0, math.nan]), ValidationError,
                 "mode coefficients and anchor must be finite", id="sweep-amplitude-nan"),
    pytest.param(lambda: estimate_sweep([NeckParams()], [-math.inf]), ValidationError,
                 "mode coefficients and anchor must be finite", id="sweep-amplitude-inf"),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)
