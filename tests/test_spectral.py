import math
import warnings

import numpy as np
import pytest

from cylcc.errors import DomainError, IllConditionedInputError, NumericError, ValidationError
from cylcc.spectral import (
    OperatorKind,
    SpectrumEntry,
    SpectrumTable,
    TrigLoop,
    closed_form_spectrum,
    finite_difference_operator,
    gram_matrix,
    _windings,
    numeric_spectrum,
    winding_number,
)
from .oracles import fd_selection_oracle

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def apply_operator_fd(kind, loop, ts):
    """Independent check oracle: apply A = -j0 d/dt - S to samples of f."""
    f = loop.sample(ts)
    n = len(ts)
    span = loop.period
    fp = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) * (n / (2.0 * span))
    return -(fp @ J0.T) - f @ kind.s_matrix().T


class TestOperatorKind:
    def test_elliptic_range(self):
        OperatorKind.elliptic(1.0)
        with pytest.raises(DomainError):
            OperatorKind.elliptic(7.0)
        with pytest.raises(DomainError):
            OperatorKind.elliptic(0.0)

    def test_hyperbolic_requires_positive_eps(self):
        with pytest.raises(DomainError):
            OperatorKind.pos_hyperbolic(0.0)
        with pytest.raises(DomainError):
            OperatorKind.neg_hyperbolic(-0.2)

    def test_large_eps_warns(self):
        with pytest.warns(UserWarning):
            OperatorKind.pos_hyperbolic(2.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make", [OperatorKind.elliptic, OperatorKind.pos_hyperbolic, OperatorKind.neg_hyperbolic]
    )
    def test_non_finite_eps_rejected_before_warning(self, make, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                make(eps)


class TestClosedForm:
    def test_pos_hyperbolic_small_pair(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 1)
        assert table.eigenvalue(1) == 0.5
        assert table.eigenvalue(-1) == -0.5
        f1 = table.entry(1).eigenfunction(0.0)
        fm1 = table.entry(-1).eigenfunction(0.0)
        assert f1[0] > 0 and np.isclose(f1[0], -f1[1])  # proportional to (1, -1)
        assert np.isclose(fm1[0], fm1[1])  # proportional to (1, 1)

    def test_neg_hyperbolic_lowest_magnitude(self):
        table = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.2), 2)
        target = math.sqrt(math.pi**2 + 0.04)
        assert np.isclose(abs(table.eigenvalue(1)), target, atol=1e-12)
        assert np.isclose(abs(table.eigenvalue(2)), target, atol=1e-12)

    def test_elliptic_constant_branch(self):
        table = closed_form_spectrum(OperatorKind.elliptic(1.0), 2)
        assert table.eigenvalue(-1) == -1.0
        assert table.eigenvalue(-2) == -1.0
        for i in (-1, -2):
            loop = table.entry(i).eigenfunction
            samples = loop.sample(np.linspace(0.0, 1.0, 7))
            assert np.allclose(samples, samples[0])  # constant in t

    @pytest.mark.parametrize(
        "kind",
        [
            OperatorKind.pos_hyperbolic(0.3),
            OperatorKind.neg_hyperbolic(0.4),
            OperatorKind.elliptic(1.3),
        ],
    )
    def test_closed_forms_satisfy_eigen_equation(self, kind):
        table = closed_form_spectrum(kind, 6)
        n = 4096
        ts = np.arange(n) / n * kind.loop_period
        for entry in table.entries:
            residual = apply_operator_fd(
                kind, entry.eigenfunction, ts
            ) - entry.eigenvalue * entry.eigenfunction.sample(ts)
            assert np.max(np.abs(residual)) < 1e-3, entry.index

    @pytest.mark.parametrize(
        "kind",
        [
            OperatorKind.pos_hyperbolic(0.3),
            OperatorKind.neg_hyperbolic(0.4),
            OperatorKind.elliptic(1.3),
        ],
    )
    def test_sign_and_monotonicity(self, kind):
        table = closed_form_spectrum(kind, 8)
        for entry in table.entries:
            assert (entry.eigenvalue > 0) == (entry.index > 0)
        for sign in (1, -1):
            lams = [table.eigenvalue(sign * i) for i in range(1, 9)]
            diffs = np.diff(np.array(lams) * sign)
            assert np.all(diffs >= -1e-12)

    def test_hyperbolic_plus_minus_pairs(self):
        for kind in (OperatorKind.pos_hyperbolic(0.25), OperatorKind.neg_hyperbolic(0.25)):
            table = closed_form_spectrum(kind, 8)
            for i in range(1, 9):
                assert table.eigenvalue(-i) == -table.eigenvalue(i)

    def test_antiperiodicity_of_neg_hyperbolic_eigenfunctions(self):
        table = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.3), 4)
        ts = np.linspace(0.0, 1.0, 17)
        for entry in table.entries:
            left = entry.eigenfunction.sample(ts)
            right = entry.eigenfunction.sample(ts + 1.0)
            assert np.allclose(left, -right, atol=1e-12)

    def test_bad_max_index(self):
        with pytest.raises(DomainError):
            closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 0)


class TestNumericSpectrum:
    def test_pos_hyperbolic_smallest_pair(self):
        table = numeric_spectrum(OperatorKind.pos_hyperbolic(0.3), 1024, 2)
        assert abs(table.eigenvalue(1) - 0.3) < 1e-6
        assert abs(table.eigenvalue(-1) + 0.3) < 1e-6

    def test_neg_hyperbolic_agrees_with_closed_form(self):
        table = numeric_spectrum(OperatorKind.neg_hyperbolic(0.2), 1024, 2)
        target = math.sqrt(math.pi**2 + 0.04)
        assert abs(table.eigenvalue(1) - target) < 5e-3
        assert abs(table.eigenvalue(-1) + target) < 5e-3

    def test_degenerate_kernel_case(self):
        # S = 0: eigenvalue 0 with the two constant eigenfunctions in its
        # eigenspace (the discrete kernel also holds the sawtooth aliases).
        from scipy.linalg import eigh

        n = 256
        a = finite_difference_operator("pos_hyperbolic", 0.0, n).toarray()
        vals, vecs = eigh(a)
        zero = [j for j in range(len(vals)) if abs(vals[j]) < 1e-10]
        assert len(zero) >= 2
        basis = vecs[:, zero]
        for comp in (0, 1):
            const = np.zeros(2 * n)
            const[comp::2] = 1.0 / math.sqrt(n)
            coords = basis.T @ const
            assert np.linalg.norm(basis @ coords - const) < 1e-8

    def test_second_order_convergence(self):
        kind = OperatorKind.neg_hyperbolic(0.3)
        cf = closed_form_spectrum(kind, 4)
        errs = []
        for n in (128, 256, 512):
            num = numeric_spectrum(kind, n, 8)
            errs.append(
                max(abs(cf.eigenvalue(i) - num.eigenvalue(i)) for i in num.indices)
            )
        assert errs[1] < errs[0] / 3.0
        assert errs[2] < errs[1] / 3.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            numeric_spectrum(OperatorKind.pos_hyperbolic(0.3), 32, 2)
        with pytest.raises(DomainError):
            numeric_spectrum(OperatorKind.pos_hyperbolic(0.3), 128, 64)

    def test_uncertified_eigenvalue_sign_raises(self):
        # 2 pi - eps = 1.9e-4 is below the symbol error |2 pi - sigma_1| of
        # about 2.5e-3 at grid 128, where the discrete eigenvalue of block 1
        # is -2.3e-3: labelled by sign, it would take index -1 with winding 1.
        kind = OperatorKind.elliptic(6.283)
        with pytest.raises(NumericError, match="not certified"):
            numeric_spectrum(kind, 128, 4)
        # At grid 1024 the symbol error is 3.9e-5, and the labels are right.
        closed = closed_form_spectrum(kind, 2)
        table = numeric_spectrum(kind, 1024, 4)
        assert table.indices == closed.indices
        for entry in table.entries:
            assert entry.winding == closed.entry(entry.index).winding
            assert abs(entry.eigenvalue - closed.eigenvalue(entry.index)) < 4e-5

    def test_odd_sector_reduction_matches_direct_antiperiodic_wrap(self):
        # Oracle: the periodic problem on [0, 2] with 2n points, restricted
        # to the odd sector f(t + 1) = -f(t) spanned by (e_j - e_{j+n})/sqrt(2).
        n = 64
        h = 1.0 / n
        d2 = (np.eye(2 * n, k=1) - np.eye(2 * n, k=-1)) / (2.0 * h)
        d2[2 * n - 1, 0] = 1.0 / (2.0 * h)
        d2[0, 2 * n - 1] = -1.0 / (2.0 * h)
        s_mat = OperatorKind.neg_hyperbolic(0.3).s_matrix()
        doubled = -np.kron(d2, J0) - np.kron(np.eye(2 * n), s_mat)
        u = np.vstack([np.eye(2 * n), -np.eye(2 * n)]) / math.sqrt(2.0)
        reduced = u.T @ doubled @ u
        direct = finite_difference_operator("neg_hyperbolic", 0.3, n).toarray()
        assert np.allclose(direct, reduced, atol=1e-12)

    @pytest.mark.parametrize("kind_name", ["elliptic", "pos_hyperbolic", "neg_hyperbolic"])
    def test_stencil_matches_dense_kron_assembly(self, kind_name):
        # Oracle: the centred difference assembled as a dense matrix, wrapped
        # periodically (antiperiodically for neg_hyperbolic), then -d (x) J0 - I (x) S.
        n, eps = 64, 0.3
        h = 1.0 / n
        wrap = -1.0 if kind_name == "neg_hyperbolic" else 1.0
        d = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)
        d[n - 1, 0] = wrap / (2.0 * h)
        d[0, n - 1] = -wrap / (2.0 * h)
        if kind_name == "elliptic":
            s_mat = np.array([[eps, 0.0], [0.0, eps]])
        else:
            s_mat = np.array([[0.0, eps], [eps, 0.0]])
        dense = -np.kron(d, J0) - np.kron(np.eye(n), s_mat)
        a = finite_difference_operator(kind_name, eps, n)
        assert a.shape == dense.shape
        assert np.allclose(a.toarray(), dense, rtol=0.0, atol=1e-12)
        block = np.random.default_rng(5).normal(size=(2 * n, 7))
        assert np.allclose(a @ block, a.toarray() @ block, rtol=1e-13, atol=1e-12)
        assert np.allclose(a @ block[:, 3], a.toarray() @ block[:, 3], rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind_name", ["elliptic", "pos_hyperbolic", "neg_hyperbolic"])
    def test_stencil_on_tiny_grids(self, kind_name, n):
        # Oracle: each term of (v_{j+1} - v_{j-1}) n/2 added to a dense matrix
        # on its own, so the wrapped neighbours of a 1- or 2-point grid add up.
        wrap = -1.0 if kind_name == "neg_hyperbolic" else 1.0
        d = np.zeros((n, n))
        for j in range(n):
            d[j, (j + 1) % n] += (wrap if j == n - 1 else 1.0) * n / 2.0
            d[j, (j - 1) % n] -= (wrap if j == 0 else 1.0) * n / 2.0
        a = finite_difference_operator(kind_name, 0.3, n)
        dense = -np.kron(d, J0) - np.kron(np.eye(n), a.s_matrix)
        assert np.allclose(a.toarray(), dense, rtol=0.0, atol=1e-12)
        v = np.random.default_rng(n).normal(size=2 * n)
        assert np.allclose(a @ v, dense @ v, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("grid", [128, 1024])
    @pytest.mark.parametrize(
        "kind",
        [
            OperatorKind.elliptic(1.3),
            OperatorKind.pos_hyperbolic(0.3),
            OperatorKind.neg_hyperbolic(0.4),
        ],
        ids=lambda kind: kind.kind,
    )
    def test_agrees_with_closed_form(self, kind, grid):
        count = 12
        num = numeric_spectrum(kind, grid, count)
        closed = closed_form_spectrum(kind, count // 2)
        assert num.indices == closed.indices
        h = 1.0 / grid
        a = finite_difference_operator(kind.kind, kind.eps, grid)
        for entry in num.entries:
            exact = closed.entry(entry.index)
            # The centred difference has symbol sin(omega h)/h at frequency
            # omega; the slack only absorbs rounding.
            omega = abs(exact.eigenfunction.omega)
            bound = omega**3 * h * h / 6.0 + 1e-12 * (1.0 + abs(exact.eigenvalue))
            assert abs(entry.eigenvalue - exact.eigenvalue) <= bound, entry.index
            assert entry.winding == exact.winding, entry.index
            v = entry.eigenfunction.sample(np.arange(grid) / grid).ravel() / math.sqrt(grid)
            residual = np.linalg.norm(a @ v - entry.eigenvalue * v)
            assert residual <= 1e-7 * (1.0 + abs(entry.eigenvalue)), entry.index

    def test_balanced_selection_not_closest_to_zero(self):
        # lambda = -12.28, -6, -6, 0.283, 0.283, 6.566: count // 2 per sign
        # keeps -12.28, where the six closest to zero would take 6.566 twice.
        kind = OperatorKind.elliptic(6.0)
        grid = 1024
        num = numeric_spectrum(kind, grid, 6)
        closed = closed_form_spectrum(kind, 3)
        assert num.indices == closed.indices == [-3, -2, -1, 1, 2, 3]
        for entry in num.entries:
            exact = closed.entry(entry.index)
            omega = abs(exact.eigenfunction.omega)
            bound = omega**3 / grid**2 / 6.0 + 1e-12 * (1.0 + abs(exact.eigenvalue))
            assert abs(entry.eigenvalue - exact.eigenvalue) <= bound, entry.index
            assert entry.winding == exact.winding, entry.index


PREFIX_KINDS = [
    *(OperatorKind.elliptic(eps) for eps in (0.05, 0.45, 6.0, 6.2)),
    *(OperatorKind.pos_hyperbolic(eps) for eps in (0.05, 0.45)),
    *(OperatorKind.neg_hyperbolic(eps) for eps in (0.05, 0.45)),
]


def assert_matches_selection_oracle(kind, grid, count):
    indices, lams, freqs, samples, _ = fd_selection_oracle(kind, grid, count)
    table = numeric_spectrum(kind, grid, count)
    assert table.indices == indices
    assert [e.eigenvalue for e in table.entries] == lams
    ts = np.arange(grid) / grid
    for entry, freq, expected in zip(table.entries, freqs, samples):
        # Same block (frequency), and the same column and part: modes of
        # one block are orthogonal, so any other choice differs by O(1).
        assert entry.eigenfunction.omega == 2.0 * math.pi * freq
        assert np.max(np.abs(entry.eigenfunction.sample(ts) - expected)) < 1e-12


class TestBlockPrefix:
    @pytest.mark.parametrize("count", [1, 5, 8, "quarter"])
    @pytest.mark.parametrize("grid", [64, 1024])
    @pytest.mark.parametrize("kind", PREFIX_KINDS, ids=lambda k: f"{k.kind}-{k.eps}")
    def test_matches_all_blocks_selection(self, kind, grid, count):
        # Count grid/4 makes the certified prefix start at every block.
        assert_matches_selection_oracle(kind, grid, grid // 4 if count == "quarter" else count)

    @pytest.mark.parametrize("eps", [40.0, 300.0])
    @pytest.mark.parametrize("kind_name", ["pos_hyperbolic", "neg_hyperbolic"])
    def test_prefix_doubles_at_large_eps(self, kind_name, eps, monkeypatch):
        # Every |lambda| is near eps, so sigma_M - eps rules out no block at
        # first: the prefix of count + 2 blocks doubles, up to every block.
        with pytest.warns(UserWarning, match="is large"):
            kind = OperatorKind(kind_name, eps)
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        for grid, count in ((64, 1), (256, 5), (1024, 8)):
            sizes.clear()
            numeric_spectrum(kind, grid, count)
            assert sizes[:2] == [count + 2, 2 * (count + 2)]
            assert sizes[-1] <= grid // 4
            assert_matches_selection_oracle(kind, grid, count)


SAMPLED_KINDS = [
    *(OperatorKind.elliptic(eps) for eps in (0.3, 1.0, 2.5, 4.5, 6.0)),
    *(OperatorKind(name, eps) for name in ("pos_hyperbolic", "neg_hyperbolic")
      for eps in (0.05, 0.2, 0.4, 0.7, 1.0)),
]


class TestSampleBuffer:
    """The loops, windings and residual certificate read off one sample buffer."""

    @pytest.mark.parametrize("grid", [64, 128, 256, 1024, 2048, 4096])
    @pytest.mark.parametrize("kind", SAMPLED_KINDS, ids=lambda k: f"{k.kind}-{k.eps}")
    def test_entries_match_oracle(self, kind, grid):
        # Oracle: every block solved, each loop scaled from its own samples
        # and wound over one loop period from its own coefficients.
        count = 8
        indices, lams, freqs, _, loops = fd_selection_oracle(kind, grid, count)
        table = numeric_spectrum(kind, grid, count)
        assert table.indices == indices
        assert [e.eigenvalue for e in table.entries] == lams
        ts = np.arange(round(grid * kind.loop_period)) / grid
        for entry, freq, (cos_c, sin_c) in zip(table.entries, freqs, loops):
            loop = entry.eigenfunction
            assert loop.omega == 2.0 * math.pi * freq and loop.period == kind.loop_period
            expected = np.concatenate([cos_c, sin_c])
            got = np.concatenate([loop.cos_coeff, loop.sin_coeff])
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            phase = loop.omega * ts
            curve = np.outer(np.cos(phase), cos_c) + np.outer(np.sin(phase), sin_c)
            try:
                winding = winding_number(curve)
            except IllConditionedInputError:
                winding = None
            assert entry.winding == winding

    def test_planted_eigenvalue_error_fails_residual(self, monkeypatch):
        # lambda_1 = eps = 0.3 sits in block 0, where the symbol error is 0,
        # so only the stencil residual, ~1e-6 against 1.3e-7, can reject it.
        kind = OperatorKind.pos_hyperbolic(0.3)
        eigh = np.linalg.eigh

        def planted(a):
            vals, vecs = eigh(a)
            vals = vals.copy()
            vals[0, 1] += 1e-6
            return vals, vecs

        assert numeric_spectrum(kind, 256, 4).eigenvalue(1) == 0.3
        monkeypatch.setattr(np.linalg, "eigh", planted)
        with pytest.raises(NumericError, match="residuals exceed tolerance") as info:
            numeric_spectrum(kind, 256, 4)
        assert max(info.value.residuals) == pytest.approx(1e-6, rel=1e-3)

    def test_windings_on_mode_views(self):
        # numeric_spectrum hands _windings the (mode, component, sample)
        # buffer as strided rows; a sample at the origin (here -0.0, 0.0)
        # still fails its own row only, which the spectrum reports as None.
        turn = 2.0 * math.pi * np.arange(64) / 64
        buffer = np.empty((4, 2, 64))
        for mode, w in enumerate((1, -2, 3, 1)):
            buffer[mode] = np.cos(w * turn), np.sin(w * turn)
        buffer[1, :, 10] = -0.0, 0.0
        buffer[2, :, 5] = 5e-324, 0.0  # subnormal, not the origin
        out = list(_windings(buffer[:, 0], buffer[:, 1]))
        assert out[0] == 1 and out[2] == 3 and out[3] == 1
        assert isinstance(out[1], IllConditionedInputError)
        assert str(out[1]) == "sample 10 lies at the origin"


class TestSizes:
    @pytest.mark.parametrize("size", [0, -3, 2.5, True])
    def test_operator_grid_size(self, size):
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            finite_difference_operator("elliptic", 0.5, size)

    @pytest.mark.parametrize("kind_name", ["elliptic", "pos_hyperbolic", "neg_hyperbolic"])
    def test_spectrum_sizes(self, kind_name):
        kind = OperatorKind(kind_name, 0.3)
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            numeric_spectrum(kind, 64.7, 2)
        with pytest.raises(DomainError, match="count must be an integer"):
            numeric_spectrum(kind, 128, 2.5)
        # bool is an int subclass; unchecked, True reached numpy as a size.
        with pytest.raises(DomainError, match="count must be an integer"):
            numeric_spectrum(kind, 128, True)
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            numeric_spectrum(kind, True, 1)

    def test_numpy_integers_accepted(self):
        kind = OperatorKind.pos_hyperbolic(0.3)
        table = numeric_spectrum(kind, np.int64(128), np.int64(4))
        assert table.indices == numeric_spectrum(kind, 128, 4).indices
        assert finite_difference_operator("elliptic", 0.5, np.int32(3)).shape == (6, 6)

    @pytest.mark.parametrize("max_index", [0, 2.5, math.nan, True])
    def test_closed_form_max_index(self, max_index):
        # 2.5 failed with a TypeError from range, and True gave a table.
        with pytest.raises(DomainError, match="max_index must be an integer >= 1"):
            closed_form_spectrum(OperatorKind.pos_hyperbolic(0.3), max_index)

    def test_closed_form_numpy_max_index_accepted(self):
        kind = OperatorKind.pos_hyperbolic(0.3)
        table = closed_form_spectrum(kind, np.int64(3))
        assert table.indices == closed_form_spectrum(kind, 3).indices

    def test_gram_quad_points(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.3), 1)
        with pytest.raises(DomainError, match="quad_points must be an integer"):
            gram_matrix(table, 2.5)
        with pytest.raises(DomainError, match="quad_points must be an integer"):
            gram_matrix(table, 1)
        with pytest.raises(DomainError, match="quad_points must be an integer"):
            gram_matrix(table, True)


class TestWinding:
    def test_constant_loop(self):
        assert winding_number([(1.0, -1.0)] * 16) == 0

    def test_unit_circle(self):
        ts = np.arange(128) / 128
        loop = np.column_stack([np.cos(2 * np.pi * ts), np.sin(2 * np.pi * ts)])
        assert winding_number(loop) == 1

    def test_f2_of_pos_hyperbolic(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.1), 3)
        ts = np.arange(512) / 512
        assert winding_number(table.entry(2).eigenfunction.sample(ts)) == 1

    def test_origin_sample_rejected(self):
        with pytest.raises(IllConditionedInputError):
            winding_number([(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"sample 1 is not finite"):
            winding_number([(1.0, 0.0), (bad, 1.0), (0.0, 1.0), (1.0, bad)])

    def test_large_jump_rejected(self):
        with pytest.raises(IllConditionedInputError):
            winding_number([(1.0, 0.0), (-1.0, 1e-15), (1.0, 0.0), (-1.0, -1e-15)])

    def test_stack_rules_per_loop(self):
        # Each bad loop gets its own reason; the good loops beside it keep
        # the windings winding_number gives them one at a time.
        ts = np.arange(16) / 16
        turn = 2.0 * math.pi * ts
        good = [np.column_stack([np.cos(w * turn), np.sin(w * turn)]) for w in (1, -2, 0)]
        origin = good[0].copy()
        origin[5] = 0.0
        flip = np.tile([[1.0, 0.0], [-1.0, 0.0]], (8, 1))  # every step is pi
        # An arc that stops short of closing is closed by its last step, so
        # its total is still integral (0 here): the integrality rule only
        # guards rounding, since each reduced step is the raw angle
        # difference plus a multiple of 2 pi.
        arc = np.column_stack([np.cos(0.9 * math.pi * ts), np.sin(0.9 * math.pi * ts)])
        nan = good[1].copy()
        nan[3, 1] = math.nan
        stack = np.stack([good[0], origin, good[1], flip, nan, arc, good[2]])
        out = list(_windings(stack[..., 0], stack[..., 1]))
        assert out[0] == 1 and out[2] == -2 and out[6] == 0
        assert [out[j] for j in (0, 2, 6)] == [winding_number(good[j]) for j in range(3)]
        assert isinstance(out[1], IllConditionedInputError)
        assert str(out[1]) == "sample 5 lies at the origin"
        assert isinstance(out[3], IllConditionedInputError)
        assert "angular jump" in str(out[3]) and "is >= pi" in str(out[3])
        assert isinstance(out[4], ValidationError)
        assert str(out[4]).startswith("sample 3 is not finite")
        assert out[5] == 0 == winding_number(arc)
        for bad in (origin, flip):
            with pytest.raises(IllConditionedInputError):
                winding_number(bad)

    @pytest.mark.parametrize(
        "kind", [OperatorKind.pos_hyperbolic(0.2), OperatorKind.neg_hyperbolic(0.2)]
    )
    def test_winding_profile(self, kind):
        table = closed_form_spectrum(kind, 9)
        n = 2048
        ts = np.arange(n) / n * kind.loop_period
        winds = {}
        for entry in table.entries:
            winds[entry.index] = winding_number(entry.eigenfunction.sample(ts))
            assert winds[entry.index] == entry.winding
        lams = sorted(table.entries, key=lambda e: e.eigenvalue)
        seq = [winds[e.index] for e in lams]
        assert all(a <= b for a, b in zip(seq, seq[1:]))  # nondecreasing in lambda
        if kind.kind == "pos_hyperbolic":
            assert winds[1] == 0 and winds[-1] == 0
            for n_mode in (1, 2, 3, 4):
                assert winds[2 * n_mode] == n_mode
                assert winds[2 * n_mode + 1] == n_mode
                assert winds[-2 * n_mode] == -n_mode
                assert winds[-(2 * n_mode + 1)] == -n_mode


class TestGram:
    def test_first_two_entries_identity(self):
        table = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.2), 1)
        gram = gram_matrix(table, 4096)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_single_entry(self):
        full = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.4), 1)
        from cylcc.spectral import SpectrumTable

        single = SpectrumTable(full.kind, (full.entry(1),))
        gram = gram_matrix(single, 1024)
        assert np.allclose(gram, [[1.0]], atol=1e-10)

    def test_pos_hyperbolic_pair_orthogonality(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.3), 9)
        gram = gram_matrix(table, 4096)
        lookup = {e.index: j for j, e in enumerate(table.entries)}
        for n in (1, 2, 3, 4):
            assert abs(gram[lookup[2 * n], lookup[2 * n + 1]]) < 1e-10

    def test_full_orthonormality_all_kinds(self):
        for kind in (
            OperatorKind.pos_hyperbolic(0.3),
            OperatorKind.neg_hyperbolic(0.3),
            OperatorKind.elliptic(0.9),
        ):
            table = closed_form_spectrum(kind, 8)
            gram = gram_matrix(table, 4096)
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    @pytest.mark.parametrize("grid", [128, 1024])
    @pytest.mark.parametrize(
        "kind",
        [
            OperatorKind.elliptic(1.3),
            OperatorKind.pos_hyperbolic(0.3),
            OperatorKind.neg_hyperbolic(0.4),
        ],
        ids=lambda kind: kind.kind,
    )
    def test_numeric_orthonormality_between_grid_points(self, kind, grid):
        # 4096 quadrature points lie between the grid points of either grid.
        gram = gram_matrix(numeric_spectrum(kind, grid, 8), 4096)
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_empty_table_rejected(self):
        from cylcc.spectral import SpectrumTable

        with pytest.raises(ValidationError):
            gram_matrix(
                SpectrumTable(OperatorKind.pos_hyperbolic(0.3), ()), 128
            )


LOOP = TrigLoop(0.0, (1.0, 0.0), (0.0, 0.0))
KIND_POS = OperatorKind.pos_hyperbolic(0.3)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: OperatorKind("parabolic", 0.5), DomainError,
                 "unknown operator kind 'parabolic'", id="kind"),
    pytest.param(lambda: SpectrumEntry(0, 1.0, LOOP, 0), ValidationError,
                 "spectrum indices are nonzero integers", id="index-zero"),
    pytest.param(
        lambda: SpectrumTable(KIND_POS, (SpectrumEntry(1, 1.0, LOOP, 0),) * 2),
        ValidationError, "duplicate spectrum indices", id="duplicate-index",
    ),
    pytest.param(
        lambda: SpectrumTable(KIND_POS, (SpectrumEntry(1, -1.0, LOOP, 0),)),
        ValidationError, "sign(lambda_1) != sign(1) violates the ordering", id="sign-order",
    ),
    pytest.param(lambda: closed_form_spectrum(KIND_POS, 2).entry(3), KeyError,
                 "no spectrum entry with index 3", id="missing-entry"),
    pytest.param(lambda: finite_difference_operator("parabolic", 0.5, 8), DomainError,
                 "unknown operator kind 'parabolic'", id="fd-kind"),
    pytest.param(lambda: winding_number([[1.0, 0.0, 0.0]]), ValidationError,
                 "loop must be an (n, 2) array of samples", id="loop-shape"),
    pytest.param(lambda: numeric_spectrum(KIND_POS, 64, 17), DomainError,
                 "count must be at most grid_size/4 = 16, got 17", id="count-above-grid"),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)


@pytest.mark.parametrize("eps", [5e-324, math.nextafter(2 * math.pi, 0)])
def test_elliptic_signs_at_the_ends_of_the_eps_range(eps):
    # 0 < eps < 2 pi, enforced by OperatorKind, keeps 2 pi n - eps off zero.
    table = closed_form_spectrum(OperatorKind.elliptic(eps), 8)
    assert table.indices == [*range(-8, 0), *range(1, 9)]
    for e in table.entries:
        assert e.eigenvalue > 0 if e.index > 0 else e.eigenvalue < 0, (e.index, e.eigenvalue)
