import math

import numpy as np
import pytest

from cylcc.errors import DomainError, IllConditionedInputError, NumericError, ValidationError
from cylcc.spectral import (
    OperatorKind,
    closed_form_spectrum,
    finite_difference_operator,
    gram_matrix,
    numeric_spectrum,
    winding_number,
)

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
            v = entry.eigenfunction.values[:grid].ravel() / math.sqrt(grid)
            residual = np.linalg.norm(a @ v - entry.eigenvalue * v)
            assert residual <= 1e-7 * (1.0 + abs(entry.eigenvalue)), entry.index


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

    def test_large_jump_rejected(self):
        with pytest.raises(IllConditionedInputError):
            winding_number([(1.0, 0.0), (-1.0, 1e-15), (1.0, 0.0), (-1.0, -1e-15)])

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

    def test_empty_table_rejected(self):
        from cylcc.spectral import SpectrumTable

        with pytest.raises(ValidationError):
            gram_matrix(
                SpectrumTable(OperatorKind.pos_hyperbolic(0.3), ()), 128
            )
