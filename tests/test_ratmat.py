"""Exact linear algebra in ``ratmat`` against oracles that share none of its code.

Rank, kernel and the span test are checked against ``sympy.Matrix``;
determinants against the Laplace expansion in ``tests/oracles.py``.
Every matrix is drawn from a seeded generator, one family per kind.
"""

import random
from fractions import Fraction

import pytest
import sympy

from cylcc import ratmat

from .oracles import laplace_det

F = Fraction


def _product(left, right):
    inner = len(right)
    ncols = len(right[0]) if right else 0
    return [
        [sum((row[k] * right[k][j] for k in range(inner)), F(0)) for j in range(ncols)]
        for row in left
    ]


def _entries(rng, nrows, ncols, max_den=1, zero_frac=0.0):
    return [
        [
            F(0) if rng.random() < zero_frac
            else F(rng.randint(-6, 6), rng.randint(1, max_den))
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def _of_rank(rng, nrows, ncols, rank, max_den=1):
    """A product of nrows x rank and rank x ncols factors: rank at most ``rank``."""
    if rank == 0:
        return ratmat.zeros(nrows, ncols)
    return _product(
        _entries(rng, nrows, rank, max_den), _entries(rng, rank, ncols, max_den)
    )


def _square_full_rank(rng):
    n = rng.randint(1, 6)
    return _of_rank(rng, n, n, n)


def _rank_deficient(rng):
    nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
    return _of_rank(rng, nrows, ncols, rng.randint(1, min(nrows, ncols) - 1))


def _all_zero(rng):
    return ratmat.zeros(rng.randint(1, 6), rng.randint(1, 6))


def _tall(rng):
    ncols = rng.randint(1, 5)
    nrows = ncols + rng.randint(1, 4)
    return _of_rank(rng, nrows, ncols, rng.randint(0, ncols))


def _wide(rng):
    nrows = rng.randint(1, 5)
    ncols = nrows + rng.randint(1, 4)
    return _of_rank(rng, nrows, ncols, rng.randint(0, nrows))


def _non_integer(rng):
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    return _of_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), max_den=7)


def _sparse(rng):
    # Mostly zero, so pivots are often found below the current row.
    n = rng.randint(1, 6)
    ncols = n if rng.random() < 0.5 else rng.randint(1, 7)
    return _entries(rng, n, ncols, max_den=3, zero_frac=0.7)


KINDS = {
    "square_full_rank": _square_full_rank,
    "rank_deficient": _rank_deficient,
    "all_zero": _all_zero,
    "tall": _tall,
    "wide": _wide,
    "non_integer": _non_integer,
    "sparse": _sparse,
}


def instances(kind):
    rng = random.Random(f"ratmat-{kind}")
    return [KINDS[kind](rng) for _ in range(25)]


def to_sympy(a):
    return sympy.Matrix(
        len(a), len(a[0]), [sympy.Rational(x.numerator, x.denominator) for row in a for x in row]
    )


def to_fraction(x):
    return F(int(x.p), int(x.q))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rank_matches_sympy(kind):
    for a in instances(kind):
        assert ratmat.rank(a) == to_sympy(a).rank()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_nullspace_matches_sympy(kind):
    for a in instances(kind):
        ncols = len(a[0])
        expected = [[to_fraction(x) for x in vec] for vec in to_sympy(a).nullspace()]
        basis = ratmat.nullspace(a, ncols=ncols)
        assert len(basis) == ncols
        got = [[basis[i][j] for i in range(ncols)] for j in range(len(expected))]
        assert all(len(row) == len(expected) for row in basis)
        assert got == expected


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_det_matches_laplace(kind):
    for a in instances(kind):
        if len(a) != len(a[0]):
            with pytest.raises(ValueError):
                ratmat.det(a)
            continue
        assert ratmat.det(a) == laplace_det(a)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_solve_coordinates_against_sympy_span(kind):
    rng = random.Random(f"solve-{kind}")
    for basis in instances(kind):
        nrows, ncols = len(basis), len(basis[0])
        sym = to_sympy(basis)
        pivots = set(sym.rref()[1])
        in_span = [
            row[0] for row in _product(basis, _entries(rng, ncols, 1, max_den=3))
        ]
        candidates = (in_span, [F(0)] * nrows, [r[0] for r in _entries(rng, nrows, 1, 4)])
        for vector in candidates:
            coords = ratmat.solve_coordinates(basis, vector)
            augmented = sym.row_join(to_sympy([[x] for x in vector]))
            if augmented.rank() > sym.rank():
                assert coords is None
                continue
            assert coords is not None
            assert [row[0] for row in _product(basis, [[c] for c in coords])] == vector
            assert all(coords[j] == 0 for j in range(ncols) if j not in pivots)


def test_empty_matrices():
    assert ratmat.rank([]) == 0
    assert ratmat.rank([[], []]) == 0
    assert ratmat.nullspace([], ncols=3) == ratmat.identity(3)
    assert ratmat.nullspace([]) == []
    assert ratmat.nullspace([[], []]) == []
    assert ratmat.det([]) == laplace_det([]) == 1
    assert ratmat.solve_coordinates([], []) == []
    assert ratmat.solve_coordinates([[], []], [F(0), F(0)]) == []
    assert ratmat.solve_coordinates([[], []], [F(0), F(1)]) is None


def test_inputs_left_unchanged():
    a = [[F(0), F(2)], [F(3, 2), F(1)]]
    before = ratmat.clone(a)
    ratmat.rank(a)
    ratmat.nullspace(a)
    ratmat.det(a)
    ratmat.solve_coordinates(a, [F(1), F(1)])
    assert a == before


def test_mat_mul_matches_shaped_product():
    rng = random.Random(7)
    for _ in range(10):
        nrows, nmid, ncols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _entries(rng, nrows, nmid, max_den=3, zero_frac=0.3)
        b = _entries(rng, nmid, ncols, max_den=3, zero_frac=0.3)
        assert ratmat.mat_mul(a, b) == _product(a, b)
        assert ratmat.mat_mul(a, b) == ratmat.mat_mul_shaped(a, b, nrows, nmid, ncols)
    with pytest.raises(ValueError):
        ratmat.mat_mul([[F(1), F(2)]], [[F(1), F(2)]])
