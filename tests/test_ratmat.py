"""Exact linear algebra in ``ratmat`` against oracles that share none of its code.

Rank, kernel and the span test are checked against ``sympy.Matrix``;
determinants against the Laplace expansion and products against the
Fraction-by-Fraction loop in ``tests/oracles.py``.  Every matrix is drawn
from a seeded generator, one family per kind.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcc import ratmat
from cylcc.errors import DomainError

from .oracles import hstack_oracle, laplace_det, mat_add_oracle, mat_mul_oracle

F = Fraction


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
    return mat_mul_oracle(
        _entries(rng, nrows, rank, max_den), _entries(rng, rank, ncols, max_den),
        nrows, rank, ncols,
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
def test_pivot_columns_match_sympy(kind):
    for a in instances(kind):
        assert ratmat.pivot_columns(a) == list(to_sympy(a).rref()[1])


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
        # Three combinations of the columns, the zero vector and a random one.
        pool = [
            [row[0] for row in mat_mul_oracle(
                basis, _entries(rng, ncols, 1, max_den=3), nrows, ncols, 1
            )]
            for _ in range(3)
        ] + [[F(0)] * nrows, [r[0] for r in _entries(rng, nrows, 1, 4)]]
        member = [
            sym.row_join(to_sympy([[x] for x in v])).rank() == len(pivots) for v in pool
        ]
        for family in ((), (0,), (3,), (0, 1, 2, 3), (4,), (0, 1, 4, 2)):
            vectors = [pool[i] for i in family]
            coords = ratmat.solve_coordinates(basis, vectors)
            if not all(member[i] for i in family):
                assert coords is None
                continue
            assert coords is not None and len(coords) == len(vectors)
            for vector, c in zip(vectors, coords):
                assert ratmat.solve_coordinates(basis, [vector]) == [c]
                got = mat_mul_oracle(basis, [[x] for x in c], nrows, ncols, 1)
                assert [row[0] for row in got] == vector
                assert all(c[j] == 0 for j in range(ncols) if j not in pivots)


def test_solve_coordinates_checks_every_length():
    basis = [[F(1)], [F(0)]]
    assert ratmat.solve_coordinates(basis, [[F(2), F(0)]]) == [[F(2)]]
    with pytest.raises(ValueError):
        ratmat.solve_coordinates(basis, [[F(1), F(0)], [F(1)]])


def test_empty_matrices():
    assert ratmat.rank([]) == 0
    assert ratmat.rank([[], []]) == 0
    assert ratmat.nullspace([], ncols=3) == ratmat.identity(3)
    assert ratmat.nullspace([]) == []
    assert ratmat.nullspace([[], []]) == []
    assert ratmat.det([]) == laplace_det([]) == 1
    assert ratmat.solve_coordinates([], [[]]) == [[]]
    assert ratmat.solve_coordinates([[], []], [[F(0), F(0)]]) == [[]]
    assert ratmat.solve_coordinates([[], []], [[F(0), F(1)]]) is None
    assert ratmat.solve_coordinates([[F(1)]], []) == []


def test_inputs_left_unchanged():
    a = [[F(0), F(2)], [F(3, 2), F(1)]]
    before = [list(row) for row in a]
    ratmat.rank(a)
    ratmat.nullspace(a)
    ratmat.det(a)
    vectors = [[F(1), F(1)], [F(1, 3), F(0)]]
    ratmat.solve_coordinates(a, vectors)
    ratmat.mat_mul(a, a)
    assert a == before
    assert vectors == [[F(1), F(1)], [F(1, 3), F(0)]]


def test_numpy_integer_entries_past_64_bits():
    # np.int64 entries used to be multiplied as np.int64 and wrap: det gave
    # 1099511627761 and the product's first entry 15 (tier-1 turns the
    # overflow RuntimeWarning into an error).  Every answer must equal the
    # one for the same entries as Python ints.
    big = [[2**40, 3], [5, 2**40 + 1]]
    wide = [[np.int64(x) for x in row] for row in big]
    assert ratmat.det(wide) == ratmat.det(big) == 2**80 + 2**40 - 15
    assert ratmat.mat_mul(wide, wide) == ratmat.mat_mul(big, big)
    assert ratmat.mat_mul(wide, wide)[0][0] == 2**80 + 15
    assert ratmat.mat_mul(wide, big) == ratmat.mat_mul(big, wide) == ratmat.mat_mul(big, big)
    dependent = [[2**62, 3 * 2**61], [2**61, 3 * 2**60]]
    as_numpy = [[np.int64(x) for x in row] for row in dependent]
    assert ratmat.rank(as_numpy) == ratmat.rank(dependent) == 1
    assert ratmat.nullspace(as_numpy) == ratmat.nullspace(dependent) == [[F(-3, 2)], [F(1)]]
    vectors = [[np.int64(2**62), np.int64(7)], [np.int64(-(2**63)), np.int64(0)]]
    plain = [[int(x) for x in v] for v in vectors]
    assert ratmat.solve_coordinates(wide, vectors) == ratmat.solve_coordinates(big, plain)
    assert ratmat.solve_coordinates(wide, vectors) is not None
    mixed = [[np.int32(3), F(1, 2)], [np.uint64(2**63 + 1), True]]
    assert ratmat.det(mixed) == 3 - F(2**63 + 1, 2)


def test_fractions_of_numpy_integers_past_64_bits():
    # A Fraction built from numpy integers keeps them as its parts, and
    # clear multiplied them as they were: this product read [[0]], and the
    # eliminations below overflowed.  Each must read as the same Fractions
    # of Python ints.
    a, b = [[F(np.int64(2**62), 1)]], [[F(4)]]
    assert ratmat.mat_mul(a, b) == mat_mul_oracle([[F(2**62)]], b, 1, 1, 1) == [[F(2**64)]]
    top = [F(2**62, 3), F(3 * 2**61, 5), F(1)]
    plain = [top, [x / 2 for x in top], [F(1, 7), F(2), F(5)]]
    wide = [[F(np.int64(x.numerator), np.int64(x.denominator)) for x in row] for row in plain]
    assert type(wide[0][0].numerator) is np.int64
    assert ratmat.pivot_columns(wide) == list(to_sympy(plain).rref()[1]) == [0, 1]
    expected = [[to_fraction(x)] for x in to_sympy(plain).nullspace()[0]]
    assert ratmat.nullspace(wide) == expected


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_float_entries_taken_at_their_exact_value(kind):
    # Float entries used to raise TypeError from operator.index.  Now each
    # is its exact Fraction (a non-dyadic one, such as 0.1, included).
    for a in instances(kind):
        floats = [[float(x) / 10.0 for x in row] for row in a]
        floats[0] = [np.float64(x) for x in floats[0]]
        exact = [[F(x) for x in row] for row in floats]
        assert ratmat.rank(floats) == ratmat.rank(exact)
        assert ratmat.nullspace(floats) == ratmat.nullspace(exact)
        if len(a) == len(a[0]):
            assert ratmat.det(floats) == ratmat.det(exact)
        vectors = [[row[j] for row in floats] for j in range(len(a[0]))] + [[0.1] * len(a)]
        exact_vectors = [[F(x) for x in v] for v in vectors]
        assert ratmat.solve_coordinates(floats, vectors) == ratmat.solve_coordinates(
            exact, exact_vectors
        )


FLOAT_TYPES = [np.float16, np.float32, np.float64, np.longdouble, float]


@pytest.mark.parametrize("kind", FLOAT_TYPES, ids=lambda kind: kind.__name__)
def test_every_float_width_taken_at_its_exact_value(kind):
    # numpy floats other than float64 are neither floats nor Rationals, and
    # used to raise a bare TypeError in every kernel.
    rng = random.Random(f"float-width-{kind.__name__}")
    for a in instances("non_integer"):
        floats = [[kind(float(x)) for x in row] for row in a]
        exact = [[F(*x.as_integer_ratio()) for x in row] for row in floats]
        nrows, ncols = len(a), len(a[0])
        assert ratmat.rank(floats) == ratmat.rank(exact)
        assert ratmat.nullspace(floats) == ratmat.nullspace(exact)
        if nrows == ncols:
            assert ratmat.det(floats) == ratmat.det(exact)
        vectors = [[kind(rng.randint(-3, 3) / 4) for _ in range(nrows)] for _ in range(2)]
        exact_vectors = [[F(*x.as_integer_ratio()) for x in v] for v in vectors]
        assert ratmat.solve_coordinates(floats, vectors) == ratmat.solve_coordinates(
            exact, exact_vectors
        )
        columns = [[kind(0.1)] * 2 for _ in range(ncols)]
        exact_columns = [[F(*x.as_integer_ratio()) for x in row] for row in columns]
        assert ratmat.mat_mul(floats, columns) == mat_mul_oracle(
            exact, exact_columns, nrows, ncols, 2
        )
        cleared, lcm = ratmat.clear(floats[0])
        assert [F(x, lcm) for x in cleared] == exact[0]


def _core_matrix(draw, nrows, ncols):
    """Small integers with some rows and columns zeroed."""
    rows = [[draw(st.integers(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _sympy_of(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [x for row in rows for x in row])


CORE = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@CORE
@given(st.data())
def test_eliminate_gives_sympy_rref_and_det(data):
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rows = _core_matrix(data.draw, nrows, ncols)
    reduced, pivots, d, sign = ratmat.eliminate(rows)
    rref, sympy_pivots = _sympy_of(rows, ncols).rref()
    assert pivots == list(sympy_pivots)
    assert [[F(x, d) for x in row] for row in reduced] == [
        [to_fraction(rref[i, j]) for j in range(ncols)] for i in range(nrows)
    ]
    if nrows == ncols == len(pivots):
        assert sign * d == _sympy_of(rows, ncols).det()


ENTRIES = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=50),
    st.integers(2**63, 2**64 - 1).map(np.uint64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.builds(F, st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(1, 2**63 - 1).map(np.int64)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)


def _exact_value(x):
    if isinstance(x, (int, np.integer)):
        return F(int(x))
    if isinstance(x, F):
        return F(int(x.numerator), int(x.denominator))
    return F(*x.as_integer_ratio())


@CORE
@given(st.lists(ENTRIES, max_size=6))
def test_clear_keeps_every_value(row):
    cleared, lcm = ratmat.clear(row)
    assert lcm > 0 and all(type(x) is int for x in cleared)
    assert [F(x, lcm) for x in cleared] == [_exact_value(x) for x in row]


@CORE
@given(st.data())
def test_span_coordinates_agree_with_sympy_solve(data):
    nrows, ncols, nvec = (data.draw(st.integers(1, 4)) for _ in range(3))
    basis = _core_matrix(data.draw, nrows, ncols)
    vectors = _core_matrix(data.draw, nrows, nvec)
    found = ratmat.span_coordinates([b + v for b, v in zip(basis, vectors)], ncols, nvec)
    sym = _sympy_of(basis, ncols)
    solutions = []
    for j in range(nvec):
        try:
            solution, params = sym.gauss_jordan_solve(_sympy_of([[v[j]] for v in vectors], 1))
        except ValueError:  # no solution
            assert found is None
            return
        solutions.append(solution.subs({p: 0 for p in params}))
    numerators, d = found
    assert [[F(x, d) for x in coords] for coords in numerators] == [
        [to_fraction(s[c]) for c in range(ncols)] for s in solutions
    ]


def test_mat_mul_matches_shaped_product():
    rng = random.Random(7)
    for _ in range(10):
        nrows, nmid, ncols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _entries(rng, nrows, nmid, max_den=3, zero_frac=0.3)
        b = _entries(rng, nmid, ncols, max_den=3, zero_frac=0.3)
        assert ratmat.mat_mul(a, b) == mat_mul_oracle(a, b, nrows, nmid, ncols)
        assert ratmat.mat_mul(a, b) == ratmat.mat_mul_shaped(a, b, ncols)
    with pytest.raises(ValueError):
        ratmat.mat_mul([[F(1), F(2)]], [[F(1), F(2)]])


def test_mat_add_matches_fraction_oracle():
    rng = random.Random("mat-add")
    for _ in range(100):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        a, b = (_entries(rng, nrows, ncols, max_den=4, zero_frac=0.3) for _ in range(2))
        got = ratmat.mat_add(a, b)
        assert got == mat_add_oracle(a, b, nrows, ncols)
        assert len(got) == nrows and all(len(row) == ncols for row in got)


def test_hstack_matches_oracle_with_empty_operands():
    # An operand with no columns may come as rows of nothing or as no rows;
    # when both do, the row count is lost, so one keeps its rows.
    rng = random.Random("hstack")
    for _ in range(100):
        nrows, na, nb = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = _entries(rng, nrows, na, max_den=4), _entries(rng, nrows, nb, max_den=4)
        want = hstack_oracle(a, b, nrows, na, nb)
        assert ratmat.hstack(a, b) == want
        collapsed_a = [] if na == 0 else a
        collapsed_b = [] if nb == 0 and na > 0 else b
        assert ratmat.hstack(collapsed_a, collapsed_b) == want
    with pytest.raises(ValueError, match="row count mismatch"):
        ratmat.hstack([[F(1)]], [[F(1)], [F(2)]])


def _mixed(rng, nrows, ncols):
    # Plain ints next to Fractions, as hand-written blocks hold them.
    return [
        [rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


PRODUCT_FACTORS = {
    "integer": lambda rng, n, m: _entries(rng, n, m),
    "non_integer": lambda rng, n, m: _entries(rng, n, m, max_den=9),
    "mixed_int_fraction": _mixed,
    "sparse": lambda rng, n, m: _entries(rng, n, m, max_den=5, zero_frac=0.8),
    "all_zero": lambda rng, n, m: ratmat.zeros(n, m),
}


@pytest.mark.parametrize("kind", sorted(PRODUCT_FACTORS))
def test_product_matches_fraction_oracle(kind):
    rng = random.Random(f"product-{kind}")
    factor = PRODUCT_FACTORS[kind]
    for _ in range(250):
        nrows, nmid, ncols = (rng.randint(0, 6) for _ in range(3))
        a, b = factor(rng, nrows, nmid), factor(rng, nmid, ncols)
        got = ratmat.mat_mul_shaped(a, b, ncols)
        assert got == mat_mul_oracle(a, b, nrows, nmid, ncols)
        assert len(got) == nrows and all(len(row) == ncols for row in got)
        assert all(type(x) is Fraction for row in got for x in row)
        if nrows and nmid:
            assert ratmat.mat_mul(a, b) == got


@pytest.mark.parametrize("dims", [
    (0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 4), (0, 4, 0), (4, 0, 0),
])
def test_product_with_zero_dimensions(dims):
    nrows, nmid, ncols = dims
    rng = random.Random(str(dims))
    a = _entries(rng, nrows, nmid, max_den=3)
    b = _entries(rng, nmid, ncols, max_den=3)
    got = ratmat.mat_mul_shaped(a, b, ncols)
    assert got == mat_mul_oracle(a, b, nrows, nmid, ncols) == ratmat.zeros(nrows, ncols)


def test_product_rows_are_independent():
    # Callers scale rows of a product in place.
    a = [[F(1)], [F(2)]]
    out = ratmat.mat_mul_shaped(a, [[F(0), F(3)]], 2)
    out[0][1] *= 5
    assert out == [[F(0), F(15)], [F(0), F(6)]]


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: ratmat.mat_sub([[F(1)]], [[F(1), F(2)]]), ValueError,
                 "shape mismatch in subtraction", id="sub"),
    pytest.param(lambda: ratmat.mat_add([[F(1)]], [[F(1)], [F(2)]]), ValueError,
                 "shape mismatch in addition", id="add"),
    pytest.param(lambda: ratmat.hstack([[F(1)]], [[F(1)], [F(2)]]), ValueError,
                 "row count mismatch in hstack", id="hstack"),
    # A NaN raised a bare ValueError and an infinity a bare OverflowError.
    pytest.param(lambda: ratmat.clear([F(1, 2), math.nan]), DomainError,
                 "entry nan is not finite", id="clear-nan"),
    pytest.param(lambda: ratmat.clear([math.inf]), DomainError,
                 "entry inf is not finite", id="clear-inf"),
    pytest.param(lambda: ratmat.clear([0.5, np.float64(-np.inf)]), DomainError,
                 "entry np.float64(-inf) is not finite", id="clear-numpy-inf"),
    pytest.param(lambda: ratmat.clear([np.float32(np.nan)]), DomainError,
                 "entry np.float32(nan) is not finite", id="clear-float32-nan"),
    pytest.param(lambda: ratmat.mat_mul([[F(1)]], [[math.nan]]), DomainError,
                 "entry nan is not finite", id="product-nan"),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)
