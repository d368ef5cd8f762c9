"""Exact rational matrices as lists of Fraction rows.

Products clear denominators first and sum on Python integers.  Rank,
kernel, determinant and span coordinates read off one fraction-free
Gauss-Jordan elimination: its reduced integer rows divided by the common
denominator ``d`` are the reduced row echelon form.  Span coordinates of
several vectors come from one elimination of the basis augmented by all
of them.  Everything is exact; no floats enter or leave.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[Fraction]]


def zeros(nrows: int, ncols: int) -> Matrix:
    zero = Fraction(0)  # immutable, so every entry may share it
    return [[zero] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def clone(a: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in a]


def shape(a: Matrix):
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (am, an), (bm, bn) = shape(a), shape(b)
    if an != bm:
        raise ValueError(f"shape mismatch: ({am},{an}) @ ({bm},{bn})")
    return mat_mul_shaped(a, b, am, an, bn)


def mat_mul_shaped(
    a: Matrix, b: Matrix, nrows: int, nmid: int, ncols: int
) -> Matrix:
    """Product with explicit dimensions; safe when any dimension is zero.

    Bare list-of-rows matrices lose their column count when a dimension
    collapses, so callers that track graded dimensions pass them in.
    Each row of ``a`` is cleared of denominators by its own lcm and ``b``
    by one lcm, so the sums run on integers and each entry becomes a
    Fraction once.
    """
    b_den = math.lcm(*(x.denominator for row in b for x in row))
    b_int = [[x.numerator * (b_den // x.denominator) for x in row] for row in b]
    zero = Fraction(0)
    out = []
    for arow in a:
        a_den = math.lcm(*(x.denominator for x in arow))
        acc = [0] * ncols
        for x, brow in zip(arow, b_int):
            if x:
                c = x.numerator * (a_den // x.denominator)
                acc = [s + c * y for s, y in zip(acc, brow)]
        den = a_den * b_den
        out.append([Fraction(v, den) if v else zero for v in acc])
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    am, an = shape(a)
    if shape(b) != (am, an):
        raise ValueError("shape mismatch in subtraction")
    return [[a[i][j] - b[i][j] for j in range(an)] for i in range(am)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    am, an = shape(a)
    if shape(b) != (am, an):
        raise ValueError("shape mismatch in addition")
    return [[a[i][j] + b[i][j] for j in range(an)] for i in range(am)]


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return clone(b)
    if not b:
        return clone(a)
    if len(a) != len(b):
        raise ValueError("row count mismatch in hstack")
    return [list(a[i]) + list(b[i]) for i in range(len(a))]


def _gauss_jordan(rows: Sequence[Sequence]):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a rational matrix.

    Each row is cleared of denominators by their lcm; ``scale`` is the
    product of those lcms.  Every entry then stays an integer minor, so
    the division by the previous pivot is exact.  Returns ``(reduced,
    pivots, d, sign, scale)``: pivot r sits in row r at column
    ``pivots[r]``, ``d`` is the last pivot (1 if none), ``sign`` the parity
    of the row swaps, and the rows past ``len(pivots)`` are zero.
    """
    reduced = []
    scale = 1
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        reduced.append([x.numerator * (lcm // x.denominator) for x in row])
    nrows = len(reduced)
    ncols = len(reduced[0]) if reduced else 0
    pivots: List[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if reduced[i][c]), None)
        if p is None:
            continue
        if p != r:
            reduced[r], reduced[p] = reduced[p], reduced[r]
            sign = -sign
        prow = reduced[r]
        piv = prow[c]
        for i in range(nrows):
            if i != r:
                f = reduced[i][c]
                reduced[i] = [(piv * x - f * y) // prev for x, y in zip(reduced[i], prow)]
        prev = piv
        pivots.append(c)
    return reduced, pivots, prev, sign, scale


def pivot_columns(a: Matrix) -> List[int]:
    """Pivot columns of the reduced row echelon form of ``a``, in order.

    Column c is a pivot exactly when it is independent of the columns
    before it, so the pivots among the first k columns count the rank of
    those k columns.
    """
    return _gauss_jordan(a)[1]


def rank(a: Matrix) -> int:
    return len(pivot_columns(a))


def nullspace(a: Matrix, ncols: int = None) -> Matrix:
    """Basis of the kernel, returned as a matrix whose columns span it."""
    if not a:
        return identity(ncols or 0)
    reduced, pivots, d, _, _ = _gauss_jordan(a)
    n = len(a[0])
    free_cols = [c for c in range(n) if c not in pivots]
    basis = zeros(n, len(free_cols))
    for j, fc in enumerate(free_cols):
        basis[fc][j] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc][j] = Fraction(-reduced[r][fc], d)
    return basis


def det(a: Matrix) -> Fraction:
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, sign, scale = _gauss_jordan(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, scale)


def solve_coordinates(basis: Matrix, vectors: Sequence[Sequence[Fraction]]):
    """Coordinates of each vector in the column span of ``basis``.

    One elimination of ``[basis | v_1 ... v_k]`` answers for all the
    vectors: the result lists one coordinate row per vector, or is None
    if any vector lies outside the span.  Coordinates at free (non-pivot)
    columns of ``basis`` are always zero, so when the basis is dependent
    the square matrix of the coordinates of any family has a zero column
    and determinant 0.
    """
    nrows, ncols = shape(basis)
    if any(len(v) != nrows for v in vectors):
        raise ValueError("dimension mismatch")
    reduced, pivots, d, _, _ = _gauss_jordan(
        [list(basis[i]) + [v[i] for v in vectors] for i in range(nrows)]
    )
    if pivots and pivots[-1] >= ncols:
        return None
    coords = [[Fraction(0)] * ncols for _ in vectors]
    for r, pc in enumerate(pivots):
        row = reduced[r]
        for j, c in enumerate(coords):
            c[pc] = Fraction(row[ncols + j], d)
    return coords
