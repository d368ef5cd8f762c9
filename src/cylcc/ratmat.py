"""Exact rational matrices as lists of Fraction rows, on a public integer core.

The core runs on Python integers.  ``clear`` takes each entry of a row at
its exact value and multiplies the row by the positive lcm of its
denominators, which changes neither the row space, nor the pivots, nor the
sign of a determinant; ``clear_rows`` clears a whole matrix by one lcm.
``eliminate`` is fraction-free (Bareiss) Gauss-Jordan elimination: its
reduced rows over the common pivot ``d`` are the reduced row echelon form.
``span_coordinates`` reads the coordinates of several vectors off one
elimination of the basis augmented by all of them, as numerators over
``d``.  Products, rank, kernel, determinant and span coordinates of
Fraction matrices clear, then run on the core, and only Fractions leave;
``orientation`` holds integer rows and calls the core directly.  An
integral entry, such as a numpy integer, becomes a Python int, so no
product wraps at 64 bits; any other number, a float of any width
included, becomes its exact Fraction, and a NaN or infinite one raises
DomainError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DomainError

Matrix = List[List[Fraction]]

# Entry types taken as they are; ``clear`` converts any other.
_EXACT = frozenset((int, Fraction))
_INT = frozenset((int,))


def zeros(nrows: int, ncols: int) -> Matrix:
    zero = Fraction(0)  # immutable, so every entry may share it
    return [[zero] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def shape(a: Matrix):
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    (am, an), (bm, bn) = shape(a), shape(b)
    if an != bm:
        raise ValueError(f"shape mismatch: ({am},{an}) @ ({bm},{bn})")
    return mat_mul_shaped(a, b, bn)


def mat_mul_shaped(a: Matrix, b: Matrix, ncols: int) -> Matrix:
    """Product with an explicit column count; safe when any dimension is zero.

    ``a`` has one row per row of the product, and ``b`` one row per
    column of ``a``; a ``b`` with no rows has lost its column count, so
    callers that track graded dimensions pass it in.
    Each row of ``a`` is cleared of denominators by its own lcm and ``b``
    by one lcm, so the sums run on integers and each entry becomes a
    Fraction once.
    """
    b_int, b_den = clear_rows(b, ncols)
    zero = Fraction(0)
    out = []
    for arow in a:
        a_int, a_den = clear(arow)
        acc = [0] * ncols
        for c, brow in zip(a_int, b_int):
            if c:
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


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[Fraction(x) for x in row] for row in a or b]
    if len(a) != len(b):
        raise ValueError("row count mismatch in hstack")
    return [list(a[i]) + list(b[i]) for i in range(len(a))]


def clear(row: Sequence) -> Tuple[List[int], int]:
    """``row`` times the lcm of its denominators, as integers, and that lcm.

    Each entry is taken at its exact value (``_exact_number``); a row of
    ints is returned as it is, with lcm 1.  A Fraction built from numpy
    integers keeps them as its parts, so each part is taken as a Python
    int.  The lcm is positive, so a cleared row spans the same line,
    pointing the same way.
    """
    if _INT.issuperset(map(type, row)):
        return list(row), 1
    if not _EXACT.issuperset(map(type, row)):
        row = [x if isinstance(x, (int, Fraction)) else _exact_number(x) for x in row]
    lcm = math.lcm(*(x.denominator for x in row))
    return [int(x.numerator) * (lcm // int(x.denominator)) for x in row], lcm


def _exact_number(x):
    """``x`` as an int if integral, else as its exact Fraction.

    Floats of every width, numpy's float32 included, have
    ``as_integer_ratio``; a NaN or infinite one raises DomainError.
    """
    try:
        return operator.index(x)
    except TypeError:
        ratio = getattr(x, "as_integer_ratio", None)
    if ratio is None:
        return Fraction(x)
    try:
        return Fraction(*ratio())
    except (ValueError, OverflowError):  # NaN, +-inf
        raise DomainError(f"entry {x!r} is not finite") from None


def clear_rows(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List[int]], int]:
    """Rows of ``ncols`` entries times one positive lcm, as integer rows, and the lcm."""
    flat, lcm = clear([x for row in rows for x in row])
    return [flat[i * ncols:(i + 1) * ncols] for i in range(len(rows))], lcm


def eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Every entry stays an integer minor, so the division by the previous
    pivot is exact.  Returns ``(reduced, pivots, d, sign)``: pivot r sits
    in row r at column ``pivots[r]``, ``d`` is the last pivot (1 if none)
    and every pivot ends equal to it, ``sign`` is the parity of the row
    swaps, and the rows past ``len(pivots)`` are zero.  ``reduced / d`` is
    the reduced row echelon form, and a square matrix of full rank has
    determinant ``sign * d``.  The input rows are not modified.
    """
    reduced = list(rows)
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
    return reduced, pivots, prev, sign


def span_coordinates(rows: Sequence[Sequence[int]], ncols: int, nvec: int):
    """Span coordinates from one elimination of the integer rows of [B | V].

    B has ``ncols`` columns and V has ``nvec``.  Returns ``(numerators,
    d)``: coordinate c of column j of V is ``numerators[j][c] / d``, zero
    at the free columns of B; or None if a column of V lies outside the
    span of B.
    """
    reduced, pivots, d, _ = eliminate(rows)
    if pivots and pivots[-1] >= ncols:
        return None
    numerators = [[0] * ncols for _ in range(nvec)]
    for r, pc in enumerate(pivots):
        row = reduced[r]
        for j, coords in enumerate(numerators):
            coords[pc] = row[ncols + j]
    return numerators, d


def pivot_columns(a: Matrix) -> List[int]:
    """Pivot columns of the reduced row echelon form of ``a``, in order.

    Column c is a pivot exactly when it is independent of the columns
    before it, so the pivots among the first k columns count the rank of
    those k columns.
    """
    return eliminate([clear(row)[0] for row in a])[1]


def rank(a: Matrix) -> int:
    return len(pivot_columns(a))


def nullspace(a: Matrix, ncols: int = None) -> Matrix:
    """Basis of the kernel, returned as a matrix whose columns span it."""
    if not a:
        return identity(ncols or 0)
    reduced, pivots, d, _ = eliminate([clear(row)[0] for row in a])
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
    cleared = [clear(row) for row in a]
    _, pivots, d, sign = eliminate([row for row, _ in cleared])
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, math.prod(lcm for _, lcm in cleared))


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
    found = span_coordinates(
        [clear(list(basis[i]) + [v[i] for v in vectors])[0] for i in range(nrows)],
        ncols, len(vectors),
    )
    if found is None:
        return None
    numerators, d = found
    return [[Fraction(x, d) for x in coords] for coords in numerators]
