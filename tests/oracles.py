"""Brute-force oracles used by the test suite.

The orientation oracle chases top wedges through explicit maximal
minors (Laplace expansion), independently of the package's Gaussian
elimination route.  The trig-polynomial oracle sums the terms one at a
time, independently of the package's order-matrix evaluation.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def laplace_det(matrix):
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = Fraction(matrix[0][j]) * laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def plucker_coordinates(vectors, dim):
    """All maximal minors of the (m x dim) row matrix of the family."""
    m = len(vectors)
    rows = [list(map(Fraction, v)) for v in vectors]
    coords = {}
    for subset in combinations(range(dim), m):
        sub = [[rows[i][j] for j in subset] for i in range(m)]
        coords[subset] = laplace_det(sub)
    return coords


def top_wedge_sign_ratio(vectors_a, vectors_b, dim):
    """Sign of the constant relating the top wedges of two bases.

    Both families must be bases of the same subspace; their Plucker
    vectors are then proportional, and the ratio's sign is returned.
    """
    if len(vectors_a) != len(vectors_b):
        raise ValueError("families of different sizes")
    if not vectors_a:
        return 1
    pa = plucker_coordinates(vectors_a, dim)
    pb = plucker_coordinates(vectors_b, dim)
    ratio = None
    for key, vb in pb.items():
        va = pa[key]
        if vb == 0:
            if va != 0:
                raise ValueError("families do not span the same subspace")
            continue
        r = va / vb
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise ValueError("families do not span the same subspace")
    if ratio is None or ratio == 0:
        raise ValueError("degenerate family")
    return 1 if ratio > 0 else -1


def comparison_sign_oracle(
    model, ker_basis, f_basis, coker_basis, phi_f_basis,
    preimage_basis=None, e_basis=None,
):
    """Orientation chase for the comparison isomorphism via Plucker data."""
    ker = [list(map(Fraction, v)) for v in ker_basis]
    f = [list(map(Fraction, v)) for v in f_basis]
    coker = [list(map(Fraction, w)) for w in coker_basis]
    phi_f = [list(map(Fraction, w)) for w in phi_f_basis]
    images = [model.apply(v) for v in f]
    source_v = ker + f
    source_e = coker + images
    ref_v = source_v if preimage_basis is None else [
        list(map(Fraction, v)) for v in preimage_basis
    ]
    ref_e = (coker + phi_f) if e_basis is None else [
        list(map(Fraction, w)) for w in e_basis
    ]
    sign_v = top_wedge_sign_ratio(source_v, ref_v, model.dim_v)
    # Dual-reversed wedges compare with the same sign as the primal ones.
    sign_e = top_wedge_sign_ratio(source_e, ref_e, model.dim_w)
    return sign_v * sign_e


def trig_polynomial_oracle(terms, theta):
    """Sum of value * cos/sin(2 pi orders . theta) over the terms, one by one."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    out = np.zeros(theta.shape[0])
    for kind, orders, value in terms:
        if kind == "const":
            out += value
            continue
        phase = 2.0 * math.pi * (theta @ np.asarray(orders, dtype=float))
        out += value * (np.cos(phase) if kind == "cos" else np.sin(phase))
    return out
