"""Brute-force oracles used by the test suite.

The orientation oracle chases top wedges through explicit maximal
minors (Laplace expansion), independently of the package's Gaussian
elimination route.  The product oracle multiplies Fractions entry by
entry, independently of the package's integer rows.  The trig-polynomial
oracles sum and differentiate the terms one at a time, independently of
the package's order-matrix evaluation.  The torus Newton oracle seeds
damped Newton at every grid point and keeps what converges, independently
of the package's certified cell search.
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


def mat_mul_oracle(a, b, nrows, nmid, ncols):
    """Product of an nrows x nmid and an nmid x ncols matrix, one Fraction at a time."""
    out = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i in range(nrows):
        arow = a[i]
        orow = out[i]
        for k in range(nmid):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(ncols):
                if brow[j] != 0:
                    orow[j] += aik * brow[j]
    return out


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


def trig_partial_oracle(poly, var):
    """d poly / d theta_var as a polynomial of the same type, term by term."""
    terms = []
    for kind, orders, value in poly.terms:
        if kind == "const" or orders[var] == 0:
            continue
        w = 2.0 * math.pi * orders[var]
        if kind == "cos":
            terms.append(("sin", orders, -value * w))
        else:
            terms.append(("cos", orders, value * w))
    return type(poly)(poly.nvars, tuple(terms))


def torus_newton_oracle(f1, f2, n_grid, newton_steps=60):
    """Common zeros of f1, f2 on the torus by damped Newton from every grid point.

    Each point (i/n_grid, j/n_grid) seeds a Newton iteration whose steps
    are shortened to length 0.25 when longer.  A seed stops when its step
    is at most 1e-12, and is lost when its Jacobian determinant falls below
    1e-14 in magnitude.  Seeds not lost with |f1|, |f2| < 1e-10 at the end
    are reduced mod 1; the first of any points within 1e-7 is kept.

    Returns the sorted roots.
    """
    axis = np.arange(n_grid) / n_grid
    theta = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    singular = np.zeros(len(theta), dtype=bool)
    active = np.arange(len(theta))
    for _ in range(newton_steps):
        if not active.size:
            break
        t = theta[active]
        v1, g1 = f1.value_and_grad(t)
        v2, g2 = f2.value_and_grad(t)
        (a, b), (c, d) = g1.T, g2.T
        det = a * d - b * c
        bad = np.abs(det) < 1e-14
        det[bad] = 1.0
        step = np.column_stack([(d * v1 - b * v2) / det, (-c * v1 + a * v2) / det])
        norm = np.linalg.norm(step, axis=1)
        theta[active] = t - step * (0.25 / np.maximum(norm, 0.25))[:, None]
        singular[active[bad]] = True
        active = active[~bad & (norm > 1e-12)]
    live = np.flatnonzero(~singular)
    found = live[(np.abs(f1(theta[live])) < 1e-10) & (np.abs(f2(theta[live])) < 1e-10)]
    points = np.mod(theta[found], 1.0)
    roots = []
    while len(points):
        roots.append(tuple(float(x) for x in points[0]))
        d = np.abs(points - points[0]) % 1.0
        points = points[np.minimum(d, 1.0 - d).max(axis=1) >= 1e-7]
    return sorted(roots)
