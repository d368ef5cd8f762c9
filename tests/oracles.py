"""Brute-force oracles used by the test suite.

The orientation oracle chases top wedges through explicit maximal
minors (Laplace expansion), independently of the package's Gaussian
elimination route.  The product oracle multiplies Fractions entry by
entry, independently of the package's integer rows; the sum and
side-by-side oracles read every entry by its index, independently of the
package's row handling.  The trig-polynomial oracles sum and
differentiate the terms one at a time, independently of the package's
order-matrix evaluation.  The torus Newton oracle seeds
damped Newton at every grid point and keeps what converges, independently
of the package's certified cell search.  The brentq oracles refine one
bracket at a time with scipy, independently of the package's batched
bracket refinement.  The torus scan oracle samples every cell's 3x3 grid
on its own, independently of the package's shared lattices.  The neck
norm oracle applies the trapezoid rule to every point of the full grid,
independently of the package's ramp points and geometric series.  The
sweep oracle solves and measures the neck afresh at every amplitude,
independently of the package's one solve per neck scaled by linearity.  The
graded identity oracles stack every graded map into one dense matrix over
all generators and multiply with the product oracle, independently of the
package's block-by-block composition.  The FD selection oracle solves
every Fourier block of the FD operator and sorts Python tuples, independently
of the package's certified block prefix and array sorts.  The direct-limit
oracle composes the stage maps into maps to the last stage and ranks
[pushed cycles | boundaries] stage by stage with sympy, independently of
the package's single elimination of the carried cycles per grading.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import sympy
from scipy.optimize import brentq

from cylcc.gluing import NeckField, SweepRow, solve_neck
from cylcc.spectral import OperatorKind, closed_form_spectrum


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


def mat_add_oracle(a, b, nrows, ncols):
    """Sum of two nrows x ncols matrices, one Fraction at a time."""
    return [[Fraction(a[i][j]) + Fraction(b[i][j]) for j in range(ncols)] for i in range(nrows)]


def hstack_oracle(a, b, nrows, na, nb):
    """[a | b] of an nrows x na and an nrows x nb matrix; one with no columns is never read."""
    return [[a[i][j] for j in range(na)] + [b[i][j] for j in range(nb)] for i in range(nrows)]


def graded_index(generators):
    """(grading, position, id) of every generator, gradings from the top."""
    return [
        (g, j, gid)
        for g in sorted(generators, reverse=True)
        for j, gid in enumerate(generators[g])
    ]


def dense_graded(source, target, degree, blocks):
    """A graded map over all generators as one dense matrix.

    ``source`` and ``target`` are generator dicts; ``blocks[g]`` maps
    source grading g to target grading g + degree, and missing blocks are
    zero.  Rows and columns follow ``graded_index``.
    """
    rows = {(g, j): r for r, (g, j, _) in enumerate(graded_index(target))}
    cols = graded_index(source)
    out = [[Fraction(0)] * len(cols) for _ in rows]
    for c, (g, j, _) in enumerate(cols):
        for i, row in enumerate(blocks.get(g, ())):
            out[rows[(g + degree, i)]][c] = Fraction(row[j])
    return out


def _dense(m):
    """Dense matrix of a complex's differential or of a graded map."""
    if hasattr(m, "degree"):
        return dense_graded(m.source.generators, m.target.generators, m.degree, m.blocks)
    return dense_graded(m.generators, m.generators, -1, m.blocks)


def _dense_product(a, b, source):
    """a @ b, where the columns of b run over the generator dict ``source``."""
    return mat_mul_oracle(a, b, len(a), len(b), len(graded_index(source)))


def _dense_minus(a, b):
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_first_nonzero(matrix, source, target):
    """(ok, grading, pair, value) of the first nonzero entry, column by column.

    Columns run over ``source`` and rows over ``target`` in ``graded_index``
    order; the grading reported is the column's.
    """
    rows = graded_index(target)
    for c, (g, _, gamma) in enumerate(graded_index(source)):
        for r, (_, _, gamma_prime) in enumerate(rows):
            if matrix[r][c] != 0:
                return (False, g, (gamma, gamma_prime), matrix[r][c])
    return (True, None, None, None)


def d_squared_oracle(cx):
    d = _dense(cx)
    gens = cx.generators
    return dense_first_nonzero(_dense_product(d, d, gens), gens, gens)


def chain_map_oracle(d_plus, d_minus, phi):
    """First nonzero entry of D_- Phi - Phi D_+."""
    dp, dm, f = _dense(d_plus), _dense(d_minus), _dense(phi)
    plus = d_plus.generators
    diff = _dense_minus(_dense_product(dm, f, plus), _dense_product(f, dp, plus))
    return dense_first_nonzero(diff, plus, d_minus.generators)


def chain_homotopy_oracle(phi0, phi1, k_plus, k_minus, d_plus, d_minus):
    """First nonzero entry of Phi_1 - Phi_0 - K_+ D_+ - D_- K_-."""
    dp, dm, plus = _dense(d_plus), _dense(d_minus), d_plus.generators
    diff = _dense_minus(_dense(phi1), _dense(phi0))
    diff = _dense_minus(diff, _dense_product(_dense(k_plus), dp, plus))
    diff = _dense_minus(diff, _dense_product(dm, _dense(k_minus), plus))
    return dense_first_nonzero(diff, plus, d_minus.generators)


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


def brentq_circle_roots_oracle(func, n_scan):
    """Roots of a 1-periodic function: sign changes on an n_scan-point scan, each by brentq.

    Samples that are exact zeros count as roots.  Roots are reduced mod 1,
    sorted, and the first of any run closer than 1e-9 (around the circle)
    is kept.
    """
    ts = np.arange(n_scan + 1) / n_scan
    vals = func(ts.reshape(-1, 1))
    roots = []
    for j in range(n_scan):
        a, b = vals[j], vals[j + 1]
        if a == 0.0:
            roots.append(float(ts[j]))
        elif a * b < 0.0:
            scalar = lambda t: float(func(np.array([[t]]))[0])  # noqa: E731
            roots.append(brentq(scalar, ts[j], ts[j + 1], xtol=1e-14))
    out = []
    for r in sorted(r % 1.0 for r in roots):
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    if len(out) > 1 and out[0] + 1.0 - out[-1] < 1e-9:
        out.pop()
    return out


def brentq_flow_normalize_oracle(lambdas, coeffs, radius):
    """The point of radius ``radius`` on the flow line c_i e^{lambda_i s}, by brentq on s.

    Zero coefficients are left out of the sum, and a term that overflows
    counts as +inf.
    """
    c = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    live = c != 0.0

    def squared_radius(s):
        with np.errstate(over="ignore"):
            terms = c[live] ** 2 * np.exp(2.0 * lam[live] * s)
        return float(np.sum(terms)) - radius**2

    lo = hi = 0.0
    step = 1.0
    while squared_radius(lo) > 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while squared_radius(hi) < 0.0:
        hi += step
        step *= 2.0
    s_star = brentq(squared_radius, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return c * np.exp(lam * s_star)


def torus_scan_oracle(components, scales, n_cells):
    """Common zeros of scale_i * components[i] on R^n / Z^n, n = len(components)
    in {1, 2}, by subdivision, one cell at a time.

    Cells of width h start as the n_cells^n grid.  A cell is kept while
    every scaled component takes a value <= 0 and a value >= 0 among its
    3^n samples h/2 apart (each cell evaluated separately), and is then
    split into 2^n, until h < 1e-11.  The centres of the last cells,
    sorted, give the zeros; the first of any points within 1e-7 is kept.
    """
    n = len(components)

    def grid(size, spacing):
        axes = np.meshgrid(*[np.arange(size) * spacing] * n, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, n)

    cells = grid(n_cells, 1.0 / n_cells)
    h = 1.0 / n_cells
    while len(cells) and h >= 1e-11:
        sample = ((cells[:, None, :] + grid(3, h / 2.0)) % 1.0).reshape(-1, n)
        hit = np.ones(len(cells), dtype=bool)
        for scale, comp in zip(scales, components):
            v = (scale * comp(sample)).reshape(len(cells), 3**n)
            hit &= (v.min(axis=1) <= 0.0) & (v.max(axis=1) >= 0.0)
        cells = (cells[hit][:, None, :] + grid(2, h / 2.0)).reshape(-1, n)
        h = h / 2.0
    centres = cells + h / 2.0
    points = np.mod(centres[np.lexsort(centres.T[::-1])], 1.0)
    zeros = []
    while len(points):
        zeros.append(tuple(float(v) for v in points[0]))
        d = np.abs(points - points[0]) % 1.0
        points = points[np.minimum(d, 1.0 - d).max(axis=1) >= 1e-7]
    return zeros


def star_norm_oracle(field):
    """NeckField.star_norm by np.trapezoid over every point of params.grid().

    Each mode is (a + c R) e^{lambda (s - anchor)}, with the anchored
    coefficient a + c R and its derivative read from the ``RampMode``.
    """
    grid = field.params.grid()
    total = 0.0
    dtotal = 0.0
    for i in field.mode_indices:
        lam = field.spectrum.eigenvalue(i)
        mode = field.modes[i]
        b = mode.value(grid)
        db = mode.deriv(grid) + lam * b
        with np.errstate(over="ignore", invalid="ignore"):
            weight = np.exp(lam * (grid - mode.anchor))
            vals = np.where(b == 0.0, 0.0, b * weight)
            dvals = np.where(db == 0.0, 0.0, db * weight)
        total += float(np.trapezoid(vals * vals, grid))
        dtotal += float(np.trapezoid(dvals * dvals, grid))
    return math.sqrt(total) + math.sqrt(dtotal)


def sweep_oracle(params_grid, amplitudes):
    """The rows of ``estimate_sweep``, one neck solve and two norms per row.

    eta_minus = amplitude * (mode -1) on the pos_hyperbolic(0.5) spectrum;
    a zero amplitude is the zero end.
    """
    spectrum = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 1)
    lam = min(spectrum.eigenvalue(1), abs(spectrum.eigenvalue(-1)))
    rows = []
    for params in params_grid:
        for amp in amplitudes:
            eta_plus = NeckField.zero(spectrum, params)
            eta_minus = NeckField.end_from_below(spectrum, params, {-1: amp} if amp else {})
            psi_plus, psi_minus = solve_neck(eta_plus, eta_minus)
            plus_norm = psi_plus.star_norm()
            minus_norm = psi_minus.star_norm()
            denom = (math.exp(-lam * params.T) + minus_norm) / params.r
            ratio = plus_norm / denom if denom > 0 else 0.0
            rows.append(SweepRow(params, amp, plus_norm, minus_norm, ratio))
    return rows


def fd_selection_oracle(kind, grid_size, count):
    """The FD modes ``numeric_spectrum`` must choose, from eigh over all n/4 blocks.

    The balanced rule: ``count // 2`` negative eigenvalues closest to zero
    and ``count - count // 2`` nonnegative ones, a sign short of modes
    giving its remainder to the other; one stable sort per sign, ties in
    (block, column, part) order.  Returns the indices, the eigenvalues,
    the frequency m of each chosen block, each mode's grid samples:
    Re (part 0) or Im (part 1) of e^{2 pi i m t} u at t = j/n, scaled to
    unit discrete L^2, with u at m = 0 turned so its largest entry is
    real and positive; and each mode as the coefficients (A, B) of
    A cos(2 pi m t) + B sin(2 pi m t) under the same scale.
    """
    n = grid_size
    freqs = np.arange(n) + (0.5 if kind.antiperiodic else 0.0)
    freqs = freqs[freqs < n / 4]
    sigma = np.sin(2.0 * math.pi * freqs / n) * n
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    vals, vecs = np.linalg.eigh(-1j * sigma[:, None, None] * j0 - kind.s_matrix())
    modes = [
        (b, c, p)
        for b in range(len(freqs))
        for c in range(2)
        for p in range(2)
        if freqs[b] != 0 or p == 0
    ]
    neg = sorted((m for m in modes if vals[m[:2]] < 0), key=lambda m: -vals[m[:2]])
    pos = sorted((m for m in modes if vals[m[:2]] >= 0), key=lambda m: vals[m[:2]])
    take_neg = min(len(neg), count // 2)
    take_pos = min(len(pos), count - take_neg)
    take_neg = min(len(neg), count - take_pos)
    chosen = neg[:take_neg][::-1] + pos[:take_pos]
    ts = np.arange(n) / n
    samples, loops = [], []
    for b, c, p in chosen:
        u = vecs[b, :, c]
        if freqs[b] == 0:
            big = u[np.argmax(np.abs(u))]
            u = u * np.conj(big) / abs(big)
        z = np.exp(2j * math.pi * freqs[b] * ts)[:, None] * u
        f = z.imag if p else z.real
        scale = math.sqrt(n) / np.linalg.norm(f)
        samples.append(f * scale)
        # Re e^{i theta} u = a cos - b sin, Im e^{i theta} u = b cos + a sin
        coeffs = (u.imag, u.real) if p else (u.real, -u.imag)
        loops.append(tuple(x * scale for x in coeffs))
    indices = list(range(-take_neg, 0)) + list(range(1, take_pos + 1))
    lams = [float(vals[m[:2]]) for m in chosen]
    return indices, lams, [freqs[m[0]] for m in chosen], samples, loops


def direct_limit_oracle(stages, maps):
    """``dims_by_stage`` of :func:`cylcc.complexes.direct_limit`, stage by stage.

    Per grading g, the maps after stage i compose to its map to the last
    stage, which pushes stage i's cycles (the kernel of its block g, all
    of C_g when the block is absent) there; the image of H_g(stage i) has
    the rank of [pushed cycles | last boundaries] less that of the
    boundaries.
    """

    def dense(block, nrows, ncols):
        if block is None:
            return sympy.zeros(nrows, ncols)
        return sympy.Matrix(nrows, ncols, lambda i, j: sympy.Rational(block[i][j]))

    last = stages[-1]
    dims = {}
    for g in sorted({g for cx in stages for g in cx.gradings}):
        to_last = [sympy.eye(last.dim(g))]
        for phi, source in reversed(list(zip(maps, stages[:-1]))):
            block = dense(phi.blocks.get(g), phi.target.dim(g), source.dim(g))
            to_last.insert(0, to_last[0] * block)
        boundaries = dense(last.blocks.get(g + 1), last.dim(g), last.dim(g + 1))
        dims[g] = {}
        for i, (cx, push) in enumerate(zip(stages, to_last), start=1):
            cycles = dense(cx.blocks.get(g), cx.dim(g - 1), cx.dim(g)).nullspace()
            pushed = push * sympy.Matrix.hstack(sympy.zeros(cx.dim(g), 0), *cycles)
            dims[g][i] = sympy.Matrix.hstack(pushed, boundaries).rank() - boundaries.rank()
    return dims
