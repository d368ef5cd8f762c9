"""Evaluation-map geometry at cylinder ends.

A curve end contributes Fourier coefficients (c_1, ..., c_k) against the
positive eigenmodes of the asymptotic operator.  The translation flow
acts by c_i -> c_i e^{lambda_i s}, and nonzero coefficient vectors
descend to the sphere S^{k-1}: each flow line meets the radius-r sphere
exactly once since <c'(s), c(s)> > 0.

Synthetic evaluation maps (trigonometric polynomials into R^k minus the
origin, k = 2 or 3) stand in for moduli spaces with their evaluation
maps; derivatives are exact, so pole preimages, meridian crossings, and
the zero locus of the linearized obstruction section can all be checked
against brute-force scans.

Each ``TrigPolynomial`` carries bounds on the max-norm Lipschitz
constants of f and of its gradient, sum |amp| 2 pi |m|_1 and
sum |amp| (2 pi |m|_1)^2 over its harmonics.  numpy has no directed
rounding, so as a stand-in every bound carries a relative slack of 1e-9
and every computed value an absolute slack of
1e-12 (|const| + sum |amp|).

Pole preimages and meridian crossings are common zeros of all but one
component, found on the circle and on the torus by one certified cell
search (``_cell_zeros``): a cell is excluded when some component is
bounded away from zero on it, damped Newton runs from the cells that
remain, each root it finds is certified by a Kantorovich ball whose
uniqueness radius accounts for the cells it covers, and every other cell
is subdivided, down to ``_MAX_DEPTH`` levels.  A cell still uncertified
there raises DegeneracyError; no cell is dropped without a reason.
``pole_preimages`` also checks the degree identity: the signed counts
over the two poles must agree.  The zero locus of s0 is found
independently: on the circle by a sign-change scan whose brackets are
refined together (``_refine_brackets``, which also solves the flow
normalization), on the torus by subdividing closed cells held as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, ValidationError

TWO_PI = 2.0 * math.pi

# Stand-ins for directed rounding: every Lipschitz or norm bound is
# inflated by REL_SLACK, every computed value is trusted only to within
# ABS_SLACK times the sum of the magnitudes it was summed from.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12

# Levels of subdivision below the seed grid before the cell search gives
# up on a cell: cells there are 2^-_MAX_DEPTH of a seed cell wide.
_MAX_DEPTH = 10

# The origin check samples _ORIGIN_GRID points per axis and screens them in
# blocks of _ORIGIN_BLOCK points per axis; the block size divides the grid.
_ORIGIN_GRID = 256
_ORIGIN_BLOCK = 8


@dataclass(frozen=True)
class EndExpansion:
    """Leading Fourier data of an end: eigenvalues and coefficients."""

    lambdas: Tuple[float, ...]
    coeffs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.lambdas) != len(self.coeffs):
            raise ValidationError("lambdas and coeffs must have equal length")
        if len(self.lambdas) < 1:
            raise ValidationError("an end expansion needs at least one mode")
        if not all(math.isfinite(x) for x in (*self.lambdas, *self.coeffs)):
            raise ValidationError("end expansion data must be finite")
        if any(l <= 0 for l in self.lambdas):
            raise ValidationError("end expansions use positive eigenvalues only")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValidationError("eigenvalues must be nondecreasing")

    @property
    def k(self) -> int:
        return len(self.lambdas)


def flow_normalize(e: EndExpansion, radius: float = 1.0) -> np.ndarray:
    """The unique point of |c(s)| = radius along the translation flow.

    log |c(s)|^2 - log radius^2 increases in s, with slope between the
    least and the greatest 2 lambda_i of a nonzero c_i, so Newton steps
    on it are close to exact.  Its zero is bracketed by doubling steps
    from s = 0 and refined by ``_refine_brackets`` to the tolerance
    1e-15 + 8.9e-16 |s|.
    """
    if not math.isfinite(radius) or radius <= 0:
        raise DomainError("radius must be finite and positive")
    c = np.asarray(e.coeffs, dtype=float)
    lam = np.asarray(e.lambdas, dtype=float)
    if not np.any(c != 0.0):
        raise DomainError("zero coefficient vector has an undefined quotient")
    log_weight = np.log(c[c != 0.0] ** 2)
    rate = 2.0 * lam[c != 0.0]

    def log_gap(s):
        exponent = log_weight + rate * np.reshape(s, (-1, 1))
        top = exponent.max(axis=1)
        terms = np.exp(exponent - top[:, None])
        total = terms.sum(axis=1)
        return np.log(total) + top - 2.0 * math.log(radius), (terms @ rate) / total

    lo = hi = 0.0
    step = 1.0
    while log_gap(lo)[0][0] > 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while log_gap(hi)[0][0] < 0.0:
        hi += step
        step *= 2.0
    s_star = _refine_brackets(log_gap, [lo], [hi], xtol=1e-15, rtol=8.9e-16)[0]
    return c * np.exp(lam * s_star)


def s0_eval(T: float, e: EndExpansion) -> np.ndarray:
    """Entries e^{-2 lambda_i T} c_i of the linearized obstruction section.

    Only the first k-1 coefficients enter: the last cokernel element is
    quotiented out.
    """
    if not math.isfinite(T) or T <= 0:
        raise DomainError("the gluing parameter T must be finite and positive")
    if e.k < 2:
        raise ValidationError("s0 needs k >= 2 modes")
    lam = np.asarray(e.lambdas[:-1], dtype=float)
    c = np.asarray(e.coeffs[:-1], dtype=float)
    return np.exp(-2.0 * lam * T) * c


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trigonometric polynomial in ``nvars`` circle variables.

    Terms are (kind, orders, value) with kind "const", "cos", or "sin";
    a cos/sin term contributes value * cos/sin(2 pi orders . theta).
    Values must be finite.

    At construction the terms are also gathered by order.  The cos and
    sin coefficients a, b of one order m combine into one harmonic
    a cos(phi) + b sin(phi) = r sin(phi + delta), phi = 2 pi m . theta,
    where r = +-hypot(a, b) takes the sign of b.  A pure sine thus keeps
    delta = 0 and vanishes exactly where phi = 0.  f costs one sin per
    distinct order, and f with its gradient one sin and one cos.

    Three bounds come with it, for any x, y in R^nvars:

    * ``lipschitz`` >= sum |r| 2 pi |m|_1, so
      |f(x) - f(y)| <= lipschitz |x - y|_max and |grad f|_1 <= lipschitz;
    * ``grad_lipschitz`` >= sum |r| (2 pi |m|_1)^2, so
      |grad f(x) - grad f(y)|_1 <= grad_lipschitz |x - y|_max;
    * ``abs_slack`` = ABS_SLACK (|const| + sum |r|), the error allowed
      in a computed value of f.

    Both Lipschitz bounds are inflated by the relative slack REL_SLACK.
    """

    nvars: int
    terms: Tuple[Tuple[str, Tuple[int, ...], float], ...]
    _orders: np.ndarray = field(init=False, repr=False, compare=False)
    _amp: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.ndarray = field(init=False, repr=False, compare=False)
    _const: float = field(init=False, repr=False, compare=False)
    lipschitz: float = field(init=False, repr=False, compare=False)
    grad_lipschitz: float = field(init=False, repr=False, compare=False)
    abs_slack: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        const = 0.0
        for kind, orders, value in self.terms:
            if kind not in ("const", "cos", "sin"):
                raise ValidationError(f"unknown term kind {kind!r}")
            if len(orders) != self.nvars:
                raise ValidationError("term order tuple has wrong arity")
            if not math.isfinite(value):
                raise ValidationError(f"term value {value} is not finite")
            if kind == "const":
                const += value
            else:
                a, b = coeffs.get(tuple(orders), (0.0, 0.0))
                coeffs[tuple(orders)] = (a + value, b) if kind == "cos" else (a, b + value)
        a, b = np.array(list(coeffs.values())).reshape(len(coeffs), 2).T
        sign = np.where(b < 0.0, -1.0, 1.0)
        orders = np.array(list(coeffs), dtype=float).reshape(len(coeffs), self.nvars)
        amp = np.hypot(a, b)
        spread = TWO_PI * np.abs(orders).sum(axis=1)
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "_amp", sign * amp)
        object.__setattr__(self, "_shift", np.arctan2(sign * a, sign * b))
        object.__setattr__(self, "_const", const)
        object.__setattr__(self, "lipschitz", (1.0 + REL_SLACK) * float(amp @ spread))
        object.__setattr__(self, "grad_lipschitz", (1.0 + REL_SLACK) * float(amp @ spread**2))
        object.__setattr__(self, "abs_slack", ABS_SLACK * (abs(const) + float(amp.sum())))

    def _phases(self, theta) -> np.ndarray:
        """phi + delta, one row per distinct order and one column per point."""
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        return TWO_PI * (self._orders @ theta.T) + self._shift[:, None]

    def __call__(self, theta) -> np.ndarray:
        return self._const + self._amp @ np.sin(self._phases(theta))

    def value_and_grad(self, theta) -> Tuple[np.ndarray, np.ndarray]:
        """f and its gradient (one row per point) from one sin/cos pass."""
        phases = self._phases(theta)
        value = self._const + self._amp @ np.sin(phases)
        grad = (TWO_PI * self._orders.T) @ (self._amp[:, None] * np.cos(phases))
        return value, grad.T

    @classmethod
    def zero(cls, nvars: int) -> "TrigPolynomial":
        return cls(nvars, ())


class _ComponentMap:
    """Evaluation through ``components`` and the flow quotient by ``lambdas``."""

    def evaluate(self, theta) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        return np.column_stack([comp(theta) for comp in self.components])

    def expansion_at(self, theta) -> EndExpansion:
        values = self.evaluate(np.atleast_2d(theta))[0]
        return EndExpansion(tuple(self.lambdas), tuple(float(v) for v in values))

    def normalized(self, theta, radius: float = 1.0) -> np.ndarray:
        return flow_normalize(self.expansion_at(theta), radius)


@dataclass(frozen=True)
class EvMapSpec(_ComponentMap):
    """Synthetic order-k evaluation map on a circle (k=2) or torus (k=3).

    ``components`` are the k coordinate functions into R^k; the image
    must avoid the origin: |F| >= 1e-9 on the ``_ORIGIN_GRID`` = 256-point
    grid per axis.
    The check is screened in blocks of 8 points per axis.  With
    L_F = |(L_1, ..., L_k)|_2 from the components' ``lipschitz`` bounds
    and r the max-norm distance from a block's centre c to its farthest
    grid point, a block is skipped when |F(c)| - L_F r - s_F >= 1e-9,
    s_F being the components' ``abs_slack`` combined the same way; the
    grid points of the other blocks are evaluated.  The verdict is that
    of the dense grid.  ``lambdas`` are the finite positive eigenvalues
    weighting the flow quotient. ``singular_params`` declares parameter
    points whose images a generic meridian must avoid.
    """

    k: int
    components: Tuple[TrigPolynomial, ...]
    lambdas: Tuple[float, ...]
    orientation: int = 1
    singular_params: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.k not in (2, 3):
            raise ValidationError("evaluation maps are implemented for k in {2, 3}")
        if len(self.components) != self.k:
            raise ValidationError("need one component per target coordinate")
        if any(c.nvars != self.nvars for c in self.components):
            raise ValidationError("component arity must match the domain dimension")
        if len(self.lambdas) != self.k:
            raise ValidationError("need one eigenvalue per component")
        if any(not math.isfinite(l) or l <= 0 for l in self.lambdas):
            raise ValidationError("flow eigenvalues must be finite and positive")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValidationError("flow eigenvalues must be nondecreasing")
        if self.orientation not in (1, -1):
            raise ValidationError("orientation flag must be +1 or -1")
        n = _ORIGIN_GRID
        half = (_ORIGIN_BLOCK - 1) / (2.0 * n)
        centres = _param_grid(self.nvars, n // _ORIGIN_BLOCK) + half
        lip = math.hypot(*(c.lipschitz for c in self.components))
        slack = math.hypot(*(c.abs_slack for c in self.components))
        margin = np.linalg.norm(self.evaluate(centres), axis=1) - lip * half - slack
        corners = centres[margin < 1e-9] - half
        offsets = _param_grid(self.nvars, _ORIGIN_BLOCK) * (_ORIGIN_BLOCK / n)
        points = (corners[:, None, :] + offsets).reshape(-1, self.nvars)
        if np.any(np.linalg.norm(self.evaluate(points), axis=1) < 1e-9):
            dense = self.evaluate(_param_grid(self.nvars, n))
            closest = float(np.min(np.linalg.norm(dense, axis=1)))
            raise ValidationError(
                f"map image approaches the origin (min |F| = {closest:.2e})"
            )

    @property
    def nvars(self) -> int:
        return self.k - 1


def _param_grid(nvars: int, n: int) -> np.ndarray:
    axes = [np.arange(n) / n for _ in range(nvars)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _axis_index(spec: EvMapSpec, pole_choice: str) -> int:
    if pole_choice == "last_coordinate":
        return spec.k - 1
    if pole_choice == "first_coordinate":
        return 0
    raise ValidationError("pole_choice must be last_coordinate or first_coordinate")


@dataclass(frozen=True)
class PolePreimage:
    params: Tuple[float, ...]
    pole: int  # +1 for the positive pole on the axis, -1 for the negative
    sign: int  # local orientation sign


def _refine_brackets(func, lo, hi, xtol: float, rtol: float = 0.0) -> np.ndarray:
    """Zeros of ``func`` in the brackets [lo_i, hi_i], refined all at once.

    ``func`` maps an array of points to their values and slopes; the
    values at the two ends of a bracket must not have the same strict
    sign.  Each round calls ``func`` once, at two points per live
    bracket: its midpoint, and the Newton point from the end with the
    smaller |value| (the midpoint again when that point is not in the
    bracket).  A Newton point closer than tol/2 to an end is moved to
    tol/2 inside it, so Newton converging from one side still closes the
    bracket.  The bracket becomes the first of the pieces between these
    points whose ends change sign, so it at least halves every round.
    A bracket stops when its width is at most tol = xtol + rtol |midpoint|,
    when an end is an exact zero, or when its midpoint no longer splits
    it in floating point.

    Returns the exact zeros found, and otherwise the secant point of the
    final bracket.
    """
    # state[q, side, i]: point, value and slope (q) at each end (side) of bracket i
    ends = np.array([lo, hi], dtype=float)
    values, slopes = func(ends.ravel())
    state = np.stack([ends, values.reshape(2, -1), slopes.reshape(2, -1)])
    out = np.empty(state.shape[2])
    live = np.arange(state.shape[2])
    while True:
        (a, b), (fa, fb) = state[0], state[1]
        width = b - a
        mid = a + 0.5 * width
        tol = xtol + rtol * np.abs(mid)
        going = (fa != 0.0) & (fb != 0.0) & (width > tol) & (mid > a) & (mid < b)
        if not going.all():
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                secant = a - fa * (width / (fb - fa))
            stop = ~going
            out[live[stop]] = np.where(fa == 0.0, a, np.where(fb == 0.0, b, secant))[stop]
            state, live, mid, tol = state[:, :, going], live[going], mid[going], tol[going]
            if not live.size:
                return out
        (a, b), (fa, fb), (ga, gb) = state
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = np.where(np.abs(fa) <= np.abs(fb), a - fa / ga, b - fb / gb)
        x = np.where((x >= a) & (x <= b), x, mid)
        x = np.minimum(np.maximum(x, a + 0.5 * tol), b - 0.5 * tol)
        inner = np.stack([np.minimum(x, mid), np.maximum(x, mid)])
        values, slopes = func(inner.ravel())
        probes = np.stack([inner, values.reshape(2, -1), slopes.reshape(2, -1)])
        cand = np.concatenate([state[:, :1], probes, state[:, 1:]], axis=1)
        piece = (np.sign(cand[1, 1:]) != np.sign(cand[1, :-1])).argmax(axis=0)
        state = cand[:, [piece, piece + 1], np.arange(live.size)]


def _linearize(comps, x: np.ndarray):
    """F, the adjugate of J and det J for n = len(comps) in {1, 2} at the points ``x``.

    The points run along the last axis: F is (n, m), adj (n, n, m) and
    det (m,), so J^-1 = adj / det.  For n = 1, adj = 1 and det J = f'; for
    n = 2, J = [[a, b], [c, d]] has adj = [[d, -b], [-c, a]] and
    det J = ad - bc.
    """
    (v1, g1), *rest = (f.value_and_grad(x) for f in comps)
    if not rest:
        return v1[None], np.ones((1, 1, 1)), g1[:, 0]
    ((v2, g2),) = rest
    (a, b), (c, d) = g1.T, g2.T
    return np.array([v1, v2]), np.array([[d, -b], [-c, a]]), a * d - b * c


def _damped_newton(comps, theta: np.ndarray, newton_steps: int):
    """Damped Newton for the common zeros of ``comps`` from each row of ``theta``.

    Steps are shortened to length 0.25 when longer.  Only active points
    are iterated, for at most ``newton_steps`` steps.  A point leaves the
    active set when its Newton step is at most 1e-12 (it has converged)
    or when its Jacobian determinant is below 1e-14 in magnitude (it is
    lost).  Returns the end points and the mask of points not lost.
    """
    theta = theta.copy()
    singular = np.zeros(len(theta), dtype=bool)
    active = np.arange(len(theta))
    for _ in range(newton_steps):
        if not active.size:
            break
        t = theta[active]
        values, adj, det = _linearize(comps, t)
        bad = np.abs(det) < 1e-14
        det[bad] = 1.0
        step = (adj * values).sum(axis=1) / det  # one row per coordinate
        norm = np.sqrt((step * step).sum(axis=0))
        theta[active] = t - (step * (0.25 / np.maximum(norm, 0.25))).T  # damped
        singular[active[bad]] = True
        active = active[~bad & (norm > 1e-12)]
    return theta, ~singular


def _kantorovich(comps, x: np.ndarray):
    """Kantorovich balls for the common zeros of ``comps`` near the points ``x``.

    In the max norm, with beta >= |J(x)^-1|, eta >= |J(x)^-1 F(x)| and
    K = max(grad_lipschitz) bounding the Lipschitz constant of J, a
    point with h = beta K eta < 1/2 has a zero within
    t* = 2 eta / (1 + sqrt(1 - 2h)) of it, and that zero is the only one
    closer than t** = (1 + sqrt(1 - 2h)) / (beta K).  With J^-1 = adj / det,
    beta is the largest absolute row sum of adj over |det| and eta the
    largest |adj F| over |det|.  beta and eta carry the relative slack,
    eta also the components' absolute slack, and t** is shrunk by the
    relative slack.  A point is certified when also every |f_i| < 1e-10
    there (the residual test of an accepted root) and its Jacobian
    determinant is at least 1e-14 in magnitude.

    Returns (certified mask, t*, t**); the radii are meaningful only
    where the mask is set.
    """
    values, adj, det = _linearize(comps, x)
    ok = (np.abs(det) >= 1e-14) & (np.abs(values) < 1e-10).all(axis=0)
    det = np.where(ok, np.abs(det), 1.0)
    beta = (1.0 + REL_SLACK) * np.abs(adj).sum(axis=1).max(axis=0) / det
    step = np.abs((adj * values).sum(axis=1)).max(axis=0) / det
    eta = (1.0 + REL_SLACK) * step + beta * max(f.abs_slack for f in comps)
    lip = max(f.grad_lipschitz for f in comps)
    h = beta * lip * eta
    ok &= h < 0.5
    root = np.sqrt(np.where(ok, 1.0 - 2.0 * h, 1.0))
    exist = (1.0 + REL_SLACK) * 2.0 * eta / (1.0 + root)
    unique = (1.0 - REL_SLACK) * (1.0 + root) / (beta * lip)
    return ok, exist, unique


def _cell_zeros(comps, n_cells: int, newton_steps: int = 60):
    """Common zeros of n = len(comps) trig polynomials on R^n / Z^n, n = 1 or 2.

    A certified cell search.  It starts from the n_cells^n cells of
    max-norm radius r = 1/(2 n_cells) centred on the grid points
    (i_1, ..., i_n) / n_cells.  At each level:

    * a cell with centre c is excluded when |f_i(c)| > L_i r + s_i for
      some i (L_i the ``lipschitz`` bound, s_i the ``abs_slack``), as
      f_i then has no zero on it;
    * a cell inside the uniqueness ball of a certified root is covered;
    * damped Newton runs from the centres of the remaining cells, and
      each end point that passes ``_kantorovich`` certifies a root.  A
      root whose existence ball lies inside the uniqueness ball of a
      known root is that root, one whose existence ball is disjoint
      from those of every known root is new, and an end point that is
      neither is not used.  Cells the new balls cover are dropped;
    * every other cell is split into 2^n of radius r/2.

    After ``_MAX_DEPTH`` splits the cells still left are uncertified:
    each may hold a zero that no ball accounts for.

    Returns (sorted roots as n-tuples, cells excluded, uncertified
    cells), each uncertified cell as its box, one (lo, hi) per coordinate.
    """
    nvars = len(comps)
    cells = _param_grid(nvars, n_cells)
    half = 0.5 / n_cells
    known = np.zeros((0, nvars + 2))  # certified roots as rows (x..., t*, t**)
    excluded = 0

    def uncovered(cells, half):
        far = _torus_distance(cells[:, None, :], known[None, :, :nvars]) + half >= known[:, -1]
        return cells[far.all(axis=1)]

    for depth in range(_MAX_DEPTH + 1):
        zero_free = np.zeros(len(cells), dtype=bool)
        for f in comps:
            zero_free |= np.abs(f(cells)) > f.lipschitz * half + f.abs_slack
        excluded += int(zero_free.sum())
        cells = uncovered(cells[~zero_free], half)
        if not cells.size:
            break
        ends, live = _damped_newton(comps, cells, newton_steps)
        ends = np.mod(ends[live], 1.0)
        ok, t_exist, t_unique = _kantorovich(comps, ends)
        balls = np.column_stack([ends, t_exist, t_unique])[ok]
        while len(balls):
            dist = _torus_distance(balls[:, None, :nvars], known[None, :, :nvars])
            balls = balls[~(dist + balls[:, -2:-1] < known[:, -1]).any(axis=1)]
            if len(balls) and np.all(
                _torus_distance(known[:, :nvars], balls[0, :nvars]) > known[:, -2] + balls[0, -2]
            ):
                known = np.vstack([known, balls[:1]])
            balls = balls[1:]
        cells = uncovered(cells, half)
        if not cells.size or depth == _MAX_DEPTH:
            break
        half /= 2.0
        children = (4.0 * _param_grid(nvars, 2) - 1.0) * half  # offsets +-half per axis
        cells = (cells[:, None, :] + children).reshape(-1, nvars)
    uncertified = [tuple((x - half, x + half) for x in c) for c in np.mod(cells, 1.0).tolist()]
    return sorted(tuple(p) for p in known[:, :nvars].tolist()), excluded, uncertified


def _torus_distance(a, b) -> np.ndarray:
    """Max-coordinate distance on R^n / Z^n over the last axis (broadcasts)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d).max(axis=-1)


def _torus_dedup(points: np.ndarray) -> List[Tuple[float, ...]]:
    """Keep the first point, drop every point within 1e-7 of it, repeat."""
    out = []
    while len(points):
        out.append(tuple(points[0].tolist()))
        points = points[_torus_distance(points, points[0]) >= 1e-7]
    return out


def _signed_preimages(spec: EvMapSpec, axis: int, poles, n_scan, n_grid, degeneracy_tol):
    """Preimages of the poles ``poles`` (+1, -1 or both) on ``axis``, with local signs.

    They are the common zeros of the other components, found by
    ``_cell_zeros`` from ``n_scan`` cells on the circle or ``n_grid``
    cells per axis on the torus; the sign of component ``axis`` at a zero
    names its pole.  A kept preimage must be transverse, |det J| >=
    ``degeneracy_tol``, and its sign is that of det J, corrected for the
    place of ``axis`` and the pole and by ``spec.orientation``.

    Returns the preimages sorted by parameter, and the search line
    "cells excluded, roots certified, cells uncertified" for messages.
    """
    comps = [c for j, c in enumerate(spec.components) if j != axis]
    params, excluded, uncertified = _cell_zeros(comps, (n_scan, n_grid)[spec.nvars - 1])
    search = (
        f"{excluded} cells excluded, {len(params)} roots certified, "
        f"{len(uncertified)} cells uncertified"
    )
    if uncertified:
        named = ", ".join(
            " x ".join(f"[{lo:.12g}, {hi:.12g}]" for lo, hi in box) for box in uncertified[:4]
        )
        raise DegeneracyError(
            f"cell search left {len(uncertified)} cells uncertified after "
            f"{_MAX_DEPTH} subdivisions, among them {named} ({search})",
            where=tuple((lo + hi) / 2.0 for lo, hi in uncertified[0]),
        )
    theta = np.array(params, dtype=float).reshape(len(params), spec.nvars)
    dets = _linearize(comps, theta)[2].tolist()
    out = []
    for p, det, value in zip(params, dets, spec.components[axis](theta).tolist()):
        pole = 1 if value > 0 else -1
        if pole not in poles:
            continue
        if abs(det) < degeneracy_tol:
            raise DegeneracyError(
                f"preimage at {p} of the {pole:+d} pole on axis {axis} is not "
                f"transverse (|det J| = {abs(det):.2e})",
                where=p,
            )
        # [pole e_axis ^ e_{j_1} ^ ...] = pole (-1)^axis [e_1 ^ ... ^ e_k]
        sign = pole * (-1) ** axis * (1 if det > 0 else -1) * spec.orientation
        out.append(PolePreimage(params=p, pole=pole, sign=sign))
    return out, search


def pole_preimages(
    spec: EvMapSpec,
    pole_choice: str = "last_coordinate",
    n_scan: int = 8192,
    n_grid: int = 96,
    degeneracy_tol: float = 1e-8,
) -> List[PolePreimage]:
    """All preimages of the two poles on the chosen axis, with local signs.

    A preimage of (0,..,0,+-1) (axis = last) is a common zero of the
    remaining components; the flow normalization rescales coordinates by
    positive factors, so the zero set and the Jacobian sign at each root
    are unaffected by the eigenvalue weights.

    The preimages come from the certified cell search of ``_cell_zeros``,
    seeded with ``n_scan`` cells on the circle and ``n_grid`` x ``n_grid``
    cells on the torus: each preimage is the centre of a Kantorovich ball
    holding exactly one zero, and every other cell is excluded by the
    components' Lipschitz bounds or covered by a ball.  A cell still
    uncertified after ``_MAX_DEPTH`` subdivisions (near a degenerate or
    nearly double root) raises DegeneracyError naming the cells, and so
    does a preimage with |det J| < ``degeneracy_tol``.

    Both poles are regular values, so the signed count over each equals
    the degree.  The two counts are compared as a cross-check of the
    search: when they differ a preimage was lost, and DegeneracyError
    names both counts and the search line "cells excluded, roots
    certified, cells uncertified".
    """
    axis = _axis_index(spec, pole_choice)
    out, search = _signed_preimages(spec, axis, (1, -1), n_scan, n_grid, degeneracy_tol)
    north = sum(r.sign for r in out if r.pole == 1)
    south = sum(r.sign for r in out if r.pole == -1)
    if north != south:
        raise DegeneracyError(
            f"degree certificate failed: signed count {north} over the + pole, "
            f"{south} over the - pole ({search})"
        )
    return out


@dataclass(frozen=True)
class MeridianPath:
    """Meridian arc from the positive to the negative pole of an axis.

    The arc runs through the point ``through_sign * e_through``; crossing
    queries are made at its midpoint (the equator point).
    """

    pole_axis: str = "last_coordinate"
    through: int = 0
    through_sign: int = 1

    def __post_init__(self):
        if self.through_sign not in (1, -1):
            raise ValidationError("through_sign must be +1 or -1")


@dataclass(frozen=True)
class Crossing:
    params: Tuple[float, ...]
    sign: int


@dataclass(frozen=True)
class ArcComponent:
    """One component of the preimage of the meridian (k = 2 only)."""

    start: float
    end: float
    start_pole: int
    end_pole: int
    start_sign: int
    end_sign: int
    net_crossing: int


@dataclass(frozen=True)
class PathIntersections:
    crossings: Tuple[Crossing, ...]
    components: Tuple[ArcComponent, ...] = ()

    @property
    def total_signed(self) -> int:
        return sum(c.sign for c in self.crossings)


def path_intersections(
    spec: EvMapSpec,
    path: MeridianPath = MeridianPath(),
    n_scan: int = 8192,
    n_grid: int = 96,
    degeneracy_tol: float = 1e-8,
) -> PathIntersections:
    """Signed crossings of the normalized map through the meridian midpoint.

    The midpoint of the meridian is the equator point ``s * e_through``;
    its preimages are transverse intersections of the image with the arc,
    signed by the local degree.  They are the preimages of the pole
    ``through_sign`` on axis ``through``, found and certified by the same
    cell search as in ``pole_preimages`` (``n_scan`` seed cells on the
    circle, ``n_grid`` per axis on the torus).  For k = 2 the components
    of the arc preimage are reported as well, with their endpoint pole
    data.
    """
    axis = _axis_index(spec, path.pole_axis)
    if path.through == axis or not 0 <= path.through < spec.k:
        raise ValidationError("the meridian must pass through a distinct axis")
    for p in spec.singular_params:
        image = spec.normalized(np.asarray(p))
        on_plane = all(
            abs(image[j]) < 1e-9
            for j in range(spec.k)
            if j not in (axis, path.through)
        )
        if on_plane and image[path.through] * path.through_sign > -1e-9:
            raise ValidationError(
                f"declared singular image at parameters {p} lies on the meridian"
            )

    kept, _ = _signed_preimages(
        spec, path.through, (path.through_sign,), n_scan, n_grid, degeneracy_tol
    )
    crossings = [Crossing(p.params, p.sign) for p in kept]

    components: Tuple[ArcComponent, ...] = ()
    if spec.nvars == 1:
        components = tuple(_arc_components(spec, path, crossings, n_scan, degeneracy_tol))
    return PathIntersections(crossings=tuple(crossings), components=components)


def _arc_components(spec, path, crossings, n_scan, degeneracy_tol):
    """Components of {theta : normalized image on the chosen half circle}."""
    poles = pole_preimages(
        spec,
        path.pole_axis,
        n_scan=n_scan,
        degeneracy_tol=degeneracy_tol,
    )
    if not poles:
        return []
    through = spec.components[path.through]
    out = []
    for a, b in zip(poles, poles[1:] + poles[:1]):
        lo = a.params[0]
        hi = b.params[0] if b.params[0] > lo else b.params[0] + 1.0
        mid = (lo + hi) / 2.0
        inside = float(through(np.array([[mid % 1.0]]))[0]) * path.through_sign
        if inside <= 0:
            continue
        net = sum(
            c.sign
            for c in crossings
            if lo < c.params[0] < hi or lo < c.params[0] + 1.0 < hi
        )
        out.append(
            ArcComponent(
                start=lo,
                end=hi % 1.0,
                start_pole=a.pole,
                end_pole=b.pole,
                start_sign=a.sign,
                end_sign=b.sign,
                net_crossing=net,
            )
        )
    return out


@dataclass(frozen=True)
class ZeroLocusMismatch:
    T: float
    parameter: Tuple[float, ...]
    reason: str


@dataclass(frozen=True)
class ZeroLocusReport:
    ok: bool
    mismatches: Tuple[ZeroLocusMismatch, ...]

    def __bool__(self):
        return self.ok


def s0_zero_locus_check(
    spec: EvMapSpec,
    T_grid: Sequence[float],
    pole_choice: str = "last_coordinate",
    tol: float = 1e-8,
    n_scan: int = 4096,
    n_cells: int = 128,
) -> ZeroLocusReport:
    """Zeros of the linearized section versus pole preimages, per T.

    The zero finder works directly on the scaled section values: on the
    circle by a sign-change scan of ``n_scan`` points, on the torus by
    subdivision of ``n_cells`` x ``n_cells`` closed cells, keeping every
    cell on which both components take both signs.  It is independent of
    the certified cell search, with its Lipschitz exclusion and
    Kantorovich balls, that locates the pole preimages on both domains.
    Those are found at the default resolution of ``pole_preimages``, so
    a map with an uncertified cell raises DegeneracyError here as there.
    """
    if pole_choice != "last_coordinate":
        raise ValidationError(
            "the linearized section quotients by the last cokernel element; "
            "use last_coordinate poles"
        )
    poles = pole_preimages(spec, pole_choice)
    pole_params = np.array([p.params for p in poles]).reshape(len(poles), spec.nvars)
    mismatches: List[ZeroLocusMismatch] = []
    for T in T_grid:
        if spec.nvars == 1:
            zeros = _scan_zeros_circle(spec, float(T), n_scan)
        else:
            zeros = _scan_zeros_torus(spec, float(T), n_cells)
        matched = np.zeros(len(poles), dtype=bool)
        for z in zeros:
            near = np.flatnonzero(_torus_distance(pole_params, z) < tol)
            if near.size:
                matched[near[0]] = True
            else:
                mismatches.append(
                    ZeroLocusMismatch(float(T), tuple(z), "zero without pole preimage")
                )
        mismatches.extend(
            ZeroLocusMismatch(
                float(T), tuple(pole_params[i]), "pole preimage missed by zeros"
            )
            for i in np.flatnonzero(~matched)
        )
    return ZeroLocusReport(ok=not mismatches, mismatches=tuple(mismatches))


def _scan_zeros_circle(spec: EvMapSpec, T: float, n_scan: int) -> List[Tuple[float]]:
    """Zeros of the scaled section on the closed scan of ``n_scan`` + 1 points.

    Exact zero samples count as they are; every interval whose ends have
    opposite strict signs is refined by ``_refine_brackets`` to width
    1e-14.  Returns the zeros sorted and deduplicated by ``_torus_dedup``.
    """
    scale = math.exp(-2.0 * spec.lambdas[0] * T)
    comp = spec.components[0]

    def section(t):
        value, grad = comp.value_and_grad(t.reshape(-1, 1))
        return scale * value, scale * grad[:, 0]

    ts = np.arange(n_scan + 1) / n_scan
    vals = scale * comp(ts.reshape(-1, 1))
    a, b = vals[:-1], vals[1:]
    j = np.flatnonzero(np.sign(a) * np.sign(b) < 0.0)
    refined = _refine_brackets(section, ts[j], ts[j + 1], xtol=1e-14) if j.size else []
    zeros = np.concatenate([ts[:-1][a == 0.0], refined]) % 1.0
    return _torus_dedup(np.sort(zeros).reshape(-1, 1))


def _scan_zeros_torus(spec: EvMapSpec, T: float, n_cells: int) -> List[Tuple[float, float]]:
    """Common zeros of the scaled section by subdivision of closed cells.

    The cells of one level share their width h.  A cell is kept while
    both components take a value <= 0 and a value >= 0 on its 3x3 grid of
    samples h/2 apart, and is then split into four; once h < 1e-11 the
    centres of the kept cells are the zeros.

    Neighbouring cells share samples, so each level evaluates the
    lattice of half steps over blocks of cells once and reads every
    cell's 3x3 minimum and maximum from it.  The first level is one
    block of n_cells x n_cells cells, whose (2 n_cells)^2 lattice points
    wrap around the torus; every later level has one block of 2 x 2
    cells, with a 5 x 5 lattice, per cell kept before it.
    """
    scales = [math.exp(-2.0 * spec.lambdas[i] * T) for i in range(2)]
    corners, g, h, wrap = np.zeros((1, 2)), n_cells, 1.0 / n_cells, True
    while corners.size and h >= 1e-11:
        m = 2 * g if wrap else 2 * g + 1  # distinct lattice points per axis
        steps = np.arange(m) * (h / 2.0)
        px = ((corners[:, 0, None] + steps) % 1.0)[:, :, None]
        py = ((corners[:, 1, None] + steps) % 1.0)[:, None, :]
        points = np.stack(np.broadcast_arrays(px, py), axis=-1).reshape(-1, 2)
        axis = np.arange(2 * g + 1) % m
        hit = np.ones((len(corners), g, g), dtype=bool)
        for scale, comp in zip(scales, spec.components):
            lattice = (scale * comp(points)).reshape(-1, m, m)[:, axis][:, :, axis]
            for mask in (lattice <= 0.0, lattice >= 0.0):
                # cell (i, j) of a block reads rows 2i..2i+2 and columns 2j..2j+2
                rows = mask[:, :-2:2] | mask[:, 1:-1:2] | mask[:, 2::2]
                hit &= rows[:, :, :-2:2] | rows[:, :, 1:-1:2] | rows[:, :, 2::2]
        block, i, j = np.nonzero(hit)
        corners = corners[block] + np.column_stack([i, j]) * h
        g, h, wrap = 2, h / 2.0, False
    children = corners[:, None, :] + np.array([[0.0, 0.0], [0.0, h], [h, 0.0], [h, h]])
    centres = children.reshape(-1, 2) + h / 2.0
    order = np.lexsort((centres[:, 1], centres[:, 0]))
    return _torus_dedup(centres[order] % 1.0)


@dataclass(frozen=True)
class LiftedEvMap(_ComponentMap):
    """A spec pushed along a coordinate inclusion R^k -> R^{new_k}.

    The domain keeps its original dimension, so this is an evaluation
    object only: the image sits inside the big sphere but the lifted map
    is nowhere a local diffeomorphism onto it.
    """

    k: int
    components: Tuple[TrigPolynomial, ...]
    lambdas: Tuple[float, ...]


def lift_spec(
    spec: EvMapSpec,
    positions: Sequence[int],
    new_k: int,
    new_lambdas: Sequence[float],
) -> LiftedEvMap:
    """Embed a spec along coordinate inclusions R^k -> R^{new_k}.

    Models the covered-curve inclusion (x_1, 0, ..., 0, x_2, 0, ...);
    which slots receive the old coordinates is explicit input.
    """
    positions = list(positions)
    if len(positions) != spec.k:
        raise ValidationError("need one target slot per original component")
    if positions != sorted(positions) or len(set(positions)) != len(positions):
        raise ValidationError("target slots must be strictly increasing")
    if positions[0] < 0 or positions[-1] >= new_k:
        raise ValidationError("target slots out of range")
    lambdas = tuple(float(l) for l in new_lambdas)
    if len(lambdas) != new_k:
        raise ValidationError("need one eigenvalue per target coordinate")
    if any(not math.isfinite(l) or l <= 0 for l in lambdas):
        raise ValidationError("flow eigenvalues must be finite and positive")
    components = [TrigPolynomial.zero(spec.nvars)] * new_k
    for src, dst in enumerate(positions):
        components[dst] = spec.components[src]
    return LiftedEvMap(k=new_k, components=tuple(components), lambdas=lambdas)


def _fields(tokens, loc: str, allowed) -> dict:
    """``key=value`` tokens as a dict; only ``allowed`` keys, each at most once."""
    fields = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValidationError(f"{loc}: expected key=value, got {tok!r}")
        if key not in allowed:
            raise ValidationError(f"{loc}: unknown field {key!r}, expected one of {allowed}")
        if key in fields:
            raise ValidationError(f"{loc}: duplicate field {key!r}")
        fields[key] = value
    return fields


def parse_evmap(text: str, source_name: str = "<memory>") -> EvMapSpec:
    """Parse a trig-polynomial map file.

    Format::

        evmap k=<2|3> lambdas=<l1,l2[,l3]> [orientation=<1|-1>]
        term comp=<i> kind=<const|cos|sin> order=<m1[,m2]> value=<float>

    A record with a token that is not ``key=value``, an unknown or repeated
    key, or a term whose component is not in 0..k-1 or whose kind is not
    one of the three raises ValidationError naming its line.
    """
    header = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loc = f"{source_name}:{lineno}"
        tokens = line.split()
        if tokens[0] == "evmap":
            if header is not None:
                raise ValidationError(f"{loc}: duplicate evmap header")
            fields = _fields(tokens[1:], loc, ("k", "lambdas", "orientation"))
            try:
                header = {
                    "k": int(fields["k"]),
                    "lambdas": tuple(float(x) for x in fields["lambdas"].split(",")),
                    "orientation": int(fields.get("orientation", "1")),
                }
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"{loc}: bad evmap header ({exc})")
        elif tokens[0] == "term":
            fields = _fields(tokens[1:], loc, ("comp", "kind", "order", "value"))
            try:
                comp = int(fields["comp"])
                kind = fields["kind"]
                orders = tuple(int(x) for x in fields["order"].split(","))
                value = float(fields["value"])
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"{loc}: bad term record ({exc})")
            if kind not in ("const", "cos", "sin"):
                raise ValidationError(f"{loc}: unknown term kind {kind!r}")
            terms.append((loc, comp, kind, orders, value))
        else:
            raise ValidationError(f"{loc}: unknown record kind {tokens[0]!r}")
    if header is None:
        raise ValidationError(f"{source_name}: missing evmap header")
    k = header["k"]
    nvars = k - 1
    by_comp = [[] for _ in range(k)]
    for loc, comp, kind, orders, value in terms:
        if not 0 <= comp < k:
            raise ValidationError(f"{loc}: component {comp} out of range for k={k}")
        if kind == "const":
            orders = (0,) * nvars
        if len(orders) != nvars:
            raise ValidationError(f"{loc}: order arity {len(orders)} != {nvars}")
        by_comp[comp].append((kind, orders, value))
    return EvMapSpec(
        k=k,
        components=tuple(TrigPolynomial(nvars, tuple(t)) for t in by_comp),
        lambdas=header["lambdas"],
        orientation=header["orientation"],
    )
