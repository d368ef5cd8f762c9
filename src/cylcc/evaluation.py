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

The searches evaluate the components they need together (``_Stack``):
at arbitrary points, values and gradients come from one sin/cos pass
over every component's phases, and on a tensor lattice of points
corner + step (i_1, ..., i_n) from per-axis sin/cos tables, by
sin(u + b) = sin u cos b + cos u sin b.  Lattice values differ from
point-by-point ones only by rounding, which the same absolute slack
bounds, so every exclusion and screen below keeps its meaning on them.

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
independently, on the circle and on the torus, by one scan that
subdivides every closed cell on which each component takes both signs
(``_scan_zeros``).  Each of its levels is one lattice evaluation: the
first covers the whole domain, every later one a 5^n lattice per cell
kept before it, from which a precomputed gather hands each of the cell's
2^n children its 3^n samples.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .dataio import RecordKind, choice, comma_list, integer, read_records, real
from .errors import DegeneracyError, DomainError, NumericError, ValidationError, check_size

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

# Newton steps allowed to ``flow_normalize`` before it gives up.
_FLOW_STEPS = 100

# Damped Newton steps the cell search runs from each cell centre.
_NEWTON_STEPS = 60

# A pole preimage or crossing is transverse when |det J| >= _MIN_DET
# there; a zero of s0 matches a pole preimage within _MATCH_DISTANCE.
_MIN_DET = 1e-8
_MATCH_DISTANCE = 1e-8


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
        if not all(math.isfinite(x) for x in self.coeffs):
            raise ValidationError("end expansion data must be finite")
        _check_header(self.k, self.lambdas, 1)

    @property
    def k(self) -> int:
        return len(self.lambdas)


def flow_normalize(e: EndExpansion, radius: float = 1.0) -> np.ndarray:
    """The unique point of |c(s)| = radius along the translation flow.

    The flow time s solves g(s) = log sum c_i^2 e^{2 lambda_i s} - 2 log r
    = 0 over the nonzero c_i.  g is convex and increasing, and Newton
    starts from the least s at which one term alone reaches r^2, where
    g >= 0, so its iterates fall monotonically to the zero.  They stop
    once a step is at most 1e-15 + 8.9e-16 |s|; a solve still going after
    ``_FLOW_STEPS`` steps raises NumericError.
    """
    if not math.isfinite(radius) or radius <= 0:
        raise DomainError("radius must be finite and positive")
    c = np.asarray(e.coeffs, dtype=float)
    lam = np.asarray(e.lambdas, dtype=float)
    if not np.any(c != 0.0):
        raise DomainError("zero coefficient vector has an undefined quotient")
    live = c != 0.0
    log_weight = np.log(c[live] ** 2) - 2.0 * math.log(radius)
    rate = 2.0 * lam[live]
    s = float(np.min(-log_weight / rate))
    for _ in range(_FLOW_STEPS):
        exponent = log_weight + rate * s
        top = exponent.max()
        terms = np.exp(exponent - top)
        total = terms.sum()
        step = (math.log(total) + top) * total / float(terms @ rate)
        s -= step
        if step <= 1e-15 + 8.9e-16 * abs(s):
            point = np.zeros_like(c)
            point[live] = c[live] * np.exp(lam[live] * s)
            return point
    raise NumericError(f"flow normalization did not converge in {_FLOW_STEPS} Newton steps")


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
      in a computed value of f, here or on a lattice (``_Stack.lattice``).

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


class _Stack:
    """Trig polynomials in the same variables, evaluated together.

    Every component's orders are rows of one matrix, with their shifts;
    ``amp`` is the block matrix whose row i holds component i's
    amplitudes r under its own orders and zeros elsewhere.  One sin (and
    cos) pass over the phases thus serves every component.
    """

    def __init__(self, comps: Sequence[TrigPolynomial]):
        ends = [0, *itertools.accumulate(len(f._amp) for f in comps)]
        self._blocks = [(f._amp, slice(lo, hi)) for f, lo, hi in zip(comps, ends, ends[1:])]
        self.nvars = comps[0].nvars
        self.orders = np.concatenate([f._orders for f in comps])
        self.shift = np.concatenate([f._shift for f in comps])
        self.amp = np.zeros((len(comps), ends[-1]))
        for row, (amp, cols) in zip(self.amp, self._blocks):
            row[cols] = amp
        self.const = np.array([[f._const] for f in comps])
        self.lipschitz = np.array([f.lipschitz for f in comps])
        self.abs_slack = np.array([f.abs_slack for f in comps])
        self.grad_lipschitz = max(f.grad_lipschitz for f in comps)
        self._wave = TWO_PI * self.orders
        # (components, 1, 1, 2M): weights the sin/cos of a lattice's u, (corners[, run], 2M)
        self._pair_amp = np.concatenate([self.amp, self.amp], axis=1)[:, None, None, :]
        # (components, 1, ..., 1): the constants, added in place to a lattice's values
        self._lattice_const = self.const.reshape((len(comps),) + (1,) * (self.nvars + 1))

    def value_and_grad(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Values (components, points) and gradients (components, nvars,
        points) at the rows of ``x``.  Each value sums only its own
        component's harmonics, as ``TrigPolynomial`` does."""
        phases = TWO_PI * (self.orders @ x.T) + self.shift[:, None]
        sin = np.sin(phases)
        values = self.const + np.array([amp @ sin[rows] for amp, rows in self._blocks])
        grad = self._wave.T @ (self.amp[:, :, None] * np.cos(phases))
        return values, grad

    def lattice(self, corners: np.ndarray, step: float, count: int) -> np.ndarray:
        """Values at corner + step (i_1, ..., i_n), 0 <= i_d < count, for each corner.

        Returns (components, corners, count, ..., count).  The phase of a
        point is u + b with u = 2 pi m . corner + delta + b_1 + ... +
        b_{n-1}, b_d = 2 pi m_d i_d step, and b = b_n; the last axis enters
        through sin(u + b) = sin u cos b + cos u sin b, one matrix product
        of the sin/cos of u against a table of cos b and sin b.  On the
        circle the axis is read as runs of q points, i = q i' + i'', when
        the largest divisor q of count up to its square root exceeds 1:
        i' enters u and i'' the table, so each costs about sqrt(count)
        sin/cos pairs.
        """
        n = self.nvars
        q = 1
        if n == 1:
            q = max(q for q in range(1, math.isqrt(count) + 1) if count % q == 0)
        if q > 1:
            runs, last = [np.arange(count // q) * (step * q)], np.arange(q) * step
        else:
            last = np.arange(count) * step
            runs = [last] * (n - 1)
        u = corners @ self._wave.T + self.shift
        for d, run in enumerate(runs):
            u = u[..., None, :] + run[:, None] * self._wave[:, d]
        b = self._wave[:, -1:] * last
        table = np.concatenate([np.cos(b), np.sin(b)])
        halves = np.concatenate([np.sin(u), np.cos(u)], axis=-1)
        weighted = self._pair_amp * halves
        values = weighted.reshape(math.prod(weighted.shape[:-1]), len(table)) @ table
        values = values.reshape((len(self.const), len(corners)) + (count,) * n)
        values += self._lattice_const
        return values


class _ComponentMap:
    """Evaluation through ``components``, one column per component."""

    def evaluate(self, theta) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        return np.column_stack([comp(theta) for comp in self.components])


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
    grid points of the other blocks are evaluated.  The 32-point lattice
    of centres and each block's 8-point lattice are evaluated for all
    components at once.  The verdict is that of the dense grid.
    ``lambdas`` are the finite positive eigenvalues
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
        _check_header(self.k, self.lambdas, self.orientation)
        n, block = _ORIGIN_GRID, _ORIGIN_BLOCK
        stack = _Stack(self.components)
        half = (block - 1) / (2.0 * n)
        centres = stack.lattice(np.full((1, self.nvars), half), block / n, n // block)[:, 0]
        lip = math.hypot(*stack.lipschitz)
        slack = math.hypot(*stack.abs_slack)
        margin = np.linalg.norm(centres, axis=0) - lip * half - slack
        corners = np.argwhere(margin < 1e-9) * (block / n)
        if np.any(np.linalg.norm(stack.lattice(corners, 1.0 / n, block), axis=0) < 1e-9):
            dense = stack.lattice(np.zeros((1, self.nvars)), 1.0 / n, n)
            closest = float(np.min(np.linalg.norm(dense, axis=0)))
            raise ValidationError(
                f"map image approaches the origin (min |F| = {closest:.2e})"
            )

    @property
    def nvars(self) -> int:
        return self.k - 1


def _check_header(k: int, lambdas: Sequence[float], orientation: int) -> None:
    """The fields of an evmap header: k finite, positive, nondecreasing
    flow eigenvalues and an orientation flag of +1 or -1."""
    if len(lambdas) != k:
        raise ValidationError("need one eigenvalue per component")
    if any(not math.isfinite(l) or l <= 0 for l in lambdas):
        raise ValidationError("flow eigenvalues must be finite and positive")
    if any(b < a for a, b in zip(lambdas, lambdas[1:])):
        raise ValidationError("flow eigenvalues must be nondecreasing")
    if orientation not in (1, -1):
        raise ValidationError("orientation flag must be +1 or -1")


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


def _linearize(stack: _Stack, x: np.ndarray):
    """F, the adjugate of J and det J for n = ``stack.nvars`` in {1, 2} at the points ``x``.

    The points run along the last axis: F is (n, m), adj (n, n, m) and
    det (m,), so J^-1 = adj / det.  For n = 1, adj = 1 and det J = f'; for
    n = 2, J = [[a, b], [c, d]] has adj = [[d, -b], [-c, a]] and
    det J = ad - bc.
    """
    values, grad = stack.value_and_grad(x)
    if stack.nvars == 1:
        return values, np.ones((1, 1, 1)), grad[0, 0]
    (a, b), (c, d) = grad
    return values, np.array([[d, -b], [-c, a]]), a * d - b * c


def _damped_newton(stack: _Stack, theta: np.ndarray):
    """Damped Newton for the common zeros of the stacked components from each row of ``theta``.

    Steps are shortened to length 0.25 when longer.  Only active points
    are iterated, for at most ``_NEWTON_STEPS`` steps.  A point leaves the
    active set when its Newton step is at most 1e-12 (it has converged)
    or when its Jacobian determinant is below 1e-14 in magnitude (it is
    lost).  Returns the end points and the mask of points not lost.
    """
    theta = theta.copy()
    singular = np.zeros(len(theta), dtype=bool)
    active = np.arange(len(theta))
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        t = theta[active]
        values, adj, det = _linearize(stack, t)
        bad = np.abs(det) < 1e-14
        det[bad] = 1.0
        step = (adj * values).sum(axis=1) / det  # one row per coordinate
        norm = np.sqrt((step * step).sum(axis=0))
        theta[active] = t - (step * (0.25 / np.maximum(norm, 0.25))).T  # damped
        singular[active[bad]] = True
        active = active[~bad & (norm > 1e-12)]
    return theta, ~singular


def _kantorovich(stack: _Stack, x: np.ndarray):
    """Kantorovich balls for the common zeros of the stacked components near the points ``x``.

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
    values, adj, det = _linearize(stack, x)
    ok = (np.abs(det) >= 1e-14) & (np.abs(values) < 1e-10).all(axis=0)
    det = np.where(ok, np.abs(det), 1.0)
    beta = (1.0 + REL_SLACK) * np.abs(adj).sum(axis=1).max(axis=0) / det
    step = np.abs((adj * values).sum(axis=1)).max(axis=0) / det
    eta = (1.0 + REL_SLACK) * step + beta * float(stack.abs_slack.max())
    lip = stack.grad_lipschitz
    h = beta * lip * eta
    ok &= h < 0.5
    root = np.sqrt(np.where(ok, 1.0 - 2.0 * h, 1.0))
    exist = (1.0 + REL_SLACK) * 2.0 * eta / (1.0 + root)
    unique = (1.0 - REL_SLACK) * (1.0 + root) / (beta * lip)
    return ok, exist, unique


def _cell_zeros(stack: _Stack, n_cells: int):
    """Common zeros of the n stacked trig polynomials on R^n / Z^n, n = 1 or 2.

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

    The centres of one level are lattices: the seed grid, and the 2^n
    children of each cell split.  All components are evaluated on them
    at once (``_Stack.lattice``), and only the cells that survive the
    exclusion become points.  After ``_MAX_DEPTH`` splits the cells
    still left are uncertified: each may hold a zero that no ball
    accounts for.

    Returns (sorted roots as n-tuples, cells excluded, uncertified
    cells), each uncertified cell as its box, one (lo, hi) per coordinate.
    """
    nvars = stack.nvars
    half = 0.5 / n_cells
    values = stack.lattice(np.zeros((1, nvars)), 1.0 / n_cells, n_cells)
    known = []  # certified roots as (x..., t*, t**)
    excluded = 0

    def uncovered(cells, half):
        if not known:
            return cells
        balls = np.array(known)
        far = _torus_distance(cells[:, None, :], balls[None, :, :nvars]) + half >= balls[:, -1]
        return cells[far.all(axis=1)]

    for depth in range(_MAX_DEPTH + 1):
        bound = (stack.lipschitz * half + stack.abs_slack).reshape((-1,) + (1,) * (nvars + 1))
        zero_free = (np.abs(values) > bound).any(axis=0)
        excluded += int(zero_free.sum())
        live = np.argwhere(~zero_free)
        if depth == 0:
            cells = live[:, 1:] / n_cells
        else:
            cells = cells[live[:, 0]] + (2 * live[:, 1:] - 1) * half
        cells = uncovered(cells, half)
        if not cells.size:
            break
        ends, live = _damped_newton(stack, cells)
        ends = np.mod(ends[live], 1.0)
        ok, t_exist, t_unique = _kantorovich(stack, ends)
        for ball in np.column_stack([ends, t_exist, t_unique])[ok].tolist():
            x, t = ball[:nvars], ball[-2]
            if any(_point_distance(x, root) + t < root[-1] for root in known):
                continue  # a known root
            if all(_point_distance(x, root) > root[-2] + t for root in known):
                known.append(ball)
        cells = uncovered(cells, half)
        if not cells.size or depth == _MAX_DEPTH:
            break
        half /= 2.0
        values = stack.lattice(cells - half, 2.0 * half, 2)
    uncertified = [tuple((x - half, x + half) for x in c) for c in np.mod(cells, 1.0).tolist()]
    roots = sorted(tuple(root[:nvars]) for root in known)
    return roots, excluded, uncertified


def _point_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """``_torus_distance`` of two points given as lists of floats."""
    return max(min(d, 1.0 - d) for d in (abs(a - b) % 1.0 for a, b in zip(x, y)))


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


def _signed_preimages(spec: EvMapSpec, axis: int, poles, n_scan, n_grid):
    """Preimages of the poles ``poles`` (+1, -1 or both) on ``axis``, with local signs.

    They are the common zeros of the other components, found by
    ``_cell_zeros`` from ``n_scan`` cells on the circle or ``n_grid``
    cells per axis on the torus; the sign of component ``axis`` at a zero
    names its pole.  A kept preimage must be transverse, |det J| >=
    ``_MIN_DET``, and its sign is that of det J, corrected for the
    place of ``axis`` and the pole and by ``spec.orientation``.

    Returns the preimages sorted by parameter, and the search line
    "cells excluded, roots certified, cells uncertified" for messages.
    """
    check_size("n_scan", n_scan, 1)
    check_size("n_grid", n_grid, 1)
    stack = _Stack([c for j, c in enumerate(spec.components) if j != axis])
    params, excluded, uncertified = _cell_zeros(stack, (n_scan, n_grid)[spec.nvars - 1])
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
    dets = _linearize(stack, theta)[2].tolist()
    out = []
    for p, det, value in zip(params, dets, spec.components[axis](theta).tolist()):
        pole = 1 if value > 0 else -1
        if pole not in poles:
            continue
        if abs(det) < _MIN_DET:
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
    does a preimage with |det J| < 1e-8 (``_MIN_DET``).  ``n_scan`` and
    ``n_grid`` must be integers >= 1, or DomainError is raised.

    Both poles are regular values, so the signed count over each equals
    the degree.  The two counts are compared as a cross-check of the
    search: when they differ a preimage was lost, and DegeneracyError
    names both counts and the search line "cells excluded, roots
    certified, cells uncertified".
    """
    axis = _axis_index(spec, pole_choice)
    out, search = _signed_preimages(spec, axis, (1, -1), n_scan, n_grid)
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
    crossings: Tuple[PolePreimage, ...]  # of pole through_sign on axis through
    components: Tuple[ArcComponent, ...] = ()

    @property
    def total_signed(self) -> int:
        return sum(c.sign for c in self.crossings)


def path_intersections(
    spec: EvMapSpec,
    path: MeridianPath = MeridianPath(),
    n_scan: int = 8192,
    n_grid: int = 96,
) -> PathIntersections:
    """Signed crossings of the normalized map through the meridian midpoint.

    The midpoint of the meridian is the equator point ``s * e_through``;
    its preimages are transverse intersections of the image with the arc,
    signed by the local degree.  They are the preimages of the pole
    ``through_sign`` on axis ``through``, found and certified by the same
    cell search as in ``pole_preimages`` (``n_scan`` seed cells on the
    circle, ``n_grid`` per axis on the torus; each an integer >= 1, or
    DomainError is raised), and each must be transverse in the same
    sense.  For k = 2 the components of the arc preimage
    are reported as well, with their endpoint pole data.
    """
    axis = _axis_index(spec, path.pole_axis)
    if path.through == axis or not 0 <= path.through < spec.k:
        raise ValidationError("the meridian must pass through a distinct axis")
    for p in spec.singular_params:
        image = flow_normalize(EndExpansion(spec.lambdas, tuple(spec.evaluate(p)[0].tolist())))
        on_plane = all(
            abs(image[j]) < 1e-9
            for j in range(spec.k)
            if j not in (axis, path.through)
        )
        if on_plane and image[path.through] * path.through_sign > -1e-9:
            raise ValidationError(
                f"declared singular image at parameters {p} lies on the meridian"
            )

    crossings, _ = _signed_preimages(spec, path.through, (path.through_sign,), n_scan, n_grid)

    components: Tuple[ArcComponent, ...] = ()
    if spec.nvars == 1:
        components = tuple(_arc_components(spec, path, crossings, n_scan))
    return PathIntersections(crossings=tuple(crossings), components=components)


def _arc_components(spec, path, crossings, n_scan):
    """Components of {theta : normalized image on the chosen half circle}."""
    poles = pole_preimages(spec, path.pole_axis, n_scan=n_scan)
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
    n_scan: int = 4096,
    n_cells: int = 128,
) -> ZeroLocusReport:
    """Zeros of the linearized section versus pole preimages, per T.

    The poles are those on the last axis, as the section quotients by the
    last cokernel element.  A zero matches a pole preimage within 1e-8
    (``_MATCH_DISTANCE``) in the max-norm distance on the domain.

    The zero finder works directly on the scaled section values: it
    subdivides closed cells, ``n_scan`` seed cells on the circle and
    ``n_cells`` x ``n_cells`` on the torus, keeping every cell on which
    each component takes both signs (``_scan_zeros``).  It is
    independent of the certified cell search, with its Lipschitz
    exclusion and Kantorovich balls, that locates the pole preimages on
    both domains.  That search runs from the same seed cells, so a map
    with an uncertified cell raises DegeneracyError here as in
    ``pole_preimages``.  A T that is not finite and positive, a T at
    which a section scale e^{-2 lambda_i T} underflows, or an ``n_scan``
    or ``n_cells`` that is not an integer >= 1 raises DomainError.
    """
    if not all(0.0 < T < math.inf for T in T_grid):
        raise DomainError("the gluing parameter T must be finite and positive")
    check_size("n_scan", n_scan, 1)
    check_size("n_cells", n_cells, 1)
    poles = pole_preimages(spec, n_scan=n_scan, n_grid=n_cells)
    pole_params = np.array([p.params for p in poles]).reshape(len(poles), spec.nvars)
    mismatches: List[ZeroLocusMismatch] = []
    for T in T_grid:
        zeros = _scan_zeros(spec, float(T), (n_scan, n_cells)[spec.nvars - 1])
        matched = np.zeros(len(poles), dtype=bool)
        for z in zeros:
            near = np.flatnonzero(_torus_distance(pole_params, z) < _MATCH_DISTANCE)
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


def _scan_zeros(spec: EvMapSpec, T: float, n_cells: int) -> List[Tuple[float, ...]]:
    """Common zeros of the scaled section by subdivision of closed cells.

    The section has the n = ``spec.nvars`` components e^{-2 lambda_i T} f_i.
    The cells of one level share their width h.  A cell is kept while
    every component takes a value <= 0 and a value >= 0 on its 3^n grid
    of samples h/2 apart, and is then split into 2^n; once h < 1e-11 the
    centres of the kept cells are the zeros.  A scale below the least
    normal float would flatten the section to zero and keep every cell,
    so it raises DomainError.

    Neighbouring cells share samples, so each level evaluates the
    lattice of half steps over blocks of cells once, every component in
    one ``_Stack.lattice`` call.  The first level is one block of
    n_cells^n cells, whose (2 n_cells)^n lattice points wrap around the
    domain; each cell's signs come from strided slices of the sign
    arrays, one axis at a time.  Every later level has one block of 2^n
    cells, with a 5^n lattice, per cell kept before it.  Its values are
    scaled by minus and by plus each component's scale in one product,
    one precomputed gather hands each child its 3^n samples of both, and
    a child is kept when the largest of each is >= 0: the least scaled
    value is <= 0 and the largest >= 0, the rule above.  A later level
    thus costs one lattice call and a handful of array operations,
    whatever the number of cells.
    """
    n = spec.nvars
    scales = [math.exp(-2.0 * spec.lambdas[i] * T) for i in range(n)]
    for lam, scale in zip(spec.lambdas, scales):
        if scale < sys.float_info.min:
            raise DomainError(
                f"the section scale e^(-2 lambda T) underflows at T = {T:g}, lambda = {lam:g}"
            )
    stack = _Stack(spec.components[:n])
    scales = np.array(scales).reshape((n,) + (1,) * (n + 1))
    corners, h = np.zeros((1, n)), 1.0 / n_cells
    if h >= 1e-11:
        values = stack.lattice(corners, h / 2.0, 2 * n_cells)
        values *= scales
        signs = np.concatenate([values <= 0.0, values >= 0.0])
        for d in range(2, n + 2):
            # cell i reads lattice rows 2i..2i+2 on each axis, row 2 n_cells being row 0
            cut = (slice(None),) * d
            signs = np.concatenate([signs, signs[cut + (slice(0, 1),)]], axis=d)
            signs = (
                signs[cut + (slice(0, -2, 2),)]
                | signs[cut + (slice(1, -1, 2),)]
                | signs[cut + (slice(2, None, 2),)]
            )
        corners = np.argwhere(signs.all(axis=0))[:, 1:] * h
        h /= 2.0
    # Child c of a kept cell reads the points samples[c] of its 5^n lattice.
    children = np.indices((2,) * n).reshape(n, -1)
    offsets = 2 * children[:, :, None] + np.indices((3,) * n).reshape(n, 1, -1)
    samples = np.ravel_multi_index(tuple(offsets), (5,) * n)
    children = children.T
    # -scale and +scale: a child is kept when the largest of -v and of v,
    # over its samples, is >= 0 for every component v.
    signed = np.multiply.outer([-1.0, 1.0], scales.reshape(n, 1, 1))
    while corners.size and h >= 1e-11:
        values = stack.lattice(corners, h / 2.0, 5).reshape(n, len(corners), -1) * signed
        reach = np.maximum.reduce(values[..., samples], axis=-1)  # (sign, component, block, child)
        keep = np.logical_and.reduce(reach >= 0.0, axis=(0, 1))
        corners = (corners[:, None, :] + children * h)[keep]
        h /= 2.0
    centres = (corners[:, None, :] + children * h).reshape(-1, n) + h / 2.0
    order = np.lexsort(centres.T[::-1])
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
    spec: EvMapSpec, positions: Sequence[int], new_lambdas: Sequence[float]
) -> LiftedEvMap:
    """Embed a spec along coordinate inclusions R^k -> R^{new_k}, where
    new_k is the number of ``new_lambdas``.

    Models the covered-curve inclusion (x_1, 0, ..., 0, x_2, 0, ...);
    which slots receive the old coordinates is explicit input.
    """
    positions, new_k = list(positions), len(new_lambdas)
    if len(positions) != spec.k:
        raise ValidationError("need one target slot per original component")
    if positions != sorted(positions) or len(set(positions)) != len(positions):
        raise ValidationError("target slots must be strictly increasing")
    if positions[0] < 0 or positions[-1] >= new_k:
        raise ValidationError("target slots out of range")
    lambdas = tuple(float(l) for l in new_lambdas)
    _check_header(new_k, lambdas, 1)
    components = [TrigPolynomial.zero(spec.nvars)] * new_k
    for src, dst in enumerate(positions):
        components[dst] = spec.components[src]
    return LiftedEvMap(k=new_k, components=tuple(components), lambdas=lambdas)


EVMAP_KINDS = {
    "evmap": RecordKind(
        {"k": choice({"2": 2, "3": 3}), "lambdas": comma_list(real), "orientation": integer},
        ("k", "lambdas"),
    ),
    "term": RecordKind(
        {"comp": integer, "kind": choice({"const": "const", "cos": "cos", "sin": "sin"}),
         "order": comma_list(integer), "value": real},
        ("comp", "kind", "order", "value"),
    ),
}


def parse_evmap(text: str, source_name: str = "<memory>") -> EvMapSpec:
    """Parse a trig-polynomial map file.

    Format (the record grammar of ``dataio``)::

        evmap k=<2|3> lambdas=<l1,l2[,l3]> [orientation=<1|-1>]
        term comp=<i> kind=<const|cos|sin> order=<m1[,m2]> value=<float>

    The first record that ``dataio.read_records`` rejects, or a second
    header, raises ValidationError naming its line; so does, after them,
    a header whose ``lambdas`` are not k finite positive nondecreasing
    numbers or whose orientation is not +1 or -1, and then a term whose
    component is not in 0..k-1 or whose order arity is not k - 1.
    """
    problems, header, terms = [], None, []
    for record, loc, _, values in read_records(text, source_name, EVMAP_KINDS, problems):
        if problems:
            break
        if record == "term":
            terms.append((loc, values))
        elif header is not None:
            raise ValidationError(f"{loc}: duplicate evmap header")
        else:
            header_loc, header = loc, values
    if problems:
        raise ValidationError(str(problems[0]))
    if header is None:
        raise ValidationError(f"{source_name}: missing evmap header")
    k = header["k"]
    try:
        _check_header(k, header["lambdas"], header.get("orientation", 1))
    except ValidationError as exc:
        raise ValidationError(f"{header_loc}: {exc}") from None
    nvars = k - 1
    by_comp = [[] for _ in range(k)]
    for loc, term in terms:
        comp, kind = term["comp"], term["kind"]
        if not 0 <= comp < k:
            raise ValidationError(f"{loc}: component {comp} out of range for k={k}")
        orders = (0,) * nvars if kind == "const" else term["order"]
        if len(orders) != nvars:
            raise ValidationError(f"{loc}: order arity {len(orders)} != {nvars}")
        by_comp[comp].append((kind, orders, term["value"]))
    return EvMapSpec(
        k=k,
        components=tuple(TrigPolynomial(nvars, tuple(t)) for t in by_comp),
        lambdas=header["lambdas"],
        orientation=header.get("orientation", 1),
    )
