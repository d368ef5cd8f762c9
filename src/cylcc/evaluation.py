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

Pole preimages and meridian crossings are common zeros of all but one
component.  On the circle they come from a sign-change scan refined by
brentq; on the torus from damped Newton seeded on a grid, where each
component gives its value and gradient from one sin/cos pass and a seed
leaves the iteration once it has converged or its Jacobian is singular.
``pole_preimages`` certifies what it found by the degree identity: the
signed counts over the two poles must agree.  The zero locus of s0 is
found independently, by subdividing closed cells held as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .errors import DegeneracyError, DomainError, ValidationError

TWO_PI = 2.0 * math.pi


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
        if any(l <= 0 for l in self.lambdas):
            raise ValidationError("end expansions use positive eigenvalues only")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValidationError("eigenvalues must be nondecreasing")

    @property
    def k(self) -> int:
        return len(self.lambdas)


def flow_normalize(e: EndExpansion, radius: float = 1.0) -> np.ndarray:
    """The unique point of |c(s)| = radius along the translation flow."""
    if radius <= 0:
        raise DomainError("radius must be positive")
    c = np.asarray(e.coeffs, dtype=float)
    lam = np.asarray(e.lambdas, dtype=float)
    if not np.any(c != 0.0):
        raise DomainError("zero coefficient vector has an undefined quotient")

    def squared_radius(s):
        return float(np.sum(c * c * np.exp(2.0 * lam * s))) - radius**2

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


def s0_eval(T: float, e: EndExpansion) -> np.ndarray:
    """Entries e^{-2 lambda_i T} c_i of the linearized obstruction section.

    Only the first k-1 coefficients enter: the last cokernel element is
    quotiented out.
    """
    if T <= 0:
        raise DomainError("the gluing parameter T must be positive")
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

    At construction the terms are also gathered by order.  The cos and
    sin coefficients a, b of one order m combine into one harmonic
    a cos(phi) + b sin(phi) = r sin(phi + delta), phi = 2 pi m . theta,
    where r = +-hypot(a, b) takes the sign of b.  A pure sine thus keeps
    delta = 0 and vanishes exactly where phi = 0.  f costs one sin per
    distinct order, and f with its gradient one sin and one cos.
    """

    nvars: int
    terms: Tuple[Tuple[str, Tuple[int, ...], float], ...]
    _orders: np.ndarray = field(init=False, repr=False, compare=False)
    _amp: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.ndarray = field(init=False, repr=False, compare=False)
    _const: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        const = 0.0
        for kind, orders, value in self.terms:
            if kind not in ("const", "cos", "sin"):
                raise ValidationError(f"unknown term kind {kind!r}")
            if len(orders) != self.nvars:
                raise ValidationError("term order tuple has wrong arity")
            if kind == "const":
                const += value
            else:
                a, b = coeffs.get(tuple(orders), (0.0, 0.0))
                coeffs[tuple(orders)] = (a + value, b) if kind == "cos" else (a, b + value)
        a, b = np.array(list(coeffs.values())).reshape(len(coeffs), 2).T
        sign = np.where(b < 0.0, -1.0, 1.0)
        orders = np.array(list(coeffs), dtype=float).reshape(len(coeffs), self.nvars)
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "_amp", sign * np.hypot(a, b))
        object.__setattr__(self, "_shift", np.arctan2(sign * a, sign * b))
        object.__setattr__(self, "_const", const)

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

    def partial(self, var: int) -> "TrigPolynomial":
        terms = []
        for kind, orders, value in self.terms:
            if kind == "const" or orders[var] == 0:
                continue
            w = TWO_PI * orders[var]
            if kind == "cos":
                terms.append(("sin", orders, -value * w))
            else:
                terms.append(("cos", orders, value * w))
        return TrigPolynomial(self.nvars, tuple(terms))

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
    must avoid the origin (checked on a dense grid).  ``lambdas`` are the
    positive eigenvalues weighting the flow quotient. ``singular_params``
    declares parameter points whose images a generic meridian must avoid.
    """

    k: int
    components: Tuple[TrigPolynomial, ...]
    lambdas: Tuple[float, ...]
    orientation: int = 1
    singular_params: Tuple[Tuple[float, ...], ...] = ()
    _origin_check_grid: int = 256

    def __post_init__(self):
        if self.k not in (2, 3):
            raise ValidationError("evaluation maps are implemented for k in {2, 3}")
        if len(self.components) != self.k:
            raise ValidationError("need one component per target coordinate")
        if any(c.nvars != self.nvars for c in self.components):
            raise ValidationError("component arity must match the domain dimension")
        if len(self.lambdas) != self.k:
            raise ValidationError("need one eigenvalue per component")
        if any(l <= 0 for l in self.lambdas):
            raise ValidationError("flow eigenvalues must be positive")
        if any(b < a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValidationError("flow eigenvalues must be nondecreasing")
        if self.orientation not in (1, -1):
            raise ValidationError("orientation flag must be +1 or -1")
        grid = _param_grid(self.nvars, self._origin_check_grid)
        values = self.evaluate(grid)
        closest = float(np.min(np.linalg.norm(values, axis=1)))
        if closest < 1e-9:
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


def _orientation_correction(axis: int, pole_sign: int) -> int:
    # [sign * e_axis ^ e_{j_1} ^ ... ] = sign * (-1)^axis [e_1 ^ ... ^ e_k]
    return pole_sign * (-1) ** axis


@dataclass(frozen=True)
class PolePreimage:
    params: Tuple[float, ...]
    pole: int  # +1 for the positive pole on the axis, -1 for the negative
    sign: int  # local orientation sign


def _circle_roots(func, n_scan: int) -> List[float]:
    """Roots of a smooth 1-periodic function via sign changes + brentq.

    A near-zero sample with no sign change betrays a tangential root;
    those are rejected rather than silently missed.
    """
    ts = np.arange(n_scan + 1) / n_scan
    vals = func(ts.reshape(-1, 1))
    roots = []
    for j in range(n_scan):
        a, b = vals[j], vals[j + 1]
        if a == 0.0:
            roots.append(ts[j])
        elif a * b < 0.0:
            roots.append(
                brentq(lambda t: float(func(np.array([[t]]))[0]), ts[j], ts[j + 1],
                       xtol=1e-14)
            )
    # dedupe modulo 1
    out = []
    for r in sorted(x % 1.0 for x in roots):
        if not out or (r - out[-1]) % 1.0 > 1e-9:
            out.append(r)
    if out and (out[0] + 1.0 - out[-1]) < 1e-9:
        out.pop()
    near = np.abs(vals[:-1]) < 1e-6
    if np.any(near):
        for j in np.nonzero(near)[0]:
            t = float(ts[j])
            if not any(min(abs(t - r), 1.0 - abs(t - r)) < 2.0 / n_scan for r in out):
                raise DegeneracyError(
                    f"tangential zero near parameter {t}", where=(t,)
                )
    return out


def _torus_zeros(f1, f2, n_grid: int, newton_steps: int = 60):
    """Common zeros of two trig polynomials on the torus by seeded Newton.

    Each point of the n_grid x n_grid grid seeds a Newton iteration whose
    steps are shortened to length 0.25 when longer.  Only active seeds are
    iterated, for at most ``newton_steps`` steps.  A seed leaves the active
    set when its Newton step is at most 1e-12 (it has converged) or when
    its Jacobian determinant is below 1e-14 in magnitude (it is lost).
    Afterwards every seed that was not lost counts as converged if both
    |f1| and |f2| are below 1e-10 there, and as lost otherwise.  Converged
    seeds are reduced mod 1 and deduplicated in seed order.

    Returns (sorted roots, seeds converged, seeds lost).
    """
    theta = _param_grid(2, n_grid)
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
        theta[active] = t - step * (0.25 / np.maximum(norm, 0.25))[:, None]  # damped
        singular[active[bad]] = True
        active = active[~bad & (norm > 1e-12)]
    live = np.flatnonzero(~singular)
    found = live[(np.abs(f1(theta[live])) < 1e-10) & (np.abs(f2(theta[live])) < 1e-10)]
    roots = _torus_dedup(np.mod(theta[found], 1.0))
    return sorted(roots), len(found), len(theta) - len(found)


def _torus_distance(a, b) -> np.ndarray:
    """Max-coordinate distance on R^n / Z^n over the last axis (broadcasts)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d).max(axis=-1)


def _torus_dedup(points: np.ndarray) -> List[Tuple[float, ...]]:
    """Keep the first point, drop every point within 1e-7 of it, repeat."""
    out = []
    while len(points):
        out.append(tuple(float(x) for x in points[0]))
        points = points[_torus_distance(points, points[0]) >= 1e-7]
    return out


def _zeros_with_det(spec: EvMapSpec, omit: int, n_scan: int, n_grid: int):
    """Common zeros of the components other than ``omit``, each with det J there.

    Also returns a line describing the search, for error messages.
    """
    comps = [c for j, c in enumerate(spec.components) if j != omit]
    if spec.nvars == 1:
        params = [(r,) for r in _circle_roots(comps[0], n_scan)]
        search = f"{len(params)} roots bracketed by a {n_scan}-point scan"
    else:
        params, converged, lost = _torus_zeros(*comps, n_grid)
        search = f"{converged} of {n_grid * n_grid} Newton seeds converged, {lost} lost"
    theta = np.array(params, dtype=float).reshape(len(params), spec.nvars)
    jac = np.stack([c.value_and_grad(theta)[1] for c in comps], axis=1)
    return list(zip(params, np.linalg.det(jac).tolist())), search


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

    Both poles are regular values, so the signed count over each equals
    the degree.  The two counts are compared as a certificate of the
    search: when they differ a preimage was lost, and DegeneracyError
    names both counts and how the search went.
    """
    axis = _axis_index(spec, pole_choice)
    out: List[PolePreimage] = []
    zeros, search = _zeros_with_det(spec, axis, n_scan, n_grid)
    for p, det in zeros:
        theta = np.asarray(p, dtype=float)
        if abs(det) < degeneracy_tol:
            raise DegeneracyError(
                f"pole preimage at {p} is not transverse (|det J| = {abs(det):.2e})",
                where=p,
            )
        axis_value = float(spec.components[axis](np.atleast_2d(theta))[0])
        pole = 1 if axis_value > 0 else -1
        sign = (
            _orientation_correction(axis, pole)
            * (1 if det > 0 else -1)
            * spec.orientation
        )
        out.append(PolePreimage(params=tuple(float(x) for x in p), pole=pole, sign=sign))
    north = sum(r.sign for r in out if r.pole == 1)
    south = sum(r.sign for r in out if r.pole == -1)
    if north != south:
        raise DegeneracyError(
            f"degree certificate failed: signed count {north} over the + pole, "
            f"{south} over the - pole ({search})"
        )
    return sorted(out, key=lambda r: r.params)


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
    signed by the local degree.  For k = 2 the components of the arc
    preimage are reported as well, with their endpoint pole data.
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

    q_axis = path.through
    crossings: List[Crossing] = []
    for p, det in _zeros_with_det(spec, q_axis, n_scan, n_grid)[0]:
        theta = np.asarray(p, dtype=float)
        through_val = float(spec.components[q_axis](np.atleast_2d(theta))[0])
        if through_val * path.through_sign <= 0:
            continue  # hits the antipodal meridian
        if abs(det) < degeneracy_tol:
            raise DegeneracyError(
                f"crossing at {p} is tangent to the meridian", where=p
            )
        sign = (
            _orientation_correction(q_axis, path.through_sign)
            * (1 if det > 0 else -1)
            * spec.orientation
        )
        crossings.append(Crossing(tuple(float(x) for x in p), sign))
    crossings.sort(key=lambda c: c.params)

    components: Tuple[ArcComponent, ...] = ()
    if spec.nvars == 1:
        components = tuple(
            _arc_components(spec, axis, path, crossings, n_scan, degeneracy_tol)
        )
    return PathIntersections(crossings=tuple(crossings), components=components)


def _arc_components(spec, axis, path, crossings, n_scan, degeneracy_tol):
    """Components of {theta : normalized image on the chosen half circle}."""
    poles = pole_preimages(
        spec,
        path.pole_axis,
        n_scan=n_scan,
        degeneracy_tol=degeneracy_tol,
    )
    if not poles:
        return []
    by_param = sorted(poles, key=lambda r: r.params[0])
    through = spec.components[path.through]
    out = []
    for a, b in zip(by_param, by_param[1:] + by_param[:1]):
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

    The zero finder works directly on the scaled section values by scan
    and subdivision, independently of the Newton/sign machinery that
    locates pole preimages.
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
            zeros = [
                (z,)
                for z in _scan_zeros_circle(spec, float(T), n_scan)
            ]
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


def _scan_zeros_circle(spec: EvMapSpec, T: float, n_scan: int) -> List[float]:
    lam = spec.lambdas[0]
    scale = math.exp(-2.0 * lam * T)

    def section(ts):
        return scale * spec.components[0](ts)

    ts = np.arange(n_scan + 1) / n_scan
    vals = section(ts.reshape(-1, 1))
    zeros = []
    for j in range(n_scan):
        a, b = vals[j], vals[j + 1]
        if a == 0.0:
            zeros.append(float(ts[j]))
        elif a * b < 0.0:
            lo, hi = ts[j], ts[j + 1]
            flo = a
            for _ in range(60):  # plain bisection on the section values
                mid = 0.5 * (lo + hi)
                fmid = float(section(np.array([[mid]]))[0])
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            zeros.append(0.5 * (lo + hi))
    out = []
    for z in sorted(z % 1.0 for z in zeros):
        if not out or z - out[-1] > 1e-9:
            out.append(z)
    if out and (out[0] + 1.0 - out[-1]) < 1e-9:
        out.pop()
    return out


def _scan_zeros_torus(spec: EvMapSpec, T: float, n_cells: int) -> List[Tuple[float, float]]:
    """Common zeros of the scaled section by subdivision of closed cells.

    The cells of one level share their width h and are held as arrays of
    corners (x, y).  A cell is kept while both components take a value
    <= 0 and a value >= 0 on its 3x3 sample grid, and is then split into
    four; once h < 1e-11 the centres of the kept cells are the zeros.
    """
    scales = [math.exp(-2.0 * spec.lambdas[i] * T) for i in range(2)]
    x, y = _param_grid(2, n_cells).T
    h = 1.0 / n_cells
    while x.size and h >= 1e-11:
        offsets = np.arange(3) * h / 2.0
        px = ((x[:, None] + offsets) % 1.0)[:, :, None]
        py = ((y[:, None] + offsets) % 1.0)[:, None, :]
        sample = np.stack(np.broadcast_arrays(px, py), axis=-1).reshape(-1, 2)
        hit = np.ones(x.size, dtype=bool)
        for scale, comp in zip(scales, spec.components):
            v = (scale * comp(sample)).reshape(x.size, 9)
            hit &= (v.min(axis=1) <= 0.0) & (v.max(axis=1) >= 0.0)
        cx = (x[hit][:, None] + offsets[:2])[:, :, None]
        cy = (y[hit][:, None] + offsets[:2])[:, None, :]
        x, y = (a.ravel() for a in np.broadcast_arrays(cx, cy))
        h = h / 2.0
    centres = np.column_stack([x + h / 2.0, y + h / 2.0])
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
    if any(l <= 0 for l in lambdas):
        raise ValidationError("flow eigenvalues must be positive")
    components = [TrigPolynomial.zero(spec.nvars)] * new_k
    for src, dst in enumerate(positions):
        components[dst] = spec.components[src]
    return LiftedEvMap(k=new_k, components=tuple(components), lambdas=lambdas)


def parse_evmap(text: str, source_name: str = "<memory>") -> EvMapSpec:
    """Parse a trig-polynomial map file.

    Format::

        evmap k=<2|3> lambdas=<l1,l2[,l3]> [orientation=<1|-1>]
        term comp=<i> kind=<const|cos|sin> order=<m1[,m2]> value=<float>
    """
    header = None
    terms_by_comp = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loc = f"{source_name}:{lineno}"
        tokens = line.split()
        fields = dict(tok.split("=", 1) for tok in tokens[1:] if "=" in tok)
        if tokens[0] == "evmap":
            if header is not None:
                raise ValidationError(f"{loc}: duplicate evmap header")
            try:
                header = {
                    "k": int(fields["k"]),
                    "lambdas": tuple(float(x) for x in fields["lambdas"].split(",")),
                    "orientation": int(fields.get("orientation", "1")),
                }
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"{loc}: bad evmap header ({exc})")
        elif tokens[0] == "term":
            try:
                comp = int(fields["comp"])
                kind = fields["kind"]
                orders = tuple(int(x) for x in fields["order"].split(","))
                value = float(fields["value"])
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"{loc}: bad term record ({exc})")
            terms_by_comp.setdefault(comp, []).append((kind, orders, value))
        else:
            raise ValidationError(f"{loc}: unknown record kind {tokens[0]!r}")
    if header is None:
        raise ValidationError(f"{source_name}: missing evmap header")
    k = header["k"]
    nvars = k - 1
    components = []
    for comp in range(k):
        terms = []
        for kind, orders, value in terms_by_comp.get(comp, []):
            if kind == "const":
                orders = (0,) * nvars
            if len(orders) != nvars:
                raise ValidationError(
                    f"component {comp}: order arity {len(orders)} != {nvars}"
                )
            terms.append((kind, orders, value))
        components.append(TrigPolynomial(nvars, tuple(terms)))
    return EvMapSpec(
        k=k,
        components=tuple(components),
        lambdas=header["lambdas"],
        orientation=header["orientation"],
    )
