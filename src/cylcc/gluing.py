"""Numerical sandbox for the linear gluing problem on the neck.

The neck is the cylinder region [0, 2T] x (R/Z) between a bottom level
(ends written in negative eigenmodes) and a top level translated up by
2T (positive eigenmodes).  In the supersimple regime the operator acts
diagonally per mode: writing a field as sum_i b_i(s) e^{lambda_i s}
f_i(t), D sends b_i to b_i'.

The cutoffs are two ``Ramp``s of width w = hr: ``plus`` is beta_plus,
climbing from 0 to 1 across [T0, T0 + w], and ``minus`` is 1 - beta_minus,
climbing across [T - w, T].  Each ramp *rate* integrates to one, which
is the normalization the closed-form pairing values assume.  The profile
is the C^2 smoothstep 6x^5 - 15x^4 + 10x^3, fixed for reproducible
quadrature; the pairings and residuals integrate by ``_simpson_rule``.

Every mode the neck carries is a ``RampMode``: the field
(a + c R(s)) e^{lambda (s - A)}, where R is one of the cutoff ramps or
is absent and A is the mode's anchor.  Bottom-end modes are anchored at
s = 0 and top-end modes at s = 2T, so a top end c e^{lambda (s - 2T)}
is stored as c itself: its factor e^{-2 lambda T}, which is subnormal or
zero for large T, is never formed on the way to a value or a norm.  The
end data are constants, and preglue and the closed-form solve only
multiply them by a ramp and keep their anchors.  So a + c R is constant
off the ramp support, and the discrete norm ``NeckField.star_norm`` (the
trapezoid rule on ``NeckParams.grid``) is evaluated point by point only
on the support, its neighbouring grid points and the two grid ends.
Each remaining run of grid points lies where a + c R = K, and
contributes K^2 e^{2 lambda (s_j - A)} summed as a geometric series in
log space, so no e^{lambda s} is formed there and none can overflow.  No
full grid is built to solve a neck or to measure it.

Each ``NeckField`` carries its ``NeckParams``: every function here reads
the neck from its fields and refuses fields on different necks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError, check_integer, check_positive, check_size
from .spectral import OperatorKind, SpectrumTable, closed_form_spectrum

# Simpson panels per ramp width in theta_residuals: the quadrature error
# falls as the fourth power of the panel, and 512 keeps it near 1e-12.
RESIDUAL_PANELS_PER_RAMP = 512


@dataclass(frozen=True)
class NeckParams:
    """Gluing-neck geometry, carried by each ``NeckField``; the defaults
    satisfy the constraints minimally."""

    T0: float = 21.0
    T: float = 60.0
    h: float = 0.5
    r: float = 4.0
    s_grid: int = 2048

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.T0, self.T, self.h, self.r)):
            raise DomainError("T0, T, h and r must be finite")
        if not 0.0 < self.h < 1.0:
            raise DomainError("h must lie in (0, 1)")
        if self.r <= 1.0 / self.h:
            raise DomainError(f"need r > 1/h = {1.0 / self.h}")
        if self.T0 <= 5.0 * self.r:
            raise DomainError(f"need T0 > 5r = {5.0 * self.r}")
        if self.T <= 2.0 * self.T0:
            raise DomainError(f"need T > 2*T0 = {2.0 * self.T0}")
        check_size("s_grid", self.s_grid, 64)
        object.__setattr__(self, "s_grid", int(self.s_grid))  # a numpy int becomes an int

    @property
    def ramp_width(self) -> float:
        return self.h * self.r

    @property
    def s_max(self) -> float:
        return 2.0 * self.T

    @property
    def grid_step(self) -> float:
        return self.s_max / (self.s_grid - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.s_max, self.s_grid)

    def grid_points(self, j: np.ndarray) -> np.ndarray:
        """grid()[j] for an ascending index array, computed as linspace does."""
        s = np.asarray(j) * self.grid_step
        if s.size and j[-1] == self.s_grid - 1:
            s[-1] = self.s_max
        return s

    def count_below(self, x: float) -> int:
        """Number of grid points strictly below x."""
        n, step = self.s_grid, self.grid_step

        def point(j):
            return self.s_max if j == n - 1 else j * step

        j = min(max(math.ceil(x / step), 0), n)
        while j > 0 and point(j - 1) >= x:
            j -= 1
        while j < n and point(j) < x:
            j += 1
        return j


def _simpson_rule(lo: float, hi: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [lo, hi] with n >= 1
    panels, an odd n rounded up."""
    check_integer("Simpson's rule panel count", n)
    if n < 1:
        raise ValidationError(f"Simpson's rule needs at least one panel, got {n}")
    n += n % 2
    weights = np.tile([2.0, 4.0], n // 2 + 1)[: n + 1]
    weights[[0, -1]] = 1.0
    return np.linspace(lo, hi, n + 1), weights * (hi - lo) / (3.0 * n)


@dataclass(frozen=True)
class Ramp:
    """The smoothstep R climbing from 0 at ``lo`` to 1 at ``lo + width``.

    R is exactly 0 below ``lo`` and exactly 1 above ``hi``, and its rate
    is exactly 0 outside (lo, hi).
    """

    lo: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.width) and self.width > 0.0):
            raise DomainError("a ramp needs a finite start and a finite positive width")

    @property
    def hi(self) -> float:
        return self.lo + self.width

    def value(self, s) -> np.ndarray:
        x = np.clip((np.asarray(s, float) - self.lo) / self.width, 0.0, 1.0)
        return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))

    def rate(self, s) -> np.ndarray:
        """dR/ds >= 0; integrates to one over the ramp."""
        x = (np.asarray(s, float) - self.lo) / self.width
        inside = (x > 0.0) & (x < 1.0)
        x = np.where(inside, x, 0.0)
        return np.where(inside, 30.0 * x * x * (1.0 - x) ** 2, 0.0) / self.width


class Cutoffs(NamedTuple):
    """The cutoff ramps: ``plus`` is beta_plus, ``minus`` is 1 - beta_minus."""

    plus: Ramp
    minus: Ramp


def make_cutoffs(params: NeckParams) -> Cutoffs:
    w = params.ramp_width
    return Cutoffs(Ramp(params.T0, w), Ramp(params.T - w, w))


@dataclass(frozen=True)
class RampMode:
    """The mode field (a + c R(s)) e^{lambda (s - anchor)}; without a ramp, c = 0.

    ``value`` is the anchored coefficient a + c R(s): a below the ramp
    support and a + c above it.  The coefficient of e^{lambda s} is that
    times e^{-lambda anchor} (``NeckField.b``).
    """

    a: float
    c: float = 0.0
    ramp: Optional[Ramp] = None
    anchor: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c) and math.isfinite(self.anchor)):
            raise ValidationError("mode coefficients and anchor must be finite")
        if self.ramp is None and self.c != 0.0:
            raise ValidationError("a mode without a ramp is the constant a; c must be 0")

    def value(self, s) -> np.ndarray:
        s = np.asarray(s, float)
        if self.ramp is None:
            return np.full_like(s, self.a)
        return self.a + self.c * self.ramp.value(s)

    def deriv(self, s) -> np.ndarray:
        s = np.asarray(s, float)
        if self.ramp is None:
            return np.zeros_like(s)
        return self.c * self.ramp.rate(s)


_ZERO_MODE = RampMode(0.0)


def _times_exp(b: np.ndarray, lam: float, s: np.ndarray, anchor: float) -> np.ndarray:
    """b e^{lam (s - anchor)}; a zero coefficient wins over an overflowing
    exponential (the product underflowed upstream)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(b == 0.0, 0.0, b * np.exp(lam * (s - anchor)))


def _explicit_points(mode: RampMode, params: NeckParams) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending grid indices a mode is evaluated at, and their points.

    These are both grid ends and, for a ramp, the points of its support
    with one neighbour on each side.  Every grid point between two
    non-adjacent ones lies below the support or above it, where b is
    constant, so the grid values there are monotone in s.
    """
    n = params.s_grid
    j = np.array([0, n - 1])
    if mode.ramp is not None:
        first = max(params.count_below(mode.ramp.lo) - 1, 0)
        last = min(params.count_below(math.nextafter(mode.ramp.hi, math.inf)), n - 1)
        j = np.concatenate(([0] * (first > 0), np.arange(first, last + 1), [n - 1] * (last < n - 1)))
    return j, params.grid_points(j)


def _constant_run_sum(
    K: float, lam: float, anchor: float, j0: int, j1: int, params: NeckParams
) -> float:
    """step * sum_{j0<=j<=j1} K^2 e^{2 lambda (s_j - anchor)}, in log space; 0 for K = 0.

    The series is summed from its largest term, at s_top, down by the
    ratio e^{-y} per step.
    """
    if K == 0.0:
        return 0.0
    step = params.grid_step
    top = j1 if lam > 0.0 else j0  # an inner index, so s_top = top * step
    y = 2.0 * abs(lam) * step
    count = j1 - j0 + 1
    series = count if y == 0.0 else math.expm1(-y * count) / math.expm1(-y)
    log_sum = 2.0 * (math.log(abs(K)) + lam * top * step - lam * anchor) + math.log(step * series)
    try:
        return math.exp(log_sum)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NeckField:
    """Per-mode coefficient functions bound to a spectrum table.

    The physical field is sum_i b_i(s) e^{lambda_i s} f_i(t), each mode
    a ``RampMode``; the eigenfunctions are orthonormal, so pairings and
    norms reduce to one-dimensional s-integrals per mode.
    """

    spectrum: SpectrumTable
    params: NeckParams
    modes: Dict[int, RampMode]

    def __post_init__(self):
        # Between two explicit points every grid value is K e^{lambda s}
        # for one K, monotone in s, so the explicit points are finite
        # exactly when every grid value is.
        for i, mode in self.modes.items():
            self.spectrum.eigenvalue(i)  # raises for unknown mode
            _, s = _explicit_points(mode, self.params)
            if not np.all(np.isfinite(self.mode_value(i, s))):
                raise ValidationError(
                    f"mode {i} is not finite-energy on the stored range"
                )

    @classmethod
    def zero(cls, spectrum: SpectrumTable, params: NeckParams) -> "NeckField":
        return cls(spectrum, params, {})

    @classmethod
    def end_from_above(
        cls, spectrum: SpectrumTable, params: NeckParams, coeffs: Dict[int, float]
    ) -> "NeckField":
        """eta_plus = sum c_i e^{lambda_i (s - 2T)} f_i, positive modes anchored at 2T."""
        if any(i <= 0 for i in coeffs):
            raise ValidationError("a top end carries positive modes only")
        modes = {i: RampMode(c, anchor=params.s_max) for i, c in coeffs.items()}
        return cls(spectrum, params, modes)

    @classmethod
    def end_from_below(
        cls, spectrum: SpectrumTable, params: NeckParams, coeffs: Dict[int, float]
    ) -> "NeckField":
        """eta_minus = sum d_i e^{lambda_i s} f_i, negative modes."""
        if any(i >= 0 for i in coeffs):
            raise ValidationError("a bottom end carries negative modes only")
        return cls(spectrum, params, {i: RampMode(d) for i, d in coeffs.items()})

    def _anchored(self, i: int, s, anchor: float) -> np.ndarray:
        """The coefficient of e^{lambda_i (s - anchor)} in mode i.

        At the mode's own anchor this is a + c R(s) as stored; elsewhere it
        carries a factor e^{lambda_i (anchor - A)}, which can underflow or
        overflow, formed by ``_times_exp`` so a zero coefficient stays 0.
        """
        mode = self.modes.get(i, _ZERO_MODE)
        return _times_exp(mode.value(s), self.spectrum.eigenvalue(i), anchor, mode.anchor)

    def b(self, i: int, s) -> np.ndarray:
        """b_i(s), the coefficient of e^{lambda_i s}."""
        return self._anchored(i, s, 0.0)

    def mode_value(self, i: int, s) -> np.ndarray:
        """b_i(s) e^{lambda_i s}: mode i anchored at s itself."""
        s = np.asarray(s, float)
        return self._anchored(i, s, s)

    @property
    def mode_indices(self) -> List[int]:
        return sorted(self.modes)

    def star_norm(self) -> float:
        """Discrete L^2 norm of the field plus that of its s-derivative.

        Both are the trapezoid rule on ``params.grid()`` for
        (b e^{lambda s})^2 and ((b' + lambda b) e^{lambda s})^2, per mode,
        formed from the anchored coefficient.  The explicit points carry
        their own trapezoid weights; each run of grid points between two
        of them is a geometric series in the constant coefficient found at
        the run's lower neighbour.
        """
        total = 0.0
        dtotal = 0.0
        params = self.params
        for i in self.mode_indices:
            mode = self.modes[i]
            lam = self.spectrum.eigenvalue(i)
            j, s = _explicit_points(mode, params)
            below = params.grid_points(np.maximum(j - 1, 0))
            above = params.grid_points(np.minimum(j + 1, params.s_grid - 1))
            weights = 0.5 * (above - below)
            b = mode.value(s)
            db = mode.deriv(s) + lam * b
            vals, dvals = _times_exp(np.array([b, db]), lam, s, mode.anchor)
            with np.errstate(over="ignore"):
                total += float(weights @ (vals * vals))
                dtotal += float(weights @ (dvals * dvals))
            for k in np.flatnonzero(np.diff(j) > 1):
                j0, j1 = int(j[k]) + 1, int(j[k + 1]) - 1
                total += _constant_run_sum(float(b[k]), lam, mode.anchor, j0, j1, params)
                dtotal += _constant_run_sum(float(db[k]), lam, mode.anchor, j0, j1, params)
        return math.sqrt(total) + math.sqrt(dtotal)


def _shared_params(*fields: NeckField) -> NeckParams:
    """The one neck of ``fields``, which must share a spectrum kind too."""
    if any(f.spectrum.kind != fields[0].spectrum.kind for f in fields):
        raise ValidationError("fields are bound to different spectrum tables")
    if any(f.params != fields[0].params for f in fields):
        raise ValidationError("fields live on different neck grids")
    return fields[0].params


def _ends(
    eta_plus: NeckField, eta_minus: NeckField
) -> Tuple[Cutoffs, Dict[int, RampMode], Dict[int, RampMode]]:
    """The cutoffs of the ends' shared neck and each end's modes by index;
    eta_plus carries positive modes, eta_minus negative ones, all constant."""
    cut = make_cutoffs(_shared_params(eta_plus, eta_minus))
    if any(i <= 0 for i in eta_plus.mode_indices):
        raise ValidationError("eta_plus must be supported in positive modes")
    if any(i >= 0 for i in eta_minus.mode_indices):
        raise ValidationError("eta_minus must be supported in negative modes")
    ends = []
    for field, end in ((eta_plus, "top"), (eta_minus, "bottom")):
        for i, mode in field.modes.items():
            if mode.ramp is not None and mode.c != 0.0:
                raise ValidationError(
                    f"{end}-end mode {i} is not constant; the closed-form solve "
                    "applies to end data only"
                )
        ends.append({i: field.modes[i] for i in field.mode_indices})
    return cut, ends[0], ends[1]


def preglue(eta_plus: NeckField, eta_minus: NeckField) -> NeckField:
    """v_* = beta_plus eta_plus + beta_minus eta_minus on the ends' neck.

    Both ends must be constant end data on one neck.  Above the top ramp
    only eta_plus survives; below the bottom ramp only eta_minus does.
    """
    cut, top, bottom = _ends(eta_plus, eta_minus)
    modes = {i: RampMode(0.0, m.a, cut.plus, m.anchor) for i, m in top.items()}
    for i, m in bottom.items():
        modes[i] = RampMode(m.a, -m.a, cut.minus, m.anchor)  # d beta_minus = d - d ramp_minus
    return NeckField(eta_plus.spectrum, eta_plus.params, modes)


def solve_neck(eta_plus: NeckField, eta_minus: NeckField) -> Tuple[NeckField, NeckField]:
    """Solve Theta_+ = 0 and the projected Theta_- equation per mode.

    Both ends must be constant end data on one neck, and the solutions
    live on it.  They are the exact cumulative-rate integrals of the
    forcing:

    * psi_plus carries the negative modes b_i(s) = -d_i * ramp(s), where
      ramp climbs 0 -> 1 across the bottom cutoff ramp; so b_i is 0 deep
      in the neck and -d_i at the top (s = 2T).
    * psi_plus positive modes vanish: constants there lie in ker D_+ and
      are removed by the orthogonality gauge.
    * psi_minus carries positive modes b_i(s) = c_i e^{-2 lambda_i T}
      (1 - beta_plus(s)), decaying above the T0 ramp.

    Every solved mode keeps the anchor of the end mode it comes from.
    """
    cut, top, bottom = _ends(eta_plus, eta_minus)
    psi_plus_modes = {i: RampMode(0.0, -m.a, cut.minus, m.anchor) for i, m in bottom.items()}
    psi_minus_modes = {i: RampMode(m.a, -m.a, cut.plus, m.anchor) for i, m in top.items()}
    psi_plus = NeckField(eta_plus.spectrum, eta_plus.params, psi_plus_modes)
    psi_minus = NeckField(eta_plus.spectrum, eta_plus.params, psi_minus_modes)
    return psi_plus, psi_minus


def theta_residuals(
    eta_plus: NeckField,
    eta_minus: NeckField,
    psi_plus: NeckField,
    psi_minus: NeckField,
) -> Tuple[float, float]:
    """Check a neck solve against an independent integration of Theta = 0.

    The four fields must share one spectrum kind and one neck.  Per mode,
    Theta_+ = 0 reads b' = -R_-' (b[eta_-] + b[psi_-]) for
    the coefficient b of psi_+, and Theta_- = 0 reads
    b' = -R_+' (b[eta_+] + b[psi_+]) for that of psi_-, where R_+ and R_-
    are the cutoff ramps ``plus`` and ``minus``.  Each is
    integrated by cumulative Simpson over the grid, refined by the ramp
    endpoints and split into panels of at most a 512th of the ramp
    width: positive modes down from b(2T) = 0, negative modes up from
    b(0) = 0.  For each equation, returns the largest difference from the
    given solution on the grid, each mode's relative to the larger of its
    integrated and given max|b| (0 where both are 0), so modes as small
    as the e^{-2 lambda T} of psi_- are checked as closely as the others.
    """
    fields = (eta_plus, eta_minus, psi_plus, psi_minus)
    params = _shared_params(*fields)
    cut = make_cutoffs(params)
    grid = params.grid()
    knots = np.union1d(grid, [cut.plus.lo, cut.plus.hi, cut.minus.lo, cut.minus.hi])
    widths = np.diff(knots)
    panels = max(1, math.ceil(widths.max() * RESIDUAL_PANELS_PER_RAMP / params.ramp_width))
    unit_nodes, simpson = _simpson_rule(0.0, 1.0, 2 * panels)
    nodes = knots[:-1, None] + widths[:, None] * unit_nodes
    at_grid = np.searchsorted(knots, grid)
    modes = sorted(set().union(*(f.modes for f in fields)))

    def residual(psi, ramp, *sources):
        rate = ramp.rate(nodes)
        worst = 0.0
        for i in modes:
            # in the anchor of the first field carrying the mode, so a top
            # mode whose e^{-2 lambda T} underflows is checked all the same
            anchor = next((f.modes[i].anchor for f in (psi, *sources) if i in f.modes), 0.0)
            forcing = -rate * sum(src._anchored(i, nodes, anchor) for src in sources)
            b = np.concatenate(([0.0], np.cumsum((forcing @ simpson) * widths)))
            if i > 0:
                b -= b[-1]
            integrated, solved = b[at_grid], psi._anchored(i, grid, anchor)
            scale = max(np.max(np.abs(integrated)), np.max(np.abs(solved)))
            if scale > 0:
                diff = np.max(np.abs(integrated - solved))
                worst = max(worst, float(diff / scale))
        return worst

    return (
        residual(psi_plus, cut.minus, eta_minus, psi_minus),
        residual(psi_minus, cut.plus, eta_plus, psi_plus),
    )


@dataclass(frozen=True)
class SigmaEntry:
    """One model cokernel element: sum_j coeffs[j] e^{-lambda_j s} f_j."""

    index: int
    coeffs: Dict[int, float]
    spectrum: SpectrumTable


@dataclass(frozen=True)
class CokernelBasisModel:
    """Model cokernel basis with prescribed leading asymptotics.

    ``c[i][j]`` (0-based, upper triangular with unit diagonal) are the
    positive-end tail coefficients of sigma_i against f_{j+1}; row k-1 is
    the element identified with the cobordism-direction generator Y.
    ``d[i][col]`` are negative-end coefficients against g_{col-k} (col 0
    is j = -k); row i may populate columns 0..i-1 only, row k-1 only the
    column for j = -1.
    """

    k: int
    spectrum_plus: SpectrumTable
    c: Tuple[Tuple[float, ...], ...] = None
    spectrum_minus: Optional[SpectrumTable] = None
    d: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self):
        check_integer("cokernel rank k", self.k)
        if self.k < 1:
            raise ValidationError("cokernel rank k must be >= 1")
        if self.c is None:
            identity = tuple(tuple(float(i == j) for j in range(self.k)) for i in range(self.k))
            object.__setattr__(self, "c", identity)
        if self.d is not None and self.spectrum_minus is None:
            raise ValidationError("negative-end data needs its spectrum table")
        for name in ("c", "d") if self.d is not None else ("c",):
            m = getattr(self, name)
            if len(m) != self.k or any(len(row) != self.k for row in m):
                raise ValidationError(f"{name} must be a k x k matrix")
            if not all(math.isfinite(x) for row in m for x in row):
                raise ValidationError(f"{name} must be finite")
        for i in range(self.k):
            if self.c[i][i] != 1.0:
                raise ValidationError("c must have unit diagonal")
            for j in range(i):
                if self.c[i][j] != 0.0:
                    raise ValidationError("c must be upper triangular")
        if max(self.spectrum_plus.indices) < self.k:
            raise ValidationError("spectrum table too small for the cokernel rank")
        if self.d is not None:
            for i in range(self.k):
                for col in range(self.k):
                    # 0-based row i is sigma'_{i+1}: columns 0..i allowed
                    # (j = -k .. -k+i); the last row touches j = -1 only.
                    allowed = (col <= i) if i < self.k - 1 else (col == self.k - 1)
                    if self.d[i][col] != 0.0 and not allowed:
                        raise ValidationError(
                            f"d[{i}][{col}] violates the triangular support pattern"
                        )

    @classmethod
    def exact(cls, k: int, spectrum: SpectrumTable) -> "CokernelBasisModel":
        """The tail-free model sigma_i = e^{-lambda_i s} f_i."""
        return cls(k=k, spectrum_plus=spectrum)

    def sigma(self, i: int) -> SigmaEntry:
        """Positive-end data of sigma_i, 1-based."""
        check_integer("sigma index", i)
        if not 1 <= i <= self.k:
            raise ValidationError(f"sigma index {i} out of range 1..{self.k}")
        coeffs = {j + 1: x for j, x in enumerate(self.c[i - 1]) if x != 0.0}
        return SigmaEntry(index=i, coeffs=coeffs, spectrum=self.spectrum_plus)


def obstruction_pairing(sigma: SigmaEntry, fld: NeckField, n_quad: Optional[int] = None) -> float:
    """Discrete L^2 pairing <sigma, R_+' * field> over the field's neck,
    R_+ its ``plus`` cutoff ramp, by Simpson with n_quad (default the
    neck's s_grid) panels.

    For a single constant mode this reduces to c_i e^{-2 lambda_i T}
    times the ramp-rate integral (which is one), so the value is pure
    quadrature error away from the closed form.
    """
    if sigma.spectrum.kind != fld.spectrum.kind:
        raise ValidationError("sigma and field are bound to different spectra")
    ramp = make_cutoffs(fld.params).plus
    s, weights = _simpson_rule(ramp.lo, ramp.hi, fld.params.s_grid if n_quad is None else n_quad)
    rate = ramp.rate(s)
    total = 0.0
    for j, coeff in sigma.coeffs.items():
        # e^{-lam s} * b e^{lam s} = b
        total += coeff * float(weights @ (rate * fld.b(j, s)))
    return total


def momo_check(eta_plus: NeckField, eta_minus: NeckField) -> Dict[str, float]:
    """Constancy of positive modes and ramp endpoints of negative modes.

    Returns the maximal deviations: positive-mode drift of psi_+ across
    the neck and |b_i(2T) + d_i| over the bottom-end modes.  For valid
    ends both are exactly 0.0: psi_+ has no positive modes, so the drift
    is the default 0.0, and each endpoint is 0.0 + (-d) + d.  This guards
    ``solve_neck`` against regression; it measures no numerical error.
    """
    psi_plus, _ = solve_neck(eta_plus, eta_minus)
    drift = max((abs(m.c) for i, m in psi_plus.modes.items() if i > 0), default=0.0)
    endpoint = max(
        (abs(psi_plus.modes[i].a + psi_plus.modes[i].c + eta_minus.modes[i].a)
         for i in eta_minus.modes),
        default=0.0,
    )
    return {"positive_mode_drift": drift, "endpoint_deviation": endpoint}


def _case_b_pairing(
    T_minus: float,
    T_plus: float,
    cokernel: CokernelBasisModel,
    c_coeffs: Sequence[float],
    d_coeffs: Sequence[float],
    top: float,
    bottom: float,
) -> np.ndarray:
    """The case-B sums of ``two_sided_pairing``, the top one times
    ``top`` and the bottom one times ``bottom``: the integrals of the two
    ramp rates, 1.0 each in closed form."""
    check_positive("T_minus", T_minus)
    check_positive("T_plus", T_plus)
    k = cokernel.k
    if len(c_coeffs) != k:
        raise ValidationError(f"need {k} top-end coefficients")
    if len(d_coeffs) != k:
        raise ValidationError(f"need {k} bottom-end coefficients")
    if not all(map(math.isfinite, (*c_coeffs, *d_coeffs))):
        raise ValidationError("end coefficients must be finite")
    lam_plus = [cokernel.spectrum_plus.eigenvalue(j) for j in range(1, k + 1)]
    if cokernel.d is not None:
        lam_minus = [cokernel.spectrum_minus.eigenvalue(j) for j in range(-k, 0)]
    out = np.zeros(k - 1)
    for i in range(1, k):
        # sigma tail e^{-lam s} against c_j e^{lam (s - 2T_+)}
        out[i - 1] = top * sum(
            cokernel.c[i - 1][j] * c_coeffs[j] * math.exp(-2.0 * lam_plus[j] * T_plus)
            for j in range(i - 1, k)
        )
        if cokernel.d is not None:
            out[i - 1] -= bottom * sum(
                cokernel.d[i - 1][col] * d_coeffs[col] * math.exp(2.0 * lam_minus[col] * T_minus)
                for col in range(k)
            )
    return out


def two_sided_pairing(
    T_minus: float,
    T_plus: float,
    cokernel: CokernelBasisModel,
    c_coeffs: Sequence[float],
    d_coeffs: Sequence[float],
) -> np.ndarray:
    """Case-B obstruction values against sigma'_1 .. sigma'_{k-1}.

    Entry i is

        sum_{i<=j<=k} c_{i,j} c_j e^{-2 lambda_j T_+}
        - sum_{-k<=j<=-k+i-1} d_{i,j} d_j e^{2 lambda'_j T_-}.
    """
    return _case_b_pairing(T_minus, T_plus, cokernel, c_coeffs, d_coeffs, 1.0, 1.0)


def two_sided_pairing_quadrature(
    T_minus: float,
    T_plus: float,
    cokernel: CokernelBasisModel,
    c_coeffs: Sequence[float],
    d_coeffs: Sequence[float],
    params: NeckParams,
    n_quad: int = 4096,
) -> np.ndarray:
    """Direct neck quadrature of the case-B pairing (cross-check oracle).

    The top pairing integrates over the upward ramp at +T0, the bottom
    over the downward ramp at -T0, each rate normalized to integrate to
    one in the direction away from the middle level.  The smoothstep rate
    is symmetric, so the downward rate is that of a ramp climbing across
    [-T0 - w, -T0].
    """
    w = params.ramp_width

    def rate_integral(ramp: Ramp) -> float:
        s, weights = _simpson_rule(ramp.lo, ramp.hi, n_quad)
        return float(weights @ ramp.rate(s))

    top = rate_integral(Ramp(params.T0, w))
    bottom = rate_integral(Ramp(-params.T0 - w, w))
    return _case_b_pairing(T_minus, T_plus, cokernel, c_coeffs, d_coeffs, top, bottom)


@dataclass(frozen=True)
class SweepRow:
    """One neck and bottom-end amplitude of ``estimate_sweep``, its norms and their ratio."""

    params: NeckParams
    amplitude: float
    psi_plus_norm: float
    psi_minus_norm: float
    ratio: float


@dataclass(frozen=True)
class SweepReport:
    """The rows of ``estimate_sweep``, one per neck and amplitude, in input order."""

    rows: Tuple[SweepRow, ...]

    @property
    def max_ratio(self) -> float:
        return max((row.ratio for row in self.rows), default=0.0)

    def ratios_nonincreasing_in_T(self) -> bool:
        """Monotonicity in T within each family (rows whose amplitudes and
        neck fields but T agree), up to a relative 1e-5 of discrete-norm
        quadrature jitter; rows of different families are not compared."""
        others = [f.name for f in dataclass_fields(NeckParams) if f.name != "T"]
        by_family: Dict[tuple, List[SweepRow]] = {}
        for row in self.rows:
            family = (row.amplitude, *(getattr(row.params, name) for name in others))
            by_family.setdefault(family, []).append(row)
        for rows in by_family.values():
            rows = sorted(rows, key=lambda row: row.params.T)
            for a, b in zip(rows, rows[1:]):
                if b.ratio > a.ratio * (1.0 + 1e-5):
                    return False
        return True


def estimate_sweep(
    params_grid: Sequence[NeckParams],
    amplitudes: Sequence[float],
) -> SweepReport:
    """Measured solution norms against the contraction-estimate bound.

    For each neck geometry and bottom-end amplitude, solve the linear
    neck problem with eta_minus = amplitude * (mode -1) and report
    ||psi_+||_* / (r^{-1}(e^{-lambda T} + ||psi_-||_*)), the measured
    analogue of the a-priori bound constant, on the closed-form
    pos_hyperbolic(0.5) spectrum of modes -1 and 1, the only ones it reads.

    The solve is linear in the end data and each norm is homogeneous, so
    each neck is solved and measured once, at amplitude 1, and a row's
    norms are |amplitude| times those.  Each amplitude is still checked
    as a mode coefficient: a NaN or infinite one raises ValidationError.
    A norm that the per-amplitude sums would overflow or underflow (at
    amplitude 1e300 or 1e-300) is thus the scaled, finite value.
    """
    spectrum = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.5), 1)
    lam = min(spectrum.eigenvalue(1), abs(spectrum.eigenvalue(-1)))
    rows: List[SweepRow] = []
    for params in params_grid:
        eta_plus = NeckField.zero(spectrum, params)
        eta_minus = NeckField.end_from_below(spectrum, params, {-1: 1.0})
        unit_plus, unit_minus = (psi.star_norm() for psi in solve_neck(eta_plus, eta_minus))
        tail = math.exp(-lam * params.T)
        for amp in amplitudes:
            RampMode(amp)  # the coefficient the unscaled solve would carry
            scale = abs(float(amp))
            plus_norm, minus_norm = scale * unit_plus, scale * unit_minus
            denom = (tail + minus_norm) / params.r
            rows.append(
                SweepRow(
                    params=params,
                    amplitude=amp,
                    psi_plus_norm=plus_norm,
                    psi_minus_norm=minus_norm,
                    ratio=plus_norm / denom if denom > 0 else 0.0,
                )
            )
    return SweepReport(rows=tuple(rows))
