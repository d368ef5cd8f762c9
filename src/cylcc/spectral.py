"""Spectra of the model asymptotic operators A = -j0 d/dt - S(t).

Three constant-coefficient models are supported on the circle of period
one: an elliptic model S = eps*I (0 < eps < 2pi), a positive hyperbolic
model S = [[0, eps], [eps, 0]] with periodic boundary conditions, and a
negative hyperbolic model with the same S but the twisted identification
(1, x) ~ (0, -x), i.e. antiperiodic boundary conditions.

Closed forms follow the convention that positive indices carry positive
eigenvalues,

    ... <= lambda_-2 <= lambda_-1 < 0 < lambda_1 <= lambda_2 <= ...,

and all eigenfunctions are normalized to unit L^2 norm over one period.
Within each two-dimensional eigenspace the specific cos/sin pair below
is fixed once and for all so that downstream pairings are reproducible.

A finite-difference discretization provides an independent numeric
oracle for the same spectra.  Its operator is block-circulant (periodic)
or block-anticirculant (antiperiodic), so Fourier modes reduce it exactly
to Hermitian 2x2 blocks, one per frequency; the blocks that Weyl's
inequality, less a rounding slack, cannot rule out are solved
numerically, and every eigenpair returned, a single-frequency loop like
the closed forms, is certified by its residual against the operator
itself, applied as a stencil without assembling a matrix.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    IllConditionedInputError,
    NumericError,
    ValidationError,
    check_size,
)

TWO_PI = 2.0 * math.pi

ELLIPTIC = "elliptic"
POS_HYPERBOLIC = "pos_hyperbolic"
NEG_HYPERBOLIC = "neg_hyperbolic"
KINDS = (ELLIPTIC, POS_HYPERBOLIC, NEG_HYPERBOLIC)

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _s_matrix(kind_name: str, eps: float) -> np.ndarray:
    """S of a model: eps I when elliptic, eps [[0, 1], [1, 0]] when hyperbolic.

    No range check on eps, so the stencil can also be built at eps = 0.
    """
    if kind_name == ELLIPTIC:
        return np.array([[eps, 0.0], [0.0, eps]])
    return np.array([[0.0, eps], [eps, 0.0]])


@dataclass(frozen=True)
class OperatorKind:
    """One of the three model operators together with its parameter eps."""

    kind: str
    eps: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if not math.isfinite(self.eps):
            raise DomainError(f"eps must be finite, got eps={self.eps}")
        if self.kind == ELLIPTIC:
            if not 0.0 < self.eps < TWO_PI:
                raise DomainError(
                    f"elliptic model requires 0 < eps < 2*pi, got eps={self.eps}"
                )
        else:
            if self.eps <= 0.0:
                raise DomainError(
                    f"hyperbolic models require eps > 0, got eps={self.eps}"
                )
            if self.eps > 1.0:
                warnings.warn(
                    f"eps={self.eps} is large for a hyperbolic model; "
                    "closed forms remain valid but the small-eps regime is intended",
                    stacklevel=2,
                )

    @classmethod
    def elliptic(cls, eps: float) -> "OperatorKind":
        return cls(ELLIPTIC, eps)

    @classmethod
    def pos_hyperbolic(cls, eps: float) -> "OperatorKind":
        return cls(POS_HYPERBOLIC, eps)

    @classmethod
    def neg_hyperbolic(cls, eps: float) -> "OperatorKind":
        return cls(NEG_HYPERBOLIC, eps)

    @property
    def antiperiodic(self) -> bool:
        return self.kind == NEG_HYPERBOLIC

    @property
    def loop_period(self) -> float:
        """Period over which eigenfunctions close up as loops."""
        return 2.0 if self.antiperiodic else 1.0

    def s_matrix(self) -> np.ndarray:
        return _s_matrix(self.kind, self.eps)


@dataclass(frozen=True)
class TrigLoop:
    """Single-frequency closed-form loop f(t) = A cos(omega t) + B sin(omega t).

    ``cos_coeff`` and ``sin_coeff`` are 2-vectors (A and B above).
    """

    omega: float
    cos_coeff: tuple
    sin_coeff: tuple
    period: float = 1.0

    def sample(self, ts: np.ndarray) -> np.ndarray:
        phase = self.omega * np.asarray(ts, dtype=float)
        return np.outer(np.cos(phase), self.cos_coeff) + np.outer(np.sin(phase), self.sin_coeff)

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t]))[0]


@dataclass(frozen=True)
class SpectrumEntry:
    index: int
    eigenvalue: float
    eigenfunction: TrigLoop
    winding: Optional[int]

    def __post_init__(self):
        if self.index == 0:
            raise ValidationError("spectrum indices are nonzero integers")


@dataclass(frozen=True)
class SpectrumTable:
    """Ordered eigenvalue/eigenfunction data for one model operator."""

    kind: OperatorKind
    entries: tuple

    def __post_init__(self):
        idx = [e.index for e in self.entries]
        if len(set(idx)) != len(idx):
            raise ValidationError("duplicate spectrum indices")
        for e in self.entries:
            if e.eigenvalue * e.index < 0:
                raise ValidationError(
                    f"sign(lambda_{e.index}) != sign({e.index}) violates the ordering"
                )

    def entry(self, index: int) -> SpectrumEntry:
        for e in self.entries:
            if e.index == index:
                return e
        raise KeyError(f"no spectrum entry with index {index}")

    def eigenvalue(self, index: int) -> float:
        return self.entry(index).eigenvalue

    @property
    def indices(self) -> list:
        return [e.index for e in self.entries]


def _closed_form_entry(kind: OperatorKind, i: int) -> SpectrumEntry:
    eps = kind.eps
    sgn = 1 if i > 0 else -1
    a = abs(i)

    if kind.kind == ELLIPTIC:
        # f_{2n-1} = e^{2pi i n t}, f_{2n} = i e^{2pi i n t} for n >= 1;
        # f_{2n-2} = e^{2pi i n t}, f_{2n-1} = i e^{2pi i n t} for n <= 0:
        # j = i, or i + 1 for i <= 0, is 2n - 1 for e and 2n for i e.
        j = i if i > 0 else i + 1
        n = (j + 1) // 2
        lam = TWO_PI * n - eps  # 0 < eps < 2 pi gives it the sign of i
        omega = TWO_PI * n
        if j % 2 == 1:  # e^{i omega t} = (cos, sin)
            loop = TrigLoop(omega, (1.0, 0.0), (0.0, 1.0))
        else:  # i*e^{i omega t} = (-sin, cos)
            loop = TrigLoop(omega, (0.0, 1.0), (-1.0, 0.0))
        return SpectrumEntry(i, lam, loop, winding=n)

    if kind.kind == POS_HYPERBOLIC and a == 1:
        # Constant eigenfunctions: f_1 = (1,-1)/sqrt2, f_{-1} = (1,1)/sqrt2.
        lam = sgn * eps
        v = 1.0 / math.sqrt(2.0)
        loop = TrigLoop(0.0, (v, -sgn * v), (0.0, 0.0))
        return SpectrumEntry(i, lam, loop, winding=0)

    if kind.kind == POS_HYPERBOLIC:
        n = a // 2
        member = "c" if a % 2 == 0 else "s"
        omega = TWO_PI * n
        wind = sgn * n
    else:  # negative hyperbolic, antiperiodic
        n = (a + 1) // 2
        member = "c" if a % 2 == 1 else "s"
        omega = (2 * n - 1) * math.pi
        wind = sgn * (2 * n - 1)

    rad = math.hypot(omega, eps)
    lam = sgn * rad
    # Solving f' = [[-eps, -lam], [lam, eps]] f forces the second component
    # to carry the coefficient -lam against the printed cos/sin pair.
    if member == "c":
        loop = TrigLoop(
            omega,
            (eps / rad, -lam / rad),
            (omega / rad, 0.0),
            period=kind.loop_period,
        )
    else:
        loop = TrigLoop(
            omega,
            (-omega / rad, 0.0),
            (eps / rad, -lam / rad),
            period=kind.loop_period,
        )
    return SpectrumEntry(i, lam, loop, winding=wind)


def closed_form_spectrum(kind: OperatorKind, max_index: int) -> SpectrumTable:
    """Closed-form spectrum for indices -max_index..-1, 1..max_index, max_index >= 1."""
    check_size("max_index", max_index, 1)
    entries = [
        _closed_form_entry(kind, i)
        for i in list(range(-max_index, 0)) + list(range(1, max_index + 1))
    ]
    return SpectrumTable(kind, tuple(entries))


@dataclass(frozen=True, eq=False)
class StencilOperator:
    """The finite-difference operator A, applied without assembling it.

    A vector holds the values v_0, ..., v_{n-1} in R^2 of a loop at the
    grid points j h, h = 1/n, as (v_0[0], v_0[1], v_1[0], ...).  Then

        (A v)_j = -j0 (v_{j+1} - v_{j-1}) / (2h) - S v_j,

    with v_n = wrap v_0 and v_{-1} = wrap v_{n-1}; wrap is -1 for the
    antiperiodic model and 1 otherwise.  Loops may also be given as an
    (n, 2, k) array, v[j, :, i] the value of loop i at j h, in any memory
    layout; the result then has that shape.
    """

    grid_size: int
    s_matrix: np.ndarray
    wrap: float

    @property
    def shape(self):
        return (2 * self.grid_size, 2 * self.grid_size)

    def __matmul__(self, v) -> np.ndarray:
        """A v for a vector of length 2n, or for each column of a (2n, k) block.

        Each component of the result is formed in place in one output
        array laid out in memory as ``v`` is, with no padded copy of
        ``v``: the centred difference of the other component (its two
        wrapped rows on their own), scaled by n/2 or -n/2, less its row
        of S v.
        """
        v = np.asarray(v, dtype=float)
        n, wrap = self.grid_size, self.wrap
        loops = v.reshape(n, 2, -1)
        out = np.empty_like(loops)
        x, y = loops[:, 0], loops[:, 1]
        term = np.empty_like(x)
        # -j0 d - S v = (d_1, -d_0) - S v
        for row, other, half, s_row in zip(
            out.transpose(1, 0, 2), (y, x), (0.5 * n, -0.5 * n), self.s_matrix
        ):
            np.subtract(other[2:], other[:-2], out=row[1:-1])
            row[0] = (other[1] if n > 1 else wrap * other[0]) - wrap * other[-1]
            row[-1] = wrap * other[0] - (other[-2] if n > 1 else wrap * other[-1])
            row *= half
            for s, z in zip(s_row, (x, y)):
                row -= np.multiply(s, z, out=term)
        return out.reshape(v.shape)

    def toarray(self) -> np.ndarray:
        return self @ np.eye(2 * self.grid_size)


def finite_difference_operator(
    kind_name: str, eps: float, grid_size: int
) -> StencilOperator:
    """Discretized A = -j0 d/dt - S on a uniform grid of ``grid_size`` points.

    The operator is matrix-free: it applies the centred-difference
    stencil of :class:`StencilOperator` to vectors and blocks, and
    ``toarray()`` gives its dense matrix.  eps must be a finite real
    number, or DomainError is raised; eps = 0 is admitted here (kernel
    sanity checks), and the public entry point validates through
    :class:`OperatorKind`.  The negative hyperbolic model wraps
    antiperiodically, f(1) = -f(0).
    """
    if kind_name not in KINDS:
        raise DomainError(f"unknown operator kind {kind_name!r}")
    check_size("grid_size", grid_size, 1)
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not math.isfinite(eps):
        raise DomainError(f"eps must be a finite real number, got eps={eps!r}")
    wrap = -1.0 if kind_name == NEG_HYPERBOLIC else 1.0
    return StencilOperator(grid_size, _s_matrix(kind_name, eps), wrap)


def numeric_spectrum(kind: OperatorKind, grid_size: int, count: int) -> SpectrumTable:
    """Finite-difference oracle: ``count // 2`` eigenvalues of each sign.

    The eigenvalues taken are the ``count // 2`` negative ones closest to
    zero and the ``count - count // 2`` nonnegative ones closest to zero,
    a sign short of modes giving its remainder to the other; this matches
    the index convention of :func:`closed_form_spectrum`.  Ties keep the
    order (block, column, part) of the modes below.

    The operator is block-circulant (block-anticirculant when antiperiodic),
    so the grid modes e^{2 pi i m t} u, m = k (or k + 1/2 if antiperiodic),
    reduce it to the Hermitian 2x2 blocks B_m = -i sigma_m j0 - S with
    sigma_m = sin(2 pi m h)/h.  Frequencies m and n/2 - m share sigma_m, so
    only 0 <= m < n/4 are physical; the others are sawtooth aliases.  Each
    block is solved numerically; an eigenpair (lambda, u) of column c of
    B_m gives the real modes Re (part 0) and Im (part 1) of
    e^{2 pi i m t} u (one phase-fixed mode at m = 0).  With u = a + i b
    these are the loops a cos(2 pi m t) - b sin(2 pi m t) and
    b cos(2 pi m t) + a sin(2 pi m t), returned as :class:`TrigLoop`
    scaled to unit discrete L^2 on the grid, which for 0 <= m < n/4 is
    unit L^2 over one period.

    The grid samples of all chosen modes fill one buffer, once: the cos
    and sin rows of the few distinct frequencies times each mode's
    coefficients, one matrix product.  The buffer is read in place for
    the rest.  Its sums of squares give the scales.  Its rows give the
    windings: a winding is that of the loop's samples over one loop
    period (:func:`winding_number`), None where that fails; an
    antiperiodic loop over two periods is its grid samples followed by
    their negatives, so the grid samples alone decide it (``_windings``
    with wrap -1).  Viewed as the stencil's (grid, 2, count) loops it is
    certified: every returned pair satisfies
    ||Av - lambda v|| <= 1e-7 (1 + |lambda|) ||v||, or NumericError is
    raised (also when a residual is not a number).
    Its sign is certified as well: B_m differs from the continuum block
    (sigma_m replaced by 2 pi m) by |2 pi m - sigma_m| in norm, so when
    |lambda| is no larger than that the continuum eigenvalue may have the
    other sign, the index labels may be wrong, and NumericError is raised.

    Only the first M blocks are solved, M = count + 2 doubling until it
    covers all or each sign has its share and every chosen |lambda| is below
    sigma_M - eps - 1e-9 (1 + sigma_M): B_m is -i sigma_m j0 (eigenvalues
    +-sigma_m) minus S (norm eps), so by Weyl's inequality no later block,
    sigma increasing, holds a smaller |lambda|; the slack absorbs rounding.
    """
    check_size("grid_size", grid_size, 64)
    check_size("count", count, 1)
    if count > grid_size // 4:
        raise DomainError(f"count must be at most grid_size/4 = {grid_size // 4}, got {count!r}")

    n = grid_size
    freqs = np.arange(n) + (0.5 if kind.antiperiodic else 0.0)
    freqs = freqs[freqs < n / 4]
    sigma = np.sin(TWO_PI * freqs / n) * n
    m = min(count + 2, len(freqs))
    while True:
        vals, vecs = np.linalg.eigh(-1j * sigma[:m, None, None] * J0 - kind.s_matrix())
        # Modes flat in (block, column, part) order: mode // 2 is (block, column).
        exists = np.ones((m, 2, 2), dtype=bool)
        exists[freqs[:m] == 0, :, 1] = False  # frequency 0 has no part 1
        modes = np.flatnonzero(exists)
        mode_vals = vals.ravel()[modes // 2]
        # Balanced selection: count//2 per sign where available (hyperbolic
        # spectra are symmetric), falling back to closest-to-zero overall.
        below, above = mode_vals < 0, mode_vals >= 0
        neg = modes[below][np.argsort(-mode_vals[below], kind="stable")]
        pos = modes[above][np.argsort(mode_vals[above], kind="stable")]
        take_neg = min(len(neg), count // 2)
        take_pos = min(len(pos), count - take_neg)
        take_neg = min(len(neg), count - take_pos)
        chosen = np.concatenate([neg[:take_neg][::-1], pos[:take_pos]])
        # Weyl: no block from m on has an eigenvalue of modulus below sigma_m - eps.
        if m == len(freqs) or take_neg == count // 2 and (
            np.abs(vals.ravel()[chosen // 2]).max() < sigma[m] - kind.eps - 1e-9 * (1 + sigma[m])
        ):
            break
        m = min(2 * m, len(freqs))
    blocks, columns, parts = np.unravel_index(chosen, exists.shape)

    lams = vals[blocks, columns]
    symbol_error = np.abs(TWO_PI * freqs[blocks] - sigma[blocks])
    if np.any(np.abs(lams) <= symbol_error):
        raise NumericError(
            "eigenvalue signs not certified: |lambda| <= |2 pi m - sigma_m| "
            "(the margins |lambda| - |2 pi m - sigma_m| are the residuals)",
            residuals=(np.abs(lams) - symbol_error).tolist(),
        )
    u = vecs[blocks, :, columns]
    const = np.flatnonzero(freqs[blocks] == 0)
    big = u[const, np.argmax(np.abs(u[const]), axis=1)]
    u[const] *= (np.conj(big) / np.abs(big))[:, None]
    imag = parts[:, None] == 1
    cos_coeff = np.where(imag, u.imag, u.real)
    sin_coeff = np.where(imag, u.real, -u.imag)
    # One product of the modes' weights with the cos/sin rows of the
    # distinct frequencies fills the grid samples of every mode:
    # samples[c, i, j] is component c of mode i at t = j / n.  The phase
    # 2 pi m j / n is pi (2m j mod 2n) / n, with 2m an integer.
    doubled, which = np.unique((2 * freqs[blocks]).astype(int), return_inverse=True)
    angles = np.arange(2 * n) * (math.pi / n)
    turns = np.multiply.outer(doubled, np.arange(n)) % (2 * n)
    rows = np.take([np.cos(angles), np.sin(angles)], turns, axis=1)  # (cos/sin, frequency, j)
    weights = np.zeros((2, count, 2, len(doubled)))  # (component, mode, cos/sin, frequency)
    weights[:, np.arange(count), 0, which] = cos_coeff.T
    weights[:, np.arange(count), 1, which] = sin_coeff.T
    samples = (weights.reshape(2 * count, -1) @ rows.reshape(-1, n)).reshape(2, count, n)
    del angles, turns, rows  # lowers the peak memory of what follows
    norms = np.sqrt(np.einsum("cij,cij->i", samples, samples))
    scale = math.sqrt(n) / norms  # unit L^2

    a = finite_difference_operator(kind.kind, kind.eps, n)
    windings = [None if isinstance(w, Exception) else w for w in _windings(*samples, a.wrap)]
    on_grid = samples.transpose(2, 0, 1)  # the stencil's (grid, 2, count) loops
    residual = a @ on_grid
    on_grid *= lams  # the samples are not read again
    residual -= on_grid
    residuals = np.sqrt(np.einsum("jci,jci->i", residual, residual)) / norms
    if not np.all(residuals <= 1e-7 * (1.0 + np.abs(lams))):
        raise NumericError(
            "eigensolve residuals exceed tolerance", residuals=residuals.tolist()
        )

    indices = list(range(-take_neg, 0)) + list(range(1, take_pos + 1))
    coeffs = zip((cos_coeff * scale[:, None]).tolist(), (sin_coeff * scale[:, None]).tolist())
    entries = []
    for i, lam, omega, (cos_c, sin_c), wind in zip(
        indices, lams, TWO_PI * freqs[blocks], coeffs, windings
    ):
        loop = TrigLoop(float(omega), tuple(cos_c), tuple(sin_c), kind.loop_period)
        entries.append(SpectrumEntry(i, float(lam), loop, wind))
    return SpectrumTable(kind, tuple(entries))


def _windings(x: np.ndarray, y: np.ndarray, wrap: float = 1.0) -> Iterator:
    """Winding about the origin of each closed curve sampled as a row of x and y.

    The steps run from each sample to the next and from the last to
    ``wrap`` times the first.  With wrap = 1 a row is a closed curve;
    with wrap = -1 it is the first half of one whose second half is the
    row negated (an antiperiodic loop over two periods), whose steps,
    and so whose total, count twice.

    Each gets its winding or the error it fails on: a non-finite sample
    (ValidationError), a sample at the origin, an angular step of pi or
    more, or a non-integral total (IllConditionedInputError).  The first
    three rules are screened for all rows at once: a row passes when the
    max-norm radii of its samples are all positive and finite (0 only at
    the origin, finite only for finite samples) and its reduced steps
    all lie strictly within pi (1 - 1e-12).  Only a row that fails the
    screen is searched for the sample it fails on.

    The last rule is a guard only.  The raw angle steps of a closed row,
    the last one back to the first sample, sum to 0, and bringing a step
    into [-pi, pi) adds a multiple of 2 pi, so the total is an integer up
    to the rounding of the sum: no finite input is known to fail it.
    """
    radii = np.abs(x)
    np.maximum(radii, abs(y), out=radii)
    fine = (radii.min(axis=1) > 0.0) & (radii.max(axis=1) < math.inf)
    del radii
    angles = np.arctan2(y, x)
    steps = np.empty(angles.shape)
    flat = angles.ravel()
    np.subtract(flat[1:], flat[:-1], out=steps.ravel()[:-1])  # the last column is set next
    np.subtract(np.arctan2(wrap * y[:, 0], wrap * x[:, 0]), angles[:, -1], out=steps[:, -1])
    del angles, flat
    np.subtract(steps, TWO_PI, out=steps, where=steps >= math.pi)  # into [-pi, pi)
    np.add(steps, TWO_PI, out=steps, where=steps < -math.pi)
    totals = steps.sum(axis=1) * (1 if wrap > 0 else 2) / TWO_PI
    limit = math.pi * (1.0 - 1e-12)
    fine &= (steps.max(axis=1) < limit) & (steps.min(axis=1) > -limit)
    for row, (total, ok) in enumerate(zip(totals.tolist(), fine.tolist())):
        if not ok:
            finite = np.isfinite(x[row]) & np.isfinite(y[row])
            origin = (x[row] == 0.0) & (y[row] == 0.0)
            if not finite.all():
                bad = np.argmin(finite)
                sample = (x[row, bad].item(), y[row, bad].item())
                yield ValidationError(f"sample {bad} is not finite: {sample}")
            elif origin.any():
                yield IllConditionedInputError(f"sample {np.argmax(origin)} lies at the origin")
            else:
                jump = np.argmax(abs(steps[row]))
                reason = f"angular jump of {steps[row, jump]:.6f} rad at step {jump} is >= pi"
                yield IllConditionedInputError(reason)
        elif abs(total - round(total)) > 1e-6:
            yield IllConditionedInputError(f"winding {total} is not integral")
        else:
            yield round(total)


def winding_number(loop: Sequence) -> int:
    """Total signed winding of a sampled closed planar curve about the origin.

    The samples must avoid the origin and consecutive angular steps must
    stay below pi; otherwise the input is rejected as ill-conditioned.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ValidationError("loop must be an (n, 2) array of samples")
    wind = next(_windings(*pts.T[:, None]))
    if isinstance(wind, Exception):
        raise wind
    return wind


def gram_matrix(table: SpectrumTable, quad_points: int) -> np.ndarray:
    """Pairwise discrete L^2 inner products over one period [0, 1]."""
    if not table.entries:
        raise ValidationError("spectrum table is empty")
    check_size("quad_points", quad_points, 2)
    ts = (np.arange(quad_points) + 0.5) / quad_points
    samples = np.stack([e.eigenfunction.sample(ts).ravel() for e in table.entries])
    return samples @ samples.T / quad_points
