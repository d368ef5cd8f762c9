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
to Hermitian 2x2 blocks, one per frequency; each block is solved
numerically, and every eigenpair returned is certified by its residual
against the operator itself, applied as a stencil without assembling a
matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, IllConditionedInputError, NumericError, ValidationError

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
        ts = np.asarray(ts, dtype=float)
        c = np.cos(self.omega * ts)
        s = np.sin(self.omega * ts)
        a = np.asarray(self.cos_coeff)
        b = np.asarray(self.sin_coeff)
        return np.outer(c, a) + np.outer(s, b)

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t]))[0]


@dataclass(frozen=True)
class SampledLoop:
    """Eigenfunction known only through samples on a uniform t-grid."""

    ts: np.ndarray
    values: np.ndarray  # shape (n, 2)
    period: float = 1.0

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.mod(np.asarray(ts, dtype=float), self.period)
        out = np.empty((len(ts), 2))
        grid = np.concatenate([self.ts, [self.period]])
        closed = np.vstack([self.values, self.values[:1]])
        for j in range(2):
            out[:, j] = np.interp(ts, grid, closed[:, j])
        return out

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t]))[0]


@dataclass(frozen=True)
class SpectrumEntry:
    index: int
    eigenvalue: float
    eigenfunction: object
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
        # f_{2n-2} = e^{2pi i n t}, f_{2n-1} = i e^{2pi i n t} for n <= 0.
        if i > 0:
            n = (i + 1) // 2
            member = "e" if i % 2 == 1 else "ie"
        else:
            n = (i + 2) // 2 if i % 2 == 0 else (i + 1) // 2
            member = "e" if i % 2 == 0 else "ie"
        lam = TWO_PI * n - eps
        if i > 0 and lam <= 0 or i < 0 and lam >= 0:
            raise DomainError(
                f"elliptic index {i} needs 0 < eps < 2*pi for the sign convention"
            )
        omega = TWO_PI * n
        if member == "e":  # (cos, sin)
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
        n = a // 2 if a % 2 == 0 else (a - 1) // 2
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
    """Closed-form spectrum for indices -max_index..-1, 1..max_index."""
    if max_index < 1:
        raise DomainError("max_index must be >= 1")
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
    antiperiodic model and 1 otherwise.
    """

    grid_size: int
    s_matrix: np.ndarray
    wrap: float

    @property
    def shape(self):
        return (2 * self.grid_size, 2 * self.grid_size)

    def __matmul__(self, v) -> np.ndarray:
        """A v for a vector of length 2n, or for each column of a (2n, k) block."""
        v = np.asarray(v, dtype=float)
        loops = v.reshape(self.grid_size, 2, -1)
        ahead = np.roll(loops, -1, axis=0)
        behind = np.roll(loops, 1, axis=0)
        ahead[-1] *= self.wrap
        behind[0] *= self.wrap
        diff = (ahead - behind) * (0.5 * self.grid_size)
        return (-(J0 @ diff) - self.s_matrix @ loops).reshape(v.shape)

    def toarray(self) -> np.ndarray:
        return self @ np.eye(2 * self.grid_size)


def finite_difference_operator(
    kind_name: str, eps: float, grid_size: int
) -> StencilOperator:
    """Discretized A = -j0 d/dt - S on a uniform grid of ``grid_size`` points.

    The operator is matrix-free: it applies the centred-difference
    stencil of :class:`StencilOperator` to vectors and blocks, and
    ``toarray()`` gives its dense matrix.  eps = 0 is admitted here
    (kernel sanity checks); the public entry point validates through
    :class:`OperatorKind`.  The negative hyperbolic model wraps
    antiperiodically, f(1) = -f(0).
    """
    if kind_name not in KINDS:
        raise DomainError(f"unknown operator kind {kind_name!r}")
    wrap = -1.0 if kind_name == NEG_HYPERBOLIC else 1.0
    return StencilOperator(grid_size, _s_matrix(kind_name, eps), wrap)


def numeric_spectrum(kind: OperatorKind, grid_size: int, count: int) -> SpectrumTable:
    """Finite-difference oracle: the ``count`` eigenvalues closest to zero.

    The operator is block-circulant (block-anticirculant when antiperiodic),
    so the grid modes e^{2 pi i m t} u, m = k (or k + 1/2 if antiperiodic),
    reduce it to the Hermitian 2x2 blocks B_m = -i sigma_m j0 - S with
    sigma_m = sin(2 pi m h)/h.  Frequencies m and n/2 - m share sigma_m, so
    only 0 <= m < n/4 are physical; the others are sawtooth aliases.  Each
    block is solved numerically; an eigenpair (lambda, u) of B_m gives the
    real modes Re and Im of e^{2 pi i m t} u (one phase-fixed mode at m = 0).
    Every returned pair is certified against the stencil operator,
    ||Av - lambda v|| <= 1e-7 (1 + |lambda|), or NumericError is raised.
    Its sign is certified as well: B_m differs from the continuum block
    (sigma_m replaced by 2 pi m) by |2 pi m - sigma_m| in norm, so when
    |lambda| is no larger than that the continuum eigenvalue may have the
    other sign, the index labels may be wrong, and NumericError is raised.
    """
    if grid_size < 64:
        raise DomainError("grid_size must be >= 64")
    if count < 1 or count > grid_size // 4:
        raise DomainError("count must satisfy 1 <= count <= grid_size/4")

    n = grid_size
    freqs = np.arange(n) + (0.5 if kind.antiperiodic else 0.0)
    freqs = freqs[freqs < n / 4]
    sigma = np.sin(TWO_PI * freqs / n) * n
    vals, vecs = np.linalg.eigh(-1j * sigma[:, None, None] * J0 - kind.s_matrix())
    modes = [
        (vals[f, c], f, c, part)
        for f in range(len(freqs))
        for c in range(2)
        for part in range(2 if freqs[f] > 0 else 1)
    ]

    # Balanced selection: count//2 per sign where available (hyperbolic
    # spectra are symmetric), falling back to closest-to-zero overall.
    neg = sorted((m for m in modes if m[0] < 0), key=lambda m: -m[0])
    pos = sorted((m for m in modes if m[0] >= 0), key=lambda m: m[0])
    take_neg = min(len(neg), count // 2)
    take_pos = min(len(pos), count - take_neg)
    take_neg = min(len(neg), count - take_pos)
    chosen = neg[:take_neg] + pos[:take_pos]

    ts = np.arange(n) / n
    lams = np.array([m[0] for m in chosen])
    blocks = np.array([m[1] for m in chosen])
    symbol_error = np.abs(TWO_PI * freqs[blocks] - sigma[blocks])
    if np.any(np.abs(lams) <= symbol_error):
        raise NumericError(
            "eigenvalue signs not certified: |lambda| <= |2 pi m - sigma_m| "
            "(the margins |lambda| - |2 pi m - sigma_m| are the residuals)",
            residuals=(np.abs(lams) - symbol_error).tolist(),
        )
    columns = []
    for _, f, c, part in chosen:
        u = vecs[f, :, c]
        if freqs[f] == 0:
            big = u[np.argmax(np.abs(u))]
            u = u * (np.conj(big) / abs(big))
        wave = np.exp(TWO_PI * 1j * freqs[f] * ts)[:, None] * u
        v = (wave.imag if part else wave.real).ravel()
        columns.append(v / np.linalg.norm(v))
    modes_out = np.column_stack(columns)

    a = finite_difference_operator(kind.kind, kind.eps, n)
    residuals = np.linalg.norm(a @ modes_out - modes_out * lams, axis=0)
    if np.any(residuals > 1e-7 * (1.0 + np.abs(lams))):
        raise NumericError(
            "eigensolve residuals exceed tolerance", residuals=residuals.tolist()
        )

    indices = [-(r + 1) for r in range(take_neg)] + [r + 1 for r in range(take_pos)]
    entries = [
        _numeric_entry(i, lams[j], modes_out[:, j], ts, kind) for j, i in enumerate(indices)
    ]
    return SpectrumTable(kind, tuple(sorted(entries, key=lambda e: e.index)))


def _numeric_entry(
    index: int, lam: float, vec: np.ndarray, ts: np.ndarray, kind: OperatorKind
) -> SpectrumEntry:
    n = len(ts)
    values = vec.reshape(n, 2) * math.sqrt(n)  # unit discrete L^2 over one period
    if kind.antiperiodic:
        ts, values = np.concatenate([ts, ts + 1.0]), np.vstack([values, -values])
    loop = SampledLoop(ts, values, period=kind.loop_period)
    try:
        wind = winding_number(values)
    except IllConditionedInputError:
        wind = None
    return SpectrumEntry(index, float(lam), loop, wind)


def winding_number(loop: Sequence) -> int:
    """Total signed winding of a sampled closed planar curve about the origin.

    The samples must avoid the origin and consecutive angular steps must
    stay below pi; otherwise the input is rejected as ill-conditioned.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ValidationError("loop must be an (n, 2) array of samples")
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(radii == 0.0):
        j = int(np.argmin(radii))
        raise IllConditionedInputError(f"sample {j} lies at the origin")
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    closed = np.concatenate([angles, angles[:1]])
    steps = np.diff(closed)
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    if np.any(np.abs(steps) >= math.pi * (1.0 - 1e-12)):
        j = int(np.argmax(np.abs(steps)))
        raise IllConditionedInputError(
            f"angular jump of {steps[j]:.6f} rad at step {j} is >= pi"
        )
    total = steps.sum() / (2.0 * math.pi)
    wind = int(round(total))
    if abs(total - wind) > 1e-6:
        raise IllConditionedInputError(f"winding {total} is not integral")
    return wind


def gram_matrix(table: SpectrumTable, quad_points: int) -> np.ndarray:
    """Pairwise discrete L^2 inner products over one period [0, 1]."""
    if not table.entries:
        raise ValidationError("spectrum table is empty")
    if quad_points < 2:
        raise DomainError("quad_points must be >= 2")
    ts = (np.arange(quad_points) + 0.5) / quad_points
    samples = [e.eigenfunction.sample(ts) for e in table.entries]
    m = len(samples)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            val = float(np.sum(samples[i] * samples[j])) / quad_points
            gram[i, j] = gram[j, i] = val
    return gram
