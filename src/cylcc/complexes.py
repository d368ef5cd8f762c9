"""The rational chain complex built from orbit and curve-count data.

Generators are good Reeb orbits graded by Conley-Zehnder index; the
differential counts index-1 cylinders weighted by 1/m(target orbit).
Everything at the chain level is exact rational arithmetic.

A dataset may additionally carry cobordism-level counts (chain maps,
grading 0), homotopy counts (levels ``k_plus``/``k_minus``, grading +1),
a plus/minus side split, and a stage decomposition for direct limits.

The differential strictly lowers action, so the generators of action
below any L span a subcomplex C^{<L}.  A dataset's complexes list each
grading's generators in (action, id) order, so the generators below L
are a prefix of each grading, and the blocks of C^{<L} are leading
corners of the full blocks (column prefixes, whose rows below L hold
every nonzero entry); its d^2 is the same corner of the full d^2.  So
each (side, stage) selection of a dataset is assembled, squared and
eliminated once (Zomorodian & Carlsson, "Computing persistent
homology", 2005), and every action cut reads its d^2 verdict and ranks
off that one filtration.  Complex blocks are read-only once built.
"""

from __future__ import annotations

import math
import numbers
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import ratmat
from .errors import DatasetError, DomainError, IntegerCoefficientWarning, ValidationError
from .indices import ReebOrbit

LEVEL_SYMPLECTIZATION = "symplectization"
LEVEL_COBORDISM = "cobordism"
LEVEL_K_PLUS = "k_plus"
LEVEL_K_MINUS = "k_minus"
LEVELS = (LEVEL_SYMPLECTIZATION, LEVEL_COBORDISM, LEVEL_K_PLUS, LEVEL_K_MINUS)

# Grading drop enforced per level: the differential drops cz by 1, chain
# maps preserve it, homotopy maps raise it by 1.
LEVEL_GRADING_DROP = {
    LEVEL_SYMPLECTIZATION: 1,
    LEVEL_COBORDISM: 0,
    LEVEL_K_PLUS: -1,
    LEVEL_K_MINUS: -1,
}


@dataclass(frozen=True)
class OrbitRecord:
    """An orbit plus dataset-level metadata (side/stage, file location)."""

    orbit: ReebOrbit
    side: Optional[str] = None  # "plus" | "minus"
    stage: Optional[int] = None
    location: str = "<memory>"


@dataclass(frozen=True)
class CurveRecord:
    level: str
    ind: int
    from_id: str
    to_id: str
    count: Fraction
    tag: Optional[str] = None
    location: str = "<memory>"


@dataclass(frozen=True)
class Diagnostic:
    location: str
    message: str

    def __str__(self):
        return f"{self.location}: {self.message}"


@dataclass(frozen=True)
class ModuliDataset:
    """Validated orbits and curves; treat it, its dict included, as immutable.

    :func:`differential_matrix` caches the filtration of each (side,
    stage) selection on the dataset, for as long as the dataset lives.
    Actions are compared by their exact integer keys (``_action_keys``).
    """

    orbits: Dict[str, OrbitRecord]
    curves: Tuple[CurveRecord, ...]
    # (side, stage) -> the _Filtration of that selection, built on first use.
    _filtrations: Dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def orbit(self, oid: str) -> ReebOrbit:
        return self.orbits[oid].orbit

    def orbit_ids(self, side=None, stage=None) -> List[str]:
        out = []
        for oid, rec in self.orbits.items():
            if side is not None and rec.side != side:
                continue
            if stage is not None and rec.stage != stage:
                continue
            out.append(oid)
        return sorted(out)

    @property
    def stages(self) -> List[int]:
        return sorted({r.stage for r in self.orbits.values() if r.stage is not None})

    @cached_property
    def _action_keys(self) -> Tuple[Dict[str, int], int]:
        """``(key, lcm)``: each orbit's exact action times one positive lcm, an int."""
        keys, lcm = ratmat.clear([rec.orbit.action for rec in self.orbits.values()])
        return dict(zip(self.orbits, keys)), lcm


def load_dataset(orbit_records, curve_records) -> ModuliDataset:
    """Validate records into a dataset; collects every violation.

    ``orbit_records`` may contain bare :class:`ReebOrbit` objects or
    :class:`OrbitRecord` wrappers.
    """
    diagnostics: List[Diagnostic] = []
    orbits: Dict[str, OrbitRecord] = {}

    for rec in orbit_records:
        if isinstance(rec, ReebOrbit):
            rec = OrbitRecord(rec)
        oid = rec.orbit.id
        if oid in orbits:
            diagnostics.append(
                Diagnostic(
                    rec.location,
                    f"duplicate orbit id {oid!r} (first seen at {orbits[oid].location})",
                )
            )
            continue
        orbits[oid] = rec

    # Bad orbits are never generators; reject them at the door.
    for rec in orbits.values():
        if rec.orbit.is_bad:
            diagnostics.append(
                Diagnostic(
                    rec.location,
                    f"orbit {rec.orbit.id} is bad (even cover of a negative "
                    "hyperbolic orbit) and cannot generate the complex",
                )
            )

    dataset = ModuliDataset(orbits=orbits, curves=tuple(curve_records))
    key, _ = dataset._action_keys

    # Orbits sharing a simple orbit must agree on its type, action and cz.
    by_simple: Dict[str, OrbitRecord] = {}
    for rec in orbits.values():
        o = rec.orbit
        prev = by_simple.get(o.simple_id)
        if prev is None:
            by_simple[o.simple_id] = rec
            continue
        p = prev.orbit
        if p.simple_type != o.simple_type:
            diagnostics.append(
                Diagnostic(rec.location, f"orbit {o.id}: simple orbit {o.simple_id} "
                           f"type disagrees with {p.id}")
            )
        if key[o.id] * p.multiplicity != key[p.id] * o.multiplicity:
            diagnostics.append(
                Diagnostic(rec.location, f"orbit {o.id}: action/multiplicity ratio "
                           f"disagrees with {p.id} over simple orbit {o.simple_id}")
            )
        if p.cz_simple != o.cz_simple:
            diagnostics.append(
                Diagnostic(rec.location, f"orbit {o.id}: cz of simple orbit "
                           f"{o.simple_id} disagrees with {p.id}")
            )

    for cur in dataset.curves:
        loc = cur.location
        if cur.level not in LEVELS:
            diagnostics.append(Diagnostic(loc, f"unknown curve level {cur.level!r}"))
            continue
        # Fraction first: files give Fractions, and the ABC check is slower.
        if isinstance(cur.count, bool) or not isinstance(cur.count, (Fraction, numbers.Rational)):
            diagnostics.append(Diagnostic(loc, f"curve count must be rational, got {cur.count!r}"))
        missing = [oid for oid in (cur.from_id, cur.to_id) if oid not in orbits]
        if missing:
            for oid in missing:
                diagnostics.append(Diagnostic(loc, f"unknown orbit id {oid!r}"))
            continue
        src = orbits[cur.from_id]
        dst = orbits[cur.to_id]
        for rec in (src, dst):
            if rec.orbit.is_bad:
                diagnostics.append(
                    Diagnostic(
                        loc,
                        f"orbit {rec.orbit.id} is bad (even cover of a negative "
                        "hyperbolic orbit) and cannot be a generator",
                    )
                )
        drop = LEVEL_GRADING_DROP[cur.level]
        if cur.ind != drop:
            diagnostics.append(
                Diagnostic(
                    loc,
                    f"{cur.level} curve must declare ind={drop}, got {cur.ind}",
                )
            )
        if src.orbit.cz - dst.orbit.cz != drop:
            diagnostics.append(
                Diagnostic(
                    loc,
                    f"{cur.level} curve must drop the grading by {drop}; "
                    f"cz({cur.from_id})={src.orbit.cz}, cz({cur.to_id})={dst.orbit.cz}",
                )
            )
        if cur.level == LEVEL_SYMPLECTIZATION:
            if key[cur.from_id] <= key[cur.to_id]:
                diagnostics.append(
                    Diagnostic(
                        loc,
                        f"action must strictly decrease along symplectization "
                        f"curves: {src.orbit.action} -> {dst.orbit.action}",
                    )
                )
            if src.side is not None and src.side != dst.side:
                diagnostics.append(
                    Diagnostic(loc, "symplectization curve endpoints lie on "
                               "different sides")
                )
            if src.stage is not None and src.stage != dst.stage:
                diagnostics.append(
                    Diagnostic(loc, "symplectization curve endpoints lie in "
                               "different stages")
                )
        else:
            if key[cur.from_id] < key[cur.to_id]:
                diagnostics.append(
                    Diagnostic(
                        loc,
                        f"action must weakly decrease along {cur.level} curves: "
                        f"{src.orbit.action} -> {dst.orbit.action}",
                    )
                )
            if src.side is not None and (src.side, dst.side) != ("plus", "minus"):
                diagnostics.append(
                    Diagnostic(loc, f"{cur.level} curve must run from side plus "
                               "to side minus")
                )
            if src.stage is not None and dst.stage != src.stage + 1:
                diagnostics.append(
                    Diagnostic(loc, f"{cur.level} curve must connect consecutive "
                               f"stages, got {src.stage} -> {dst.stage}")
                )

    if diagnostics:
        raise DatasetError(diagnostics)
    return dataset


@dataclass(frozen=True)
class GradedRationalComplex:
    """Generators by grading plus differential blocks over the rationals.

    ``blocks[g]`` is the matrix of the differential C_g -> C_{g-1}, with
    columns indexed by ``generators[g]`` and rows by ``generators[g-1]``.
    Missing blocks are zero.  A complex from :func:`differential_matrix`
    lists each grading in (action, id) order; one built by hand keeps the
    order it is given.  Blocks are read-only once the complex is built:
    :func:`verify_d_squared` and :func:`homology` read the complex's
    filtration, not these rows.
    """

    generators: Dict[int, Tuple[str, ...]]
    blocks: Dict[int, ratmat.Matrix]
    # (filtration, n): the complex keeps the first n[g] generators of each
    # grading g (n None: all) of its dataset's filtration, or is all of
    # its own, made on first use by _filtered.
    _cut: Optional[Tuple["_Filtration", Optional[Dict[int, int]]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        _check_shapes("differential", self.blocks, self, self, -1)

    @property
    def gradings(self) -> List[int]:
        return sorted(self.generators)

    def block(self, g: int) -> ratmat.Matrix:
        return self.differential.block(g)

    def dim(self, g: int) -> int:
        return len(self.generators.get(g, ()))

    def _filtered(self) -> Tuple["_Filtration", Optional[Dict[int, int]]]:
        """``(filtration, n)``: this complex is the cut n of the filtration."""
        if self._cut is None:
            object.__setattr__(self, "_cut", (_Filtration(self.generators, self.blocks), None))
        return self._cut

    @cached_property
    def differential(self) -> "GradedMap":
        """The differential as a degree -1 self-map, built on first use."""
        return GradedMap(source=self, target=self, degree=-1, blocks=self.blocks)


def _check_shapes(what, blocks, source, target, degree):
    """Block g must be dim target(g + degree) x dim source(g)."""
    sources, targets = source.generators, target.generators
    for g, block in blocks.items():
        nrows, ncols = len(targets.get(g + degree, ())), len(sources.get(g, ()))
        if len(block) != nrows or any(map(ncols.__ne__, map(len, block))):
            raise ValidationError(
                f"{what} block at grading {g} has shape {ratmat.shape(block)}, "
                f"expected ({nrows},{ncols})"
            )


def differential_matrix(
    dataset: ModuliDataset,
    action_max: Optional[Fraction] = None,
    side: Optional[str] = None,
    stage: Optional[int] = None,
) -> GradedRationalComplex:
    """Assemble the differential from index-1 curve counts.

    Entry (gamma', gamma) is the summed signed count of curves from gamma
    to gamma' divided by m(gamma'), restricted to orbits of action below
    ``action_max``, compared at its exact value.  Each grading lists its
    generators in (action, id) order, and the blocks' rows and columns
    follow it.  Non-integer coefficients only trigger an
    ``IntegerCoefficientWarning``: the integrality of true data is a
    theorem, not an input invariant.

    The full complex of each (``side``, ``stage``) is assembled once per
    dataset.  Since d strictly lowers action, the generators below
    ``action_max`` span a subcomplex, whose blocks are leading corners of
    the full blocks; each call returns fresh rows cut from them.  Complex
    blocks are read-only.  Raises DomainError for an ``action_max`` that
    is NaN, a bool or not a real number, and ValidationError for a side
    other than "plus" or "minus", for a stage the dataset does not carry,
    and for an action cut of a dataset (not built by :func:`load_dataset`)
    with a curve count that does not lower action.
    """
    if action_max is not None:
        if isinstance(action_max, bool) or not isinstance(action_max, numbers.Real):
            raise DomainError(f"action_max must be a real number or None, not {action_max!r}")
        if action_max != action_max:  # only NaN
            raise DomainError("action_max must be a number or None, not NaN")
    filtration = dataset._filtrations.get((side, stage))
    if filtration is None:
        filtration = _Filtration.of_dataset(dataset, side, stage)
        dataset._filtrations[(side, stage)] = filtration
    n = None if action_max is None else filtration.below(action_max)
    generators, blocks, nonintegral = filtration.cut(n)
    if nonintegral:
        _warn_nonintegral(LEVEL_SYMPLECTIZATION, nonintegral)
    cx = GradedRationalComplex(generators, blocks)
    object.__setattr__(cx, "_cut", (filtration, n))
    return cx


class _Filtration:
    """A complex whose differential maps each generator to earlier ones.

    A dataset's filtration lists each grading g in (action, id) order and
    keeps the ascending integer keys ``keys[g]`` of its actions (see
    ``ModuliDataset._action_keys``).  A cut keeps the first ``n[g]``
    generators of each grading, a subcomplex: its blocks and its d^2 are
    leading corners of the full ones.  The rank of a cut block is the
    number of pivot columns of the full block below ``n[g]``, so one
    elimination per block ranks every cut.  The cut n = None keeps
    everything.  The d^2 product and the elimination are computed on
    first use.  A complex built by hand is its own filtration, in the
    order it is given, and is never cut (``GradedRationalComplex._filtered``).
    """

    def __init__(
        self, generators, blocks, keys=None, lcm=1, counts=(), nonintegral=(), orbits=None
    ):
        self.generators = generators
        self.blocks = blocks
        self.keys = keys  # grading -> ascending action keys of its generators
        self.lcm = lcm  # the keys are actions times lcm
        self.counts = counts  # ((gamma, gamma'), summed count) of each counted pair
        self.nonintegral = nonintegral  # (gamma, gamma', non-integer coefficient)
        self.orbits = orbits  # the dataset's orbit records, for messages

    @classmethod
    def of_dataset(cls, dataset: ModuliDataset, side, stage) -> "_Filtration":
        if side not in (None, "plus", "minus"):
            raise ValidationError(f"side must be 'plus', 'minus' or None, not {side!r}")
        key, lcm = dataset._action_keys
        keyed: Dict[int, List[Tuple[int, str]]] = {}
        for oid in dataset.orbit_ids(side=side, stage=stage):
            keyed.setdefault(dataset.orbits[oid].orbit.cz, []).append((key[oid], oid))
        if not keyed and stage is not None and stage not in dataset.stages:
            raise ValidationError(
                f"stage {stage!r} is not among the dataset's stages {dataset.stages}"
            )
        generators, keys = {}, {}
        for g, pairs in keyed.items():
            keys[g], generators[g] = zip(*sorted(pairs))
        blocks, items, nonintegral = _assemble(
            dataset, LEVEL_SYMPLECTIZATION, None, generators, generators
        )
        return cls(generators, blocks, keys, lcm, items, nonintegral, dataset.orbits)

    @cached_property
    def sources(self):
        """``(first, nonintegral)`` of the curve counts, computed on first use.

        ``first[g]`` is the first column of a source in block g, and
        ``nonintegral`` pairs each non-integer entry with the grading and
        column of its source.  Raises ValidationError, on every use, for
        an entry that does not lower action, since a cut would then not be
        a subcomplex.
        """
        at = {oid: (g, j) for g, ids in self.generators.items() for j, oid in enumerate(ids)}
        first: Dict[int, int] = {}
        for (fid, tid), _ in self.counts:
            (g, j), (h, i) = at[fid], at[tid]
            if not self.keys[h][i] < self.keys[g][j]:
                raise ValidationError(
                    f"symplectization entry {fid} -> {tid} does not lower action "
                    f"({self.orbits[fid].orbit.action} -> {self.orbits[tid].orbit.action}); "
                    "action cuts need d to lower action"
                )
            first[g] = min(first.get(g, j), j)
        return first, [(at[e[0]], e) for e in self.nonintegral]

    def below(self, action_max) -> Dict[int, int]:
        """Per grading, how many generators have action below ``action_max``."""
        if -math.inf < action_max < math.inf:
            (num,), den = ratmat.clear([action_max])
            bound = -(-num * self.lcm // den)  # keys are ints: below ceil(bound) is below bound
        else:
            bound = math.inf if action_max > 0 else -math.inf
        return {g: bisect_left(keys, bound) for g, keys in self.keys.items()}

    def cut(self, n: Optional[Dict[int, int]]):
        """Generators, fresh blocks and non-integer entries of the cut n.

        A block is kept when one of its curve counts starts in the cut.
        """
        if n is None:
            blocks = {g: [row[:] for row in block] for g, block in self.blocks.items()}
            return dict(self.generators), blocks, self.nonintegral
        first, nonintegral = self.sources
        generators = {g: ids[:n[g]] for g, ids in self.generators.items() if n[g]}
        blocks = {
            g: [row[:n[g]] for row in block[:n[g - 1]]]
            for g, block in self.blocks.items()
            if first[g] < n[g]
        }
        return generators, blocks, [e for (g, j), e in nonintegral if j < n[g]]

    @cached_property
    def full_d_squared(self) -> "GradedMap":
        """d^2 of the whole complex, computed on first use."""
        d = GradedRationalComplex(self.generators, self.blocks).differential
        return d.compose(d)

    def d_squared(self, cut: GradedRationalComplex, n) -> "IdentityCheck":
        """The d^2 verdict of ``cut``, the cut n: a leading corner of the full d^2."""
        if n is None:
            return self.full_d_squared.first_nonzero()
        blocks = {
            g: [row[:n[g]] for row in block[:n[g - 2]]]
            for g, block in self.full_d_squared.blocks.items()
            if n[g]
        }
        return GradedMap(cut, cut, -2, blocks).first_nonzero()

    @cached_property
    def pivots(self) -> Dict[int, List[int]]:
        """Per nonempty block, its pivot columns."""
        return {h: ratmat.pivot_columns(b) for h, b in self.blocks.items() if b and b[0]}

    def rank(self, g: int, n: Optional[Dict[int, int]]) -> int:
        """Rank of block g of the cut n."""
        pivots = self.pivots.get(g, ())
        return len(pivots) if n is None else bisect_left(pivots, n[g])


def _assemble(
    dataset: ModuliDataset,
    level: str,
    tag: Optional[str],
    source_ids: Dict[int, Tuple[str, ...]],
    target_ids: Dict[int, Tuple[str, ...]],
):
    """Blocks, keyed by source grading, of the map counted by ``level`` curves.

    Entry (gamma', gamma) sums the counts of the curves (with ``tag``, if
    given) from gamma to gamma', divided by m(gamma').  Returns the blocks,
    the ``((gamma, gamma'), summed count)`` items in sorted order and the
    ``(gamma, gamma', coefficient)`` entries whose coefficient is not an
    integer.
    """
    drop = LEVEL_GRADING_DROP[level]
    orbits = dataset.orbits
    src_pos = {oid: (g, j) for g, ids in source_ids.items() for j, oid in enumerate(ids)}
    dst_pos = {oid: j for ids in target_ids.values() for j, oid in enumerate(ids)}

    totals: Dict[Tuple[str, str], Fraction] = {}
    for cur in dataset.curves:
        if cur.level != level or (tag is not None and cur.tag != tag):
            continue
        if cur.from_id not in src_pos or cur.to_id not in dst_pos:
            continue
        key = (cur.from_id, cur.to_id)
        if key in totals:
            totals[key] += cur.count
        else:
            totals[key] = cur.count

    blocks: Dict[int, ratmat.Matrix] = {}
    items = sorted(totals.items())
    nonintegral = []
    for (fid, tid), count in items:
        g, col = src_pos[fid]
        mult = orbits[tid].orbit.multiplicity
        # As a Python int: a numpy count's own products would wrap at 64 bits.
        coeff = count if mult == 1 else Fraction(int(count.numerator), count.denominator * mult)
        if coeff.denominator != 1:
            nonintegral.append((fid, tid, coeff))
        if g not in blocks:
            blocks[g] = ratmat.zeros(
                len(target_ids.get(g - drop, ())), len(source_ids[g])
            )
        blocks[g][dst_pos[tid]][col] = coeff
    return blocks, items, nonintegral


def _warn_nonintegral(level: str, entries) -> None:
    """Warn of each (non-integer) entry, at the caller of the public function."""
    for fid, tid, coeff in entries:
        warnings.warn(
            f"coefficient of {tid} in the {level} image of {fid} is "
            f"{coeff}, not an integer",
            IntegerCoefficientWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    grading: Optional[int] = None
    pair: Optional[Tuple[str, str]] = None
    value: Optional[Fraction] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class GradedMap:
    """A grading-homogeneous linear map between two graded complexes.

    ``blocks[g]`` maps source grading g to target grading ``g + degree``.
    Missing blocks are zero.
    """

    source: GradedRationalComplex
    target: GradedRationalComplex
    degree: int
    blocks: Dict[int, ratmat.Matrix]

    def __post_init__(self):
        _check_shapes("map", self.blocks, self.source, self.target, self.degree)

    def block(self, g: int) -> ratmat.Matrix:
        if g in self.blocks:
            return self.blocks[g]
        return ratmat.zeros(self.target.dim(g + self.degree), self.source.dim(g))

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """The map ``self . inner``, with blocks keyed by inner's source grading."""
        if inner.target.generators != self.source.generators:
            raise ValidationError(
                "cannot compose: the inner map's target has other generators "
                "than the outer map's source"
            )
        blocks = {}
        for g, block in inner.blocks.items():
            mid = g + inner.degree
            if mid in self.blocks:
                blocks[g] = ratmat.mat_mul_shaped(
                    self.blocks[mid], block, self.target.dim(mid + self.degree),
                    self.source.dim(mid), inner.source.dim(g),
                )
        return GradedMap(inner.source, self.target, self.degree + inner.degree, blocks)

    def minus(self, other: "GradedMap") -> "GradedMap":
        """The map ``self - other``; both must share source, target and degree."""
        mine = (self.degree, self.source.generators, self.target.generators)
        if mine != (other.degree, other.source.generators, other.target.generators):
            raise ValidationError("cannot subtract maps of other source, target or degree")
        blocks = {
            g: ratmat.mat_sub(self.block(g), other.block(g))
            for g in self.blocks.keys() | other.blocks.keys()
        }
        return GradedMap(self.source, self.target, self.degree, blocks)

    def first_nonzero(self) -> IdentityCheck:
        """The first nonzero entry as a failing (source, target) pair; ok if none.

        Gradings are scanned from the top, each block column by column.
        """
        for g in sorted(self.blocks, reverse=True):
            block = self.blocks[g]
            targets = self.target.generators.get(g + self.degree, ())
            for col, gamma in enumerate(self.source.generators.get(g, ())):
                for row, gamma_prime in enumerate(targets):
                    if block[row][col] != 0:
                        return IdentityCheck(
                            ok=False, grading=g, pair=(gamma, gamma_prime),
                            value=block[row][col],
                        )
        return IdentityCheck(ok=True)

    @classmethod
    def identity(cls, cx: GradedRationalComplex) -> "GradedMap":
        return cls(cx, cx, 0, {g: ratmat.identity(cx.dim(g)) for g in cx.gradings})

    @classmethod
    def zero(
        cls, source: GradedRationalComplex, target: GradedRationalComplex, degree=0
    ) -> "GradedMap":
        return cls(source=source, target=target, degree=degree, blocks={})


def graded_map_from_dataset(
    dataset: ModuliDataset,
    source: GradedRationalComplex,
    target: GradedRationalComplex,
    level: str,
    tag: Optional[str] = None,
) -> GradedMap:
    """Assemble a chain map (cobordism) or homotopy map (k levels).

    Curves are matched by level and, when given, by tag.  Coefficients
    carry the 1/m(target) weight.  A non-integer cobordism coefficient
    triggers an ``IntegerCoefficientWarning``; homotopy maps are
    genuinely rational and are not checked.
    """
    if level not in (LEVEL_COBORDISM, LEVEL_K_PLUS, LEVEL_K_MINUS):
        raise ValidationError(f"graded maps come from cobordism or k levels, not {level}")
    blocks, _, nonintegral = _assemble(
        dataset, level, tag, source.generators, target.generators
    )
    if level == LEVEL_COBORDISM:
        _warn_nonintegral(level, nonintegral)
    return GradedMap(
        source=source, target=target, degree=-LEVEL_GRADING_DROP[level], blocks=blocks
    )


def verify_d_squared(cx: GradedRationalComplex) -> IdentityCheck:
    """Exact check that consecutive differential blocks compose to zero.

    On failure reports the first offending generator pair (gamma, gamma')
    with gamma in the higher grading: in the highest failing grading, the
    first gamma in the complex's order, then its first gamma' in the order
    of the grading below.  For a complex from :func:`differential_matrix`
    that is the first pair in (action, id) order; a complex built by hand
    is scanned in the order it is given.  The verdict is read off the
    complex's filtration, which squares its differential once for this
    and :func:`homology`: its dataset's for a complex from
    :func:`differential_matrix`, else the complex itself.
    """
    filtration, n = cx._filtered()
    return filtration.d_squared(cx, n)


def homology(cx: GradedRationalComplex) -> Dict[int, int]:
    """Per-grading dimension of ker/im, by exact rational elimination.

    Raises ValidationError unless d^2 = 0.  Both are read off the
    complex's filtration (see :func:`verify_d_squared`): since d lowers
    action, the cut's d^2 is a leading corner of the full d^2, and
    rank(d_g) of the cut counts the pivots among its columns of one
    elimination of the full block, columns in action order.  So a complex
    is squared and each block eliminated once, however often it is asked.
    """
    filtration, n = cx._filtered()
    check = filtration.d_squared(cx, n)
    if not check.ok:
        raise ValidationError(
            f"d^2 != 0 at pair {check.pair} (grading {check.grading}); "
            "run verify_d_squared for details"
        )
    ranks = {g: filtration.rank(g, n) for g in cx.gradings}
    return {g: cx.dim(g) - ranks[g] - ranks.get(g + 1, 0) for g in cx.gradings}


def chain_map_check(
    d_plus: GradedRationalComplex,
    d_minus: GradedRationalComplex,
    phi: GradedMap,
) -> IdentityCheck:
    """Exact check of the chain-map identity d_minus . phi = phi . d_plus.

    Raises ValidationError unless phi runs from d_plus to d_minus.
    """
    if phi.degree != 0:
        raise ValidationError("chain maps must preserve the grading")
    lhs = d_minus.differential.compose(phi)
    return lhs.minus(phi.compose(d_plus.differential)).first_nonzero()


def chain_homotopy_check(
    phi0: GradedMap,
    phi1: GradedMap,
    k_plus: GradedMap,
    k_minus: GradedMap,
    d_plus: GradedRationalComplex,
    d_minus: GradedRationalComplex,
) -> IdentityCheck:
    """Exact check of phi1 - phi0 = K_+ . d_+ + d_- . K_-.

    Raises ValidationError unless all four maps run from d_plus to d_minus.
    """
    for k in (k_plus, k_minus):
        if k.degree != 1:
            raise ValidationError("homotopy maps must raise the grading by 1")
    for phi in (phi0, phi1):
        if phi.degree != 0:
            raise ValidationError("chain maps must preserve the grading")
    return (
        phi1.minus(phi0)
        .minus(k_plus.compose(d_plus.differential))
        .minus(d_minus.differential.compose(k_minus))
        .first_nonzero()
    )


def side_complexes(dataset: ModuliDataset):
    """The plus and minus differentials of a two-sided dataset."""
    return differential_matrix(dataset, side="plus"), differential_matrix(dataset, side="minus")


def stage_sequence(dataset: ModuliDataset):
    """Per-stage complexes and the cobordism maps between them."""
    stages = dataset.stages
    if not stages:
        raise ValidationError("dataset carries no stage labels")
    complexes = [differential_matrix(dataset, stage=s) for s in stages]
    maps = [
        graded_map_from_dataset(
            dataset, complexes[i], complexes[i + 1], LEVEL_COBORDISM
        )
        for i in range(len(stages) - 1)
    ]
    return complexes, maps


@dataclass(frozen=True)
class DirectLimitResult:
    """``dims_by_stage[g][i]`` is dim im(H_g(stage i) -> H_g(last)), stages from 1.

    The value at g is the last stage's, and g is stable when the last two
    stages agree; ``stabilized_from[g]`` is then the first stage from
    which the dimension stays at the value, else None.
    """

    dims_by_stage: Dict[int, Dict[int, int]]

    @property
    def value(self) -> Dict[int, int]:
        return {g: list(dims.values())[-1] for g, dims in self.dims_by_stage.items()}

    @property
    def stabilized_from(self) -> Dict[int, Optional[int]]:
        out = {}
        for g, dims in self.dims_by_stage.items():
            seq = list(dims.values())  # stages 1..n in order
            start = len(seq)
            while start > 1 and seq[start - 2] == seq[-1]:
                start -= 1
            out[g] = None if start == len(seq) > 1 else start
        return out

    @property
    def stabilized(self) -> Dict[int, bool]:
        return {g: start is not None for g, start in self.stabilized_from.items()}

    @property
    def all_stable(self) -> bool:
        return all(self.stabilized.values())


def direct_limit(
    stages: Sequence[GradedRationalComplex],
    maps: Sequence[GradedMap],
) -> DirectLimitResult:
    """Images of each stage's homology in the last stage's homology.

    Per grading, each stage's cycles are appended to the earlier stages'
    cycles, carried forward to it.  A chain map sends cycles to cycles, so
    up to stage i's own, the columns span B + (stage i's cycles pushed to
    the last stage), where B are the last stage's boundaries.  So one
    elimination of [B | carried] gives every image: its pivots past B.
    Raises ValidationError for an empty stage list, and unless ``maps``
    holds a chain map between each two consecutive stages.
    """
    n = len(stages)
    if not n:
        raise ValidationError("a direct limit needs at least one stage")
    if len(maps) < n - 1:
        raise ValidationError("need a chain map between each consecutive stage")

    for i in range(n - 1):
        check = chain_map_check(stages[i], stages[i + 1], maps[i])
        if not check.ok:
            raise ValidationError(
                f"stage {i + 1} -> {i + 2} map is not a chain map "
                f"(fails at {check.pair}, grading {check.grading})"
            )

    last = stages[-1]
    dims_by_stage: Dict[int, Dict[int, int]] = {}
    for g in sorted({g for s in stages for g in s.gradings}):
        # ends[i]: the carried columns up to stage i's own.
        carried, ends = ratmat.zeros(stages[0].dim(g), 0), [0]
        for i, cx in enumerate(stages):
            if i:
                carried = ratmat.mat_mul_shaped(
                    maps[i - 1].block(g), carried, cx.dim(g), stages[i - 1].dim(g), ends[-1]
                )
            # A missing block is zero: nullspace gives the identity, uneliminated.
            cycles = ratmat.nullspace(cx.blocks.get(g, []), ncols=cx.dim(g))
            carried = [row + own for row, own in zip(carried, cycles)]
            ends.append(ends[-1] + (len(cycles[0]) if cycles else 0))
        width = last.dim(g + 1)
        pivots = ratmat.pivot_columns([[*b, *c] for b, c in zip(last.block(g + 1), carried)])
        dims_by_stage[g] = {
            i: bisect_left(pivots, width + end) - bisect_left(pivots, width)
            for i, end in enumerate(ends[1:], start=1)
        }
    return DirectLimitResult(dims_by_stage)
