"""Orbit classification and index arithmetic.

Covers good/bad and even/odd classification of Reeb orbits,
Conley-Zehnder indices of multiple covers, the Fredholm index formula

    ind(u) = -chi(F) + sum mu(gamma_+) - sum mu(gamma_-) + 2 c_1,

the cover index law ind(v) = k*ind(u) + b, the automatic-transversality
inequality, and the winding-bound checks against a spectrum table.

All Conley-Zehnder data is stored relative to one user-declared framing;
the relative first Chern number is an explicit input and is never
re-derived.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .errors import ValidationError

if TYPE_CHECKING:  # spectral pulls in numpy; the exact stack does not need it
    from .spectral import SpectrumTable

POS_HYP = "pos_hyperbolic"
NEG_HYP = "neg_hyperbolic"
SIMPLE_TYPES = (POS_HYP, NEG_HYP)


def _check_integer(what: str, value) -> None:
    """Raise ValidationError unless ``value`` is an integer; a bool is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ReebOrbit:
    """A closed Reeb orbit, possibly a multiple cover of a simple one.

    ``cz_simple`` is the Conley-Zehnder index of the underlying simple
    orbit with respect to the chosen framing; the orbit's own index is
    ``multiplicity * cz_simple`` (hyperbolic indices are multiplicative
    under covers).
    """

    id: str
    simple_id: str
    multiplicity: int
    simple_type: str
    action: Fraction
    cz_simple: int

    def __post_init__(self):
        if self.simple_type not in SIMPLE_TYPES:
            raise ValidationError(
                f"orbit {self.id}: unknown simple_type {self.simple_type!r}"
            )
        _check_integer(f"orbit {self.id}: multiplicity", self.multiplicity)
        if self.multiplicity < 1:
            raise ValidationError(f"orbit {self.id}: multiplicity must be >= 1")
        if not isinstance(self.action, numbers.Real) or isinstance(self.action, bool):
            raise ValidationError(f"orbit {self.id}: action must be a real number, got {self.action!r}")
        if self.action <= 0:
            raise ValidationError(f"orbit {self.id}: action must be positive")
        if not self.action < math.inf:  # NaN fails this too
            raise ValidationError(f"orbit {self.id}: action must be finite, got {self.action!r}")
        _check_integer(f"orbit {self.id}: cz_simple", self.cz_simple)
        # Even CZ index <-> positive hyperbolic, for the simple orbit.
        if self.simple_type == POS_HYP and self.cz_simple % 2 != 0:
            raise ValidationError(
                f"orbit {self.id}: positive hyperbolic simple orbit needs even cz"
            )
        if self.simple_type == NEG_HYP and self.cz_simple % 2 == 0:
            raise ValidationError(
                f"orbit {self.id}: negative hyperbolic simple orbit needs odd cz"
            )

    @property
    def cz(self) -> int:
        return self.multiplicity * self.cz_simple

    @property
    def is_bad(self) -> bool:
        """Bad = even multiple cover of a negative hyperbolic orbit."""
        return self.simple_type == NEG_HYP and self.multiplicity % 2 == 0

    @property
    def is_good(self) -> bool:
        return not self.is_bad

    @property
    def parity(self) -> str:
        return "even" if self.cz % 2 == 0 else "odd"


@dataclass(frozen=True)
class OrbitClass:
    parity: str
    quality: str


def classify_orbit(orbit: ReebOrbit) -> OrbitClass:
    """Even/odd parity and good/bad quality of an orbit."""
    return OrbitClass(
        parity=orbit.parity, quality="bad" if orbit.is_bad else "good"
    )


def cz_index(orbit: ReebOrbit) -> int:
    """Conley-Zehnder index of the (possibly multiply covered) orbit."""
    return orbit.cz


@dataclass(frozen=True)
class CurveTopology:
    """Topological data of a punctured curve needed by the index formula."""

    genus: int
    positive_punctures: tuple
    negative_punctures: tuple
    c1: int

    def __post_init__(self):
        _check_integer("genus", self.genus)
        _check_integer("c1", self.c1)
        if self.genus < 0:
            raise ValidationError("genus must be nonnegative")
        if not self.positive_punctures and not self.negative_punctures:
            raise ValidationError("at least one puncture list must be nonempty")

    @property
    def euler_characteristic(self) -> int:
        npunct = len(self.positive_punctures) + len(self.negative_punctures)
        return 2 - 2 * self.genus - npunct


def fredholm_index(
    topology: CurveTopology, orbit_table: Mapping[str, ReebOrbit]
) -> int:
    """-chi + sum mu(positive ends) - sum mu(negative ends) + 2 c1."""

    def mu(orbit_id: str) -> int:
        try:
            return orbit_table[orbit_id].cz
        except KeyError:
            raise LookupError(f"puncture references unknown orbit {orbit_id!r}")

    mu_plus = sum(mu(p) for p in topology.positive_punctures)
    mu_minus = sum(mu(p) for p in topology.negative_punctures)
    return -topology.euler_characteristic + mu_plus - mu_minus + 2 * topology.c1


def cover_index(base_index: int, degree: int, branching: int) -> int:
    """Index of a degree-k branched cover with total branching b."""
    _check_integer("base index", base_index)
    _check_integer("cover degree", degree)
    _check_integer("branching", branching)
    if degree < 1:
        raise ValidationError("cover degree must be >= 1")
    if branching < 0:
        raise ValidationError("branching must be >= 0")
    return degree * base_index + branching


def automatic_transversality(ind: int, genus: int, gamma0_count: int) -> bool:
    """True iff ind > 2*genus - 2 + (# ends on even orbits).

    Raises ValidationError unless all three are integers and the genus and
    the count are nonnegative.
    """
    _check_integer("index", ind)
    _check_integer("genus", genus)
    _check_integer("even end count", gamma0_count)
    if genus < 0:
        raise ValidationError("genus must be nonnegative")
    if gamma0_count < 0:
        raise ValidationError("even end count must be nonnegative")
    return ind > 2 * genus - 2 + gamma0_count


@dataclass(frozen=True)
class WindingViolation:
    index: int
    winding: int
    bound: Fraction
    relation: str  # "<=" for negative indices, ">=" for positive

    def __str__(self):
        return (
            f"index {self.index}: 2*wind = {2 * self.winding} "
            f"fails 2*wind {self.relation} cz = {self.bound}"
        )


@dataclass(frozen=True)
class WindingReport:
    cz: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def winding_bounds_check(spectrum: SpectrumTable, cz: int) -> WindingReport:
    """Check 2*wind(f_i) <= cz for i < 0 and 2*wind(f_i) >= cz for i > 0.

    Equality is permitted only when cz is even (even orbits).  Violations
    are report content, not errors.  Raises ValidationError unless ``cz``
    is an integer.
    """
    _check_integer("cz", cz)
    even = cz % 2 == 0
    violations = []
    for entry in spectrum.entries:
        if entry.winding is None:
            continue
        w2 = 2 * entry.winding
        if entry.index < 0:
            bad = w2 > cz or (w2 == cz and not even)
            relation = "<=" if even else "<"
        else:
            bad = w2 < cz or (w2 == cz and not even)
            relation = ">=" if even else ">"
        if bad:
            violations.append(
                WindingViolation(entry.index, entry.winding, cz, relation)
            )
    return WindingReport(cz=cz, violations=tuple(violations))
