"""Exact sign calculus on determinant lines of finite-dimensional maps.

The comparison isomorphism sends an orientation of det(phi) = top(ker)
tensor top(coker)* to one of det(phi^{-1}(E)) tensor det(E)* via

    [v_1^...^v_m (x) w_n*^...^w_1*]
        |-> [v_1^...^v_m^f_1^...^f_l (x) phi(f_l)*^...^phi(f_1)*^w_n*^...^w_1*],

where F = <f_1..f_l> complements ker(phi) in phi^{-1}(E) and the w's
realize coker(phi) as a complement of phi(F) inside E.  The isomorphism
is natural up to a positive constant: rescaling any basis vector by a
positive factor or replacing F leaves all computed signs unchanged.

Everything here is exact, and runs on Python integers.  Each input
vector is rescaled once, at entry, by the positive lcm of its
denominators (``ratmat.clear``), and phi by one (``ratmat.clear_rows``); by
the naturality above, membership, independence and the sign of a
change-of-basis determinant are all unchanged.  Every basis claim rests
on one certificate: if the coordinates of a family X in a family P
exist, form a square matrix and have nonzero determinant, then X and P
are bases of the same space, and the determinant's sign is the
orientation sign.  One elimination (``ratmat.span_coordinates``) gives
the coordinates of a whole family as integer numerators N over the
common pivot d, with zeros at free columns, so a dependent P gives a
zero determinant too.  sign det(N / d) = sign(det N) sign(d)^k is read
off a second elimination of N, so no Fraction is built; phi is applied
to a family by one integer product.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import ratmat
from .errors import DegeneracyError, ValidationError, check_positive

Vector = Tuple[Fraction, ...]


def wedge_sign(permutation: Sequence[int]) -> int:
    """Sign of a permutation given as a 0- or 1-based sequence."""
    perm = list(permutation)
    n = len(perm)
    base = min(perm) if perm else 0
    if base not in (0, 1) or sorted(perm) != list(range(base, base + n)):
        raise ValidationError(f"{permutation!r} is not a permutation")
    perm = [p - base for p in perm]
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _as_vectors(vectors, dim: int, what: str) -> List[List[int]]:
    """Each vector rescaled by its own positive factor to Python ints."""
    out = []
    for v in vectors:
        v = ratmat.clear(v)[0]
        if len(v) != dim:
            raise ValidationError(f"{what}: vector of length {len(v)}, expected {dim}")
        out.append(v)
    return out


def _coordinates(basis, vectors):
    """Coordinates of each vector in ``basis`` as ``(numerators, d)``, or None.

    Coordinate c of vector j is ``numerators[j][c] / d``.  One
    elimination answers for the whole family; an empty basis spans only
    the zero vector.
    """
    if not vectors:
        return [], 1
    if not basis:
        return None if any(x for v in vectors for x in v) else ([[] for _ in vectors], 1)
    rows = [[*b_row, *v_row] for b_row, v_row in zip(zip(*basis), zip(*vectors))]
    return ratmat.span_coordinates(rows, len(basis), len(vectors))


def _int_det_sign(rows) -> int:
    """Sign of the determinant of a square integer matrix, 0 if singular."""
    _, pivots, d, swaps = ratmat.eliminate(rows)
    if len(pivots) < len(rows):
        return 0
    return swaps if d > 0 else -swaps


def _det_sign(numerators, d: int, message: str) -> int:
    """Sign of det(numerators / d) for square coordinates; zero raises ``message``.

    det(N / d) = det(N) / d^k, so its sign is sign(det N) sign(d)^k.
    """
    if not numerators:
        return 1
    sign = _int_det_sign(numerators)
    if sign == 0:
        raise ValidationError(message)
    return sign if d > 0 or len(numerators) % 2 == 0 else -sign


@dataclass(frozen=True)
class FredholmModel:
    """A rational matrix phi: V -> W with a chosen subspace E of W.

    ``matrix`` has one row per W-coordinate; ``e_basis`` lists vectors
    spanning E.  The comparison isomorphism needs Im(phi) + E = W.
    rank(phi) is computed once, at construction, from the same
    elimination of [phi | E] that checks this.  phi is cleared of
    denominators once, by one positive lcm, and applied on integers.
    """

    matrix: Tuple[Tuple[Fraction, ...], ...]
    e_basis: Tuple[Vector, ...]
    _rank: int = field(init=False, repr=False, compare=False)
    # (integer rows, lcm) with phi = rows / lcm.
    _phi: Tuple[List[List[int]], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [list(row) for row in self.matrix]
        if not rows:
            raise ValidationError("phi needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValidationError("ragged matrix")
        phi, lcm = ratmat.clear_rows(rows, width)
        object.__setattr__(self, "_phi", (phi, lcm))
        e_vecs = _as_vectors(self.e_basis, len(rows), "E basis")
        if e_vecs and len(ratmat.eliminate(e_vecs)[1]) != len(e_vecs):
            raise ValidationError("E basis must be independent")
        # One elimination of [phi | E]: its pivots among the phi columns
        # give rank(phi), and all of them dim(Im phi + E).
        phi_e = [p + [e[i] for e in e_vecs] for i, p in enumerate(phi)]
        pivots = ratmat.eliminate(phi_e)[1]
        if len(pivots) != len(rows):
            raise ValidationError("Im(phi) + span(E) must be all of W")
        object.__setattr__(self, "_rank", sum(1 for c in pivots if c < width))

    @property
    def dim_w(self) -> int:
        return len(self.matrix)

    @property
    def dim_v(self) -> int:
        return len(self.matrix[0])

    def apply(self, v: Sequence[Fraction]) -> List[Fraction]:
        v, lcm = ratmat.clear(v)
        if len(v) != self.dim_v:
            raise ValidationError("vector has wrong dimension for phi")
        den = lcm * self._phi[1]
        return [Fraction(x, den) for x in self._images([v])[0]]

    def _images(self, vectors: Sequence[Sequence[int]]) -> List[List[int]]:
        """phi(v) for integer vectors of length dim V, each rescaled by the lcm of phi."""
        phi = self._phi[0]
        return [[sum(map(operator.mul, row, v)) for row in phi] for v in vectors]

    def nullity(self) -> int:
        return self.dim_v - self._rank


def comparison_sign(
    model: FredholmModel,
    ker_basis: Sequence[Sequence],
    f_basis: Sequence[Sequence],
    coker_basis: Sequence[Sequence],
    phi_f_basis: Sequence[Sequence],
    preimage_basis: Optional[Sequence[Sequence]] = None,
    e_basis: Optional[Sequence[Sequence]] = None,
) -> int:
    """Sign relating the comparison image to a reference orientation.

    The comparison image of [ker (x) rev-dual coker] is expressed in the
    source bases (ker, f_1, ..., f_l) of phi^{-1}(E) and
    (coker, phi(f_1), ..., phi(f_l)) of E, where the phi(f_i) are the
    actual images of ``f_basis``.  The reference orientation uses
    ``preimage_basis`` (default: ker + f_basis) and ``e_basis``
    (default: coker + phi_f_basis).  ``phi_f_basis`` never enters the
    source basis: it only supplies that default reference orientation
    when ``e_basis`` is omitted.  The result is the product of the signs
    of the two change-of-basis determinants.

    Every basis claim is one certificate: the coordinates of one family
    in the other exist, form a square matrix and have nonzero
    determinant, so both families are bases of one space.  The squares
    are counted from rank(phi): dim phi^{-1}(E) = nullity +
    dim(Im phi cap E), and dim(Im phi cap E) = rank + dim E - dim W since
    Im(phi) + E = W.  All coordinates in E come from one elimination over
    the model's E basis; the E-side sign is the product of the det-signs
    of (coker, phi(F)) and of the reference basis there.
    """
    dim_v, dim_w = model.dim_v, model.dim_w
    ker = _as_vectors(ker_basis, dim_v, "kernel basis")
    f = _as_vectors(f_basis, dim_v, "F basis")
    coker = _as_vectors(coker_basis, dim_w, "cokernel basis")
    phi_f = _as_vectors(phi_f_basis, dim_w, "phi(F) basis")
    e_span = _as_vectors(model.e_basis, dim_w, "E basis")
    preimage = (
        ker + f if preimage_basis is None
        else _as_vectors(preimage_basis, dim_v, "preimage basis")
    )
    e_ref = None if e_basis is None else _as_vectors(e_basis, dim_w, "reference E basis")

    nullity = model.nullity()
    dim_cap = dim_v - nullity + len(e_span) - dim_w
    if len(ker) != nullity:
        raise ValidationError("kernel basis must be a basis of ker(phi)")
    if len(f) != dim_cap:
        raise ValidationError(
            f"F basis has {len(f)} vectors; phi^{{-1}}(E) needs {dim_cap} beyond the kernel"
        )
    if len(coker) + len(f) != len(e_span):
        raise ValidationError("(coker, phi(F)) must span E")
    if len(phi_f) != len(f):
        raise ValidationError("phi(F) basis must be a basis of phi(F)")
    if len(preimage) != len(ker) + len(f):
        raise ValidationError("preimage basis must be a basis of phi^{-1}(E)")
    if e_ref is not None and len(e_ref) != len(e_span):
        raise ValidationError("reference E basis must be a basis of E")

    given = [] if preimage_basis is None else preimage
    applied = model._images(ker + f + given)
    if any(x != 0 for w in applied[: len(ker)] for x in w):
        raise ValidationError("kernel basis vector not in ker(phi)")
    images = applied[len(ker): len(ker) + len(f)]
    families = [
        (images, "phi(F) must lie inside E"),
        (coker, "cokernel representatives must lie inside E"),
        (phi_f, "phi(F) basis must lie in the image of F"),
        (applied[len(ker) + len(f):], "preimage basis vector outside phi^{-1}(E)"),
        (e_ref or [], "reference E basis vector outside E"),
    ]
    in_e = _coordinates(e_span, [v for family, _ in families for v in family])
    if in_e is None:
        for family, message in families:
            if _coordinates(e_span, family) is None:
                raise ValidationError(message)
    coords, d_e = in_e
    coords = iter(coords)
    c_images, c_coker, c_phi_f, _, c_ref = [[next(coords) for _ in fam] for fam, _ in families]

    in_v = _coordinates(preimage, ker + f)
    if in_v is None:
        raise ValidationError("preimage basis must be a basis of phi^{-1}(E)")
    sign_v = _det_sign(*in_v, "(ker, F) must be independent")
    sign_e = _det_sign(c_coker + c_images, d_e, "(coker, phi(F)) must be independent")
    in_images = _coordinates(images, phi_f)
    if in_images is None:
        raise ValidationError("phi(F) basis must lie in the image of F")
    _det_sign(*in_images, "phi(F) basis must be a basis of phi(F)")
    ref = c_coker + c_phi_f if e_ref is None else c_ref
    return sign_v * sign_e * _det_sign(ref, d_e, "reference E basis must be a basis of E")


def glued_sign(sgn1: int, sgn2: int, direction: str = "a_points_away") -> int:
    """Boundary-vector sign from the two glued-level signs.

    At an end where the boundary vector points away from the broken
    configuration, sgn(u1) sgn(u2) = -sgn(a); where it points toward,
    the product equals +sgn(a).
    """
    for s in (sgn1, sgn2):
        if s not in (1, -1):
            raise ValidationError("level signs must be +1 or -1")
    if direction == "a_points_away":
        return -sgn1 * sgn2
    if direction == "a_points_toward":
        return sgn1 * sgn2
    raise ValidationError("direction must be a_points_away or a_points_toward")


@dataclass(frozen=True)
class ArcPairing:
    sign_a: int
    consistent: bool


def arc_pair_check(s1: int, s2: int, s1_flat: int, s2_flat: int) -> ArcPairing:
    """Consistency of the two ends of one boundary arc.

    The arc orients its boundary vector away from (u1, u2) and toward
    (u1_flat, u2_flat), so consistency means exactly

        sgn(u1_flat) sgn(u2_flat) = sgn(a) = -sgn(u1) sgn(u2).
    """
    sign_from_start = glued_sign(s1, s2, "a_points_away")
    sign_from_end = glued_sign(s1_flat, s2_flat, "a_points_toward")
    return ArcPairing(
        sign_a=sign_from_start, consistent=sign_from_start == sign_from_end
    )


def ds0_sign(
    k: int,
    pole: str,
    ev_jacobian: Sequence[Sequence],
    lambdas: Sequence[float],
    T: float,
) -> int:
    """Sign of the linearized section's differential at a pole zero.

    The differential is diag(e^{-2 lambda_i T}) times the evaluation-map
    Jacobian; the diagonal factors are positive, so only the Jacobian's
    determinant sign survives, flipped globally at the south pole.
    """
    if k < 2:
        raise ValidationError("ds0 sign needs k >= 2")
    if pole not in ("north", "south"):
        raise ValidationError("pole must be north or south")
    check_positive("T", T)
    real = all(isinstance(l, numbers.Real) and not isinstance(l, bool) for l in lambdas)
    if len(lambdas) != k - 1 or not real or any(not 0 < l < math.inf for l in lambdas):
        raise ValidationError("need k-1 finite positive eigenvalues")
    # Each row rescaled by a positive factor: the determinant keeps its sign.
    jac = [ratmat.clear(row)[0] for row in ev_jacobian]
    if len(jac) != k - 1 or any(len(row) != k - 1 for row in jac):
        raise ValidationError("ev_jacobian must be (k-1) x (k-1)")
    sign = _int_det_sign(jac)
    if sign == 0:
        raise DegeneracyError("singular evaluation Jacobian at the pole zero")
    return sign if pole == "north" else -sign
