"""Seeded input generators owned by the benchmark.

Nothing here imports ``cylcc``: every input is built from the seed with
plain integers (or numpy, for the evaluation maps), and every expected
answer is known by construction.  Each generator is valid at every size,
including empty layers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

# --- exact integer helpers -------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b, nrows, nmid, ncols):
    out = [[0] * ncols for _ in range(nrows)]
    for i in range(nrows):
        arow, orow = a[i], out[i]
        for k in range(nmid):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(ncols):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def unimodular_pair(rng, n, moves_per_dim=3):
    """A random integer matrix of determinant 1 and its integer inverse.

    Built from ``moves_per_dim * n`` transvections (row i += c * row j);
    the inverse applies the opposite column moves in the same order.
    """
    a = identity(n)
    inv = identity(n)
    if n < 2:
        return a, inv
    for _ in range(moves_per_dim * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


def bareiss_det(rows):
    """Exact determinant of a square integer matrix (fraction-free)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# --- exact chain complexes -------------------------------------------------


def choose_ranks(dims):
    """Differential ranks (r2, r1) valid for any dims = (n2, n1, n0).

    The ranks depend on dims only, not on the seed: elimination work
    grows with rank, and fixing it keeps run time steady across seeds.
    """
    n2, n1, n0 = dims
    b1 = min(n1, 2)
    rest = n1 - b1
    r2 = min(n2, rest // 2)
    r1 = min(n0, rest - r2)
    r2 = min(n2, rest - r1)
    return r2, r1


def betti(dims, ranks):
    (n2, n1, n0), (r2, r1) = dims, ranks
    return {2: n2 - r2, 1: n1 - r2 - r1, 0: n0 - r1}


def normal_form_blocks(dims, ranks):
    """Blocks D2: C2 -> C1 and D1: C1 -> C0 of rank r2, r1 with D1 D2 = 0."""
    (n2, n1, n0), (r2, r1) = dims, ranks
    d2 = [[int(i == j and i < r2) for j in range(n2)] for i in range(n1)]
    d1 = [[int(j == r2 + i and i < r1) for j in range(n1)] for i in range(n0)]
    return d2, d1


def conjugated_blocks(dims, ranks, conj):
    """Normal form conjugated by ``conj[g] = (A_g, A_g^-1)`` per grading."""
    n2, n1, n0 = dims
    d2, d1 = normal_form_blocks(dims, ranks)
    (_, a2inv), (a1, a1inv), (a0, _) = conj[2], conj[1], conj[0]
    big2 = mat_mul(mat_mul(a1, d2, n1, n1, n2), a2inv, n1, n2, n2)
    big1 = mat_mul(mat_mul(a0, d1, n0, n0, n1), a1inv, n0, n1, n1)
    return {2: big2, 1: big1}


def _orbit_line(oid, grading, mult, action, stage=None):
    if grading % 2 == 0:
        typ, cz_simple = "pos_hyp", grading // mult
    else:
        typ, cz_simple = "neg_hyp", grading
    line = (
        f"orbit {oid} simple={oid}s mult={mult} type={typ} "
        f"action={_rational(action)} cz={cz_simple}"
    )
    if stage is not None:
        line += f" stage={stage}"
    return line


def _rational(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _multiplicities(rng, dims):
    # Only grading-0 generators can be multiply covered: a positive
    # hyperbolic orbit with cz_simple = 0 stays good at every cover.
    n2, n1, n0 = dims
    return {2: [1] * n2, 1: [1] * n1, 0: [rng.choice((1, 1, 2)) for _ in range(n0)]}


def _actions(dims, offset=0):
    """Actions spaced from dims: each grading sits above the one below."""
    n2, n1, n0 = dims
    base = {0: offset, 1: offset + n0, 2: offset + n0 + n1}
    return {
        g: [Fraction(2 * (base[g] + j) + 3, 2) for j in range(n)]
        for g, n in zip((2, 1, 0), dims)
    }


def _curve_lines(level, src_ids, dst_ids, block, dst_mult):
    lines = []
    for row, dst in enumerate(dst_ids):
        for col, src in enumerate(src_ids):
            coeff = block[row][col]
            if coeff:
                count = coeff * dst_mult[row]
                ind = 1 if level == "symp" else 0
                lines.append(
                    f"curve level={level} ind={ind} from={src} to={dst} count={count}"
                )
    return lines


def exact_complex_dataset(seed, dims, moves_per_dim=3):
    """Text of a three-layer dataset with known Betti numbers and actions.

    Returns ``(orbit_text, curve_text, info)``; ``info`` holds the Betti
    numbers, per-grading actions and generator counts.
    """
    rng = random.Random(seed)
    ranks = choose_ranks(dims)
    conj = {g: unimodular_pair(rng, n, moves_per_dim) for g, n in zip((2, 1, 0), dims)}
    blocks = conjugated_blocks(dims, ranks, conj)
    mult = _multiplicities(rng, dims)
    actions = _actions(dims)
    ids = {g: [f"x{g}_{j}" for j in range(n)] for g, n in zip((2, 1, 0), dims)}
    orbit_lines = ["# seeded exact complex, gradings 2/1/0"]
    for g in (2, 1, 0):
        for j, oid in enumerate(ids[g]):
            orbit_lines.append(_orbit_line(oid, g, mult[g][j], actions[g][j]))
    curve_lines = ["# seeded differential"]
    curve_lines += _curve_lines("symp", ids[2], ids[1], blocks[2], mult[1])
    curve_lines += _curve_lines("symp", ids[1], ids[0], blocks[1], mult[0])
    info = {
        "betti": betti(dims, ranks),
        "actions": actions,
        "generators": {g: len(ids[g]) for g in (2, 1, 0)},
    }
    return "\n".join(orbit_lines) + "\n", "\n".join(curve_lines) + "\n", info


def action_cuts(info, count):
    """``count`` action thresholds spread over the generators' actions."""
    values = sorted(a for acts in info["actions"].values() for a in acts)
    if not values:
        return []
    lo, hi = values[0], values[-1] + 1
    return [lo + (hi - lo) * Fraction(i + 1, count) for i in range(count)]


def euler_below(info, action_max):
    """Euler characteristic of the generators with action below the cut."""
    return sum(
        (-1) ** g * sum(1 for a in acts if a < action_max)
        for g, acts in info["actions"].items()
    )


def staged_dataset(seed, dims, stages, moves_per_dim=2):
    """Stages of one complex, each conjugated anew, joined by chain isomorphisms.

    Every stage map is ``A^{s+1} (A^s)^-1`` per grading, so the direct
    limit equals the Betti numbers of the normal form and is stable from
    stage 1.  Later stages sit at lower action, as cobordism maps need.
    """
    rng = random.Random(seed)
    ranks = choose_ranks(dims)
    per_stage = sum(dims)
    conj = [
        {g: unimodular_pair(rng, n, moves_per_dim) for g, n in zip((2, 1, 0), dims)}
        for _ in range(stages)
    ]
    orbit_lines = ["# seeded staged complex"]
    curve_lines = ["# seeded stage differentials and maps"]
    ids = []
    for s in range(stages):
        mult = _multiplicities(rng, dims)
        actions = _actions(dims, offset=(stages - 1 - s) * (per_stage + 1))
        sid = {g: [f"s{s + 1}x{g}_{j}" for j in range(n)] for g, n in zip((2, 1, 0), dims)}
        ids.append((sid, mult))
        for g in (2, 1, 0):
            for j, oid in enumerate(sid[g]):
                orbit_lines.append(_orbit_line(oid, g, mult[g][j], actions[g][j], s + 1))
        blocks = conjugated_blocks(dims, ranks, conj[s])
        curve_lines += _curve_lines("symp", sid[2], sid[1], blocks[2], mult[1])
        curve_lines += _curve_lines("symp", sid[1], sid[0], blocks[1], mult[0])
    for s in range(stages - 1):
        (src, _), (dst, dst_mult) = ids[s], ids[s + 1]
        for g, n in zip((2, 1, 0), dims):
            phi = mat_mul(conj[s + 1][g][0], conj[s][g][1], n, n, n)
            curve_lines += _curve_lines("cob", src[g], dst[g], phi, dst_mult[g])
    info = {"betti": betti(dims, ranks)}
    return "\n".join(orbit_lines) + "\n", "\n".join(curve_lines) + "\n", info


# --- orientation instances -------------------------------------------------


def _signed_recombination(rng, vectors):
    """A random basis of the same span, with a random orientation.

    Transvections keep the orientation; a random permutation, random sign
    flips and positive integer scalings make its sign uniformly random.
    """
    n = len(vectors)
    if n == 0:
        return []
    mix, _ = unimodular_pair(rng, n, 2)
    order = list(range(n))
    rng.shuffle(order)
    scale = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    dim = len(vectors[0])
    out = []
    for i in range(n):
        row = mix[order[i]]
        out.append([scale[i] * sum(row[j] * vectors[j][c] for j in range(n)) for c in range(dim)])
    return out


def _shift(rng, vector, span):
    """``vector`` plus a random integer combination of ``span``."""
    coeffs = [rng.randint(-1, 1) for _ in span]
    return [x + sum(a * v[c] for a, v in zip(coeffs, span)) for c, x in enumerate(vector)]


def _columns(m, cols):
    return [[m[i][j] for i in range(len(m))] for j in cols]


def sign_instance(rng, max_dim, slot):
    """One comparison-sign problem, built in normal form and conjugated.

    phi = P J_r Q with unimodular P, Q; the kernel, image, cokernel
    complement and F are read off P and Q^-1.  The structure of an
    instance is fixed by ``slot`` and the entries by ``rng``: the shape
    (dim V, dim W) cycles through every pair up to ``max_dim``, and the
    rank, dim phi(F) and the orientation of ``phi_f`` follow from the
    slot too (see :func:`sign_schedule`).  ``phi_f`` is a random basis of
    phi(F), not the images phi(f_i) themselves, turned if needed to the
    scheduled orientation relative to them; the reference bases are
    random oriented bases when present.
    """
    dim_v, dim_w, r, e_dim, against = sign_schedule(max_dim, slot)
    p, _ = unimodular_pair(rng, dim_w, 2)
    q, qinv = unimodular_pair(rng, dim_v, 2)
    jr = [[int(i == j and i < r) for j in range(dim_v)] for i in range(dim_w)]
    phi = mat_mul(mat_mul(p, jr, dim_w, dim_w, dim_v), q, dim_w, dim_v, dim_v)
    in_e = sorted(rng.sample(range(r), e_dim))
    images = _columns(p, in_e)
    coker = [_shift(rng, col, images) for col in _columns(p, range(r, dim_w))]
    ker = _signed_recombination(rng, _columns(qinv, range(r, dim_v)))
    f = [_shift(rng, col, ker) for col in _columns(qinv, in_e)]
    e_basis = _signed_recombination(rng, coker + images)
    phi_f = _signed_recombination(rng, images)
    if phi_f and (wedge_ratio_sign(phi_f, images) < 0) != against:
        phi_f[0] = [-x for x in phi_f[0]]
    inst = {
        "matrix": phi,
        "e_basis": e_basis,
        "ker": ker,
        "f": f,
        "coker": coker,
        "phi_f": phi_f,
        "preimage": _signed_recombination(rng, ker + f) if rng.random() < 0.5 else None,
        "e_ref": _signed_recombination(rng, coker + images) if rng.random() < 0.5 else None,
    }
    inst["images"] = [
        [sum(phi[i][j] * v[j] for j in range(dim_v)) for i in range(dim_w)] for v in f
    ]
    return inst


def sign_schedule(max_dim, slot):
    """Structure of sign instance ``slot``: (dim V, dim W, rank, dim phi(F), against).

    Each pass over the max_dim^2 shapes moves the rank and dim phi(F) on,
    so a batch mixes ranks and dims of phi(F) at every shape.  ``against``
    (phi_f oppositely oriented to the images phi(f_i)) holds for the
    instances with dim phi(F) >= 1 and ``slot // 2`` odd, about half of
    them.  None of it depends on the seed, so neither does a batch's cost
    or its count of instances with each structure.
    """
    shapes = max_dim * max_dim
    dim_v, dim_w = 1 + slot % max_dim, 1 + (slot // max_dim) % max_dim
    turn = slot // shapes
    r = min(dim_v, dim_w) - turn % (min(dim_v, dim_w) + 1)
    e_dim = (turn + slot) % (r + 1)
    return dim_v, dim_w, r, e_dim, e_dim > 0 and (slot // 2) % 2 == 1


def wedge_ratio_sign(vectors, reference):
    """Sign of the constant relating the top wedges of two bases of one space.

    Both families span the same subspace, so their Pluecker vectors are
    proportional; the first nonzero maximal minor of the reference fixes
    the ratio.
    """
    if not vectors and not reference:
        return 1
    m, dim = len(reference), len(reference[0])
    for subset in combinations(range(dim), m):
        ref_minor = bareiss_det([[v[c] for c in subset] for v in reference])
        if ref_minor:
            minor = bareiss_det([[v[c] for c in subset] for v in vectors])
            return 1 if (minor > 0) == (ref_minor > 0) else -1
    raise ValueError("degenerate reference family")


def expected_comparison_sign(inst):
    """The comparison sign by Pluecker ratios, independent of ratmat."""
    source_v = inst["ker"] + inst["f"]
    source_e = inst["coker"] + inst["images"]
    ref_v = source_v if inst["preimage"] is None else inst["preimage"]
    ref_e = inst["coker"] + inst["phi_f"] if inst["e_ref"] is None else inst["e_ref"]
    return wedge_ratio_sign(source_v, ref_v) * wedge_ratio_sign(source_e, ref_e)


def ds0_instance(rng, max_k):
    k = rng.randint(2, max_k)
    while True:
        jac = [[rng.randint(-3, 3) for _ in range(k - 1)] for _ in range(k - 1)]
        d = bareiss_det(jac)
        if d:
            break
    lambdas = sorted(rng.uniform(0.2, 3.0) for _ in range(k - 1))
    pole = rng.choice(("north", "south"))
    inst = {"k": k, "pole": pole, "jac": jac, "lambdas": lambdas, "T": rng.uniform(1.0, 80.0)}
    inst["expected"] = (1 if pole == "north" else -1) * (1 if d > 0 else -1)
    return inst


# --- evaluation maps -------------------------------------------------------


# Dominant modes whose zero lines meet pairwise in exactly 4 points: the
# determinants of (1,0),(0,1),(1,1) taken two at a time are all +-1.
DOMINANT_MODES = ((1, 0), (0, 1), (1, 1))


def torus_map_text(rng, perturbation_terms, order=2, min_norm=0.05):
    """A seeded order-``order`` map T^2 -> R^3 in the evmap text format.

    Component i is a dominant mode A_i sin(2 pi n_i . theta + a_i) plus a
    constant and ``perturbation_terms`` small random terms of order at
    most ``order``.  Every pair of dominant modes meets in 4 transverse
    zeros, so each pair of components has about 4 common zeros whatever
    the seed: the search cost scales with that count, and fixing it keeps
    run time steady across seeds.  Maps whose image comes within
    ``min_norm`` of the origin on a 128^2 grid are redrawn.
    """
    orders = [
        (m1, m2)
        for m1 in range(order + 1)
        for m2 in range(-order, order + 1)
        if (m1, m2) > (0, 0)
    ]
    axes = np.arange(128) / 128
    grid = np.stack(np.meshgrid(axes, axes, indexing="ij"), -1)
    modes = list(DOMINANT_MODES)
    while True:
        rng.shuffle(modes)
        comps = []
        for mode in modes:
            amp = rng.choice((-1, 1)) * rng.uniform(0.8, 1.2)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            terms = [
                ("const", (0, 0), rng.uniform(-0.1, 0.1)),
                ("sin", mode, amp * math.cos(phase)),
                ("cos", mode, amp * math.sin(phase)),
            ]
            for _ in range(perturbation_terms):
                terms.append(
                    (rng.choice(("cos", "sin")), rng.choice(orders), rng.uniform(-0.1, 0.1))
                )
            comps.append(terms)
        values = np.stack([_eval_terms(t, grid) for t in comps], -1)
        if np.min(np.linalg.norm(values, axis=-1)) > min_norm:
            break
    lines = ["evmap k=3 lambdas=0.5,1.5,2.5 orientation=%d" % rng.choice((1, -1))]
    for c, terms in enumerate(comps):
        for kind, (m1, m2), value in terms:
            lines.append(f"term comp={c} kind={kind} order={m1},{m2} value={value!r}")
    return "\n".join(lines) + "\n"


def _eval_terms(terms, grid):
    out = np.zeros(grid.shape[:-1])
    for kind, orders, value in terms:
        if kind == "const":
            out += value
            continue
        phase = 2.0 * math.pi * (grid @ np.asarray(orders, dtype=float))
        out += value * (np.cos(phase) if kind == "cos" else np.sin(phase))
    return out
