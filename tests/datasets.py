"""Seeded chain-complex datasets for the test suite.

``consistent_random_dataset`` draws a random three-layer dataset whose
differential squares to zero by construction, through the package's own
record types and exact kernels.
"""

import math
import random
from fractions import Fraction

from cylcc import ratmat
from cylcc.complexes import LEVEL_SYMPLECTIZATION, CurveRecord, ModuliDataset, load_dataset
from cylcc.indices import ReebOrbit


def consistent_random_dataset(
    seed: int, dims=(3, 4, 3), max_count: int = 3
) -> ModuliDataset:
    """Random three-layer dataset whose differential squares to zero.

    Layers sit in gradings 2, 1, 0.  The grading-1 block is random; the
    grading-2 block is drawn from its exact rational kernel, so the
    product of the two blocks cancels by construction.
    """
    rng = random.Random(seed)
    n2, n1, n0 = dims

    def rand_int():
        return rng.randint(-max_count, max_count)

    lower = [[Fraction(rand_int()) for _ in range(n1)] for _ in range(n0)]
    kernel = ratmat.nullspace(lower, ncols=n1)
    kdim = len(kernel[0]) if kernel else 0
    mix = [[Fraction(rand_int()) for _ in range(n2)] for _ in range(kdim)]
    upper = ratmat.mat_mul_shaped(kernel, mix, n1, kdim, n2)
    # Clear denominators columnwise so the counts stay integral.
    for col in range(n2):
        denom = math.lcm(*(upper[row][col].denominator for row in range(n1)))
        for row in range(n1):
            upper[row][col] *= denom

    # Layer g takes actions step*(g+1) + j, so actions fall strictly from
    # each layer to the next whatever the layer sizes.
    step = max(10, *dims)
    orbits = []
    for g, n in ((2, n2), (1, n1), (0, n0)):
        for j in range(n):
            stype = "pos_hyperbolic" if g % 2 == 0 else "neg_hyperbolic"
            orbits.append(
                ReebOrbit(
                    id=f"g{g}_{j}",
                    simple_id=f"g{g}_{j}s",
                    multiplicity=1,
                    simple_type=stype,
                    action=Fraction(step * (g + 1) + j),
                    cz_simple=g,
                )
            )
    curves = []
    for row in range(n1):
        for col in range(n2):
            if upper[row][col] != 0:
                curves.append(
                    CurveRecord(
                        LEVEL_SYMPLECTIZATION, 1,
                        f"g2_{col}", f"g1_{row}", upper[row][col],
                    )
                )
    for row in range(n0):
        for col in range(n1):
            if lower[row][col] != 0:
                curves.append(
                    CurveRecord(
                        LEVEL_SYMPLECTIZATION, 1,
                        f"g1_{col}", f"g0_{row}", lower[row][col],
                    )
                )
    return load_dataset(orbits, curves)
