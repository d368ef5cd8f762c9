import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cylcc import ratmat
from cylcc.errors import DegeneracyError, DomainError, ValidationError
from cylcc.orientation import (
    FredholmModel,
    arc_pair_check,
    comparison_sign,
    ds0_sign,
    glued_sign,
    wedge_sign,
)

from .oracles import comparison_sign_oracle, laplace_det

F = Fraction

FLOAT_TYPES = [np.float16, np.float32, np.float64, np.longdouble, float]


class TestWedgeSign:
    def test_identity(self):
        assert wedge_sign([1, 2, 3]) == 1
        assert wedge_sign([0, 1, 2, 3]) == 1

    def test_transposition(self):
        assert wedge_sign([2, 1, 3]) == -1

    def test_three_cycle(self):
        assert wedge_sign([2, 3, 1]) == 1

    def test_not_a_permutation(self):
        with pytest.raises(ValidationError):
            wedge_sign([1, 1, 2])
        with pytest.raises(ValidationError):
            wedge_sign([2, 4, 5])

    def test_move_last_to_front_factor(self):
        # Moving the radial factor past k-1 wedge slots costs (-1)^{k-1}.
        for k in range(1, 7):
            perm = [k] + list(range(1, k))
            assert wedge_sign(perm) == (-1) ** (k - 1)

    def test_matches_inversion_count(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            inversions = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            assert wedge_sign(perm) == (-1) ** inversions


def random_instance(rng, max_dim=5):
    """A random model with every basis the comparison formula needs."""
    while True:
        dim_v = rng.randint(1, max_dim)
        dim_w = rng.randint(1, max_dim)
        matrix = [
            [F(rng.randint(-3, 3)) for _ in range(dim_v)] for _ in range(dim_w)
        ]
        rank = ratmat.rank(matrix)
        coker_dim = dim_w - rank
        columns = [[matrix[i][j] for i in range(dim_w)] for j in range(dim_v)]
        image_basis = []
        for col in columns:
            if ratmat.rank([list(r) for r in zip(*(image_basis + [col]))]) > len(
                image_basis
            ):
                image_basis.append(col)
        complement = []
        for j in range(dim_w):
            cand = [F(int(i == j)) for i in range(dim_w)]
            family = image_basis + complement + [cand]
            if ratmat.rank([list(r) for r in zip(*family)]) > len(family) - 1:
                complement.append(cand)
        assert len(complement) == coker_dim
        extra = rng.randint(0, rank)
        inside = []
        tries = 0
        while len(inside) < extra and tries < 50:
            tries += 1
            cand = [F(0)] * dim_w
            for col in image_basis:
                c = rng.randint(-2, 2)
                cand = [a + c * b for a, b in zip(cand, col)]
            family = complement + inside + [cand]
            if ratmat.rank([list(r) for r in zip(*family)]) == len(family):
                inside.append(cand)
        if len(inside) < extra:
            continue
        e_basis = complement + inside
        ker_cols = ratmat.nullspace(matrix, ncols=dim_v)
        ker = (
            [[ker_cols[i][j] for i in range(dim_v)] for j in range(len(ker_cols[0]))]
            if ker_cols and ker_cols[0]
            else []
        )
        f_vecs = ratmat.solve_coordinates([list(r) for r in matrix], inside)
        assert f_vecs is not None
        model = FredholmModel(
            matrix=tuple(tuple(row) for row in matrix),
            e_basis=tuple(tuple(v) for v in e_basis),
        )
        images = [model.apply(v) for v in f_vecs]
        return model, ker, f_vecs, complement, images


# phi = diag(1, 1, 0) with E = span(e2, e3): every membership check in
# comparison_sign runs on this instance.
DIAG_MODEL = FredholmModel(
    matrix=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(0))),
    e_basis=((F(0), F(1), F(1)), (F(0), F(1), F(-1))),
)
DIAG_ARGS = dict(
    ker_basis=[(0, 0, 2)], f_basis=[(0, 1, 0)],
    coker_basis=[(0, 0, F(1, 2))], phi_f_basis=[(0, 3, 0)],
    preimage_basis=[(0, 1, 1), (0, 1, 0)], e_basis=[(0, 0, 1), (0, -1, 0)],
)


class TestComparisonSign:
    def test_invertible_phi_empty_e(self):
        model = FredholmModel(
            matrix=((F(1), F(0)), (F(0), F(1))), e_basis=()
        )
        assert comparison_sign(model, [], [], [], []) == 1

    def test_zero_map_on_line(self):
        model = FredholmModel(matrix=((F(0),),), e_basis=((F(1),),))
        sign = comparison_sign(
            model, ker_basis=[(1,)], f_basis=[], coker_basis=[(1,)], phi_f_basis=[]
        )
        assert sign == 1

    def test_phi_f_basis_against_images_flips_sign(self):
        # phi = (1) on a line with E = W: the actual image phi(f_1) is (1,),
        # so the default reference coker + phi_f_basis is oriented against
        # it exactly when phi_f_basis points the other way.
        model = FredholmModel(matrix=((F(1),),), e_basis=((F(1),),))
        args = dict(ker_basis=[], f_basis=[(1,)], coker_basis=[])
        assert comparison_sign(model, phi_f_basis=[(-1,)], **args) == -1
        assert comparison_sign(model, phi_f_basis=[(2,)], **args) == 1

    def test_against_oracle_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(120):
            model, ker, f_vecs, coker, images = random_instance(rng, max_dim=4)
            phi_f = _random_recombination(rng, images)
            args = (model, ker, f_vecs, coker, phi_f)
            assert comparison_sign(*args) == comparison_sign_oracle(*args)

    def test_positive_rescaling_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            model, ker, f_vecs, coker, images = random_instance(rng, max_dim=4)
            if not (ker or f_vecs or coker):
                continue
            base = comparison_sign(model, ker, f_vecs, coker, images)
            scaled_ker = [[F(3) * x for x in v] for v in ker]
            scaled_coker = [[F(5, 2) * x for x in w] for w in coker]
            assert (
                comparison_sign(model, scaled_ker, f_vecs, scaled_coker, images)
                == base
            )

    def test_rescaled_and_mixed_type_families_match_oracle(self):
        # Every vector of every family, E included, rescaled by a random
        # positive factor and given as Fractions, floats or numpy ints.
        rng = random.Random(37)
        flipped = 0
        for _ in range(60):
            model, ker, f_vecs, coker, images = random_instance(rng, max_dim=4)
            phi_f = _random_recombination(rng, images)
            preimage = _random_recombination(rng, ker + f_vecs)
            e_ref = _random_recombination(rng, coker + images)
            want = comparison_sign_oracle(model, ker, f_vecs, coker, phi_f, preimage, e_ref)
            families = (ker, f_vecs, coker, phi_f, preimage, e_ref, model.e_basis)
            scaled = [[_rescaled(rng, v) for v in fam] for fam in families]
            ker_s, f_s, coker_s, phi_f_s, preimage_s, e_ref_s, e_s = (
                [v for v, _ in fam] for fam in scaled
            )
            scaled_model = FredholmModel(matrix=model.matrix, e_basis=tuple(e_s))
            refs = dict(preimage_basis=preimage_s, e_basis=e_ref_s)
            assert comparison_sign(scaled_model, ker_s, f_s, coker_s, phi_f_s, **refs) == want
            for (v, factor), exact in zip(scaled[1], f_vecs):
                image = scaled_model.apply(v)
                assert all(type(x) is Fraction for x in image)
                assert image == [factor * x for x in model.apply(exact)]
            if ker_s:
                flipped += 1
                negated = [[-x for x in ker_s[0]]] + ker_s[1:]
                sign = comparison_sign(scaled_model, negated, f_s, coker_s, phi_f_s, **refs)
                assert sign == -want
        assert flipped >= 10

    def test_only_integers_reach_the_elimination(self, monkeypatch):
        eliminate = ratmat.eliminate
        entries = []
        monkeypatch.setattr(
            ratmat, "eliminate",
            lambda rows: entries.extend(x for row in rows for x in row) or eliminate(rows),
        )
        rng = random.Random(43)
        for _ in range(30):
            instance = random_instance(rng, max_dim=4)
            # The same instance given as Fractions, and cleared to Python ints.
            as_int = [[_rescaled(rng, v, "int")[0] for v in fam] for fam in instance[1:]]
            model = FredholmModel(matrix=instance[0].matrix, e_basis=instance[0].e_basis)
            int_model = FredholmModel(
                matrix=tuple(tuple(int(x) for x in row) for row in model.matrix),
                e_basis=tuple(tuple(_rescaled(rng, v, "int")[0]) for v in model.e_basis),
            )
            sign = comparison_sign(model, *instance[1:])
            assert comparison_sign(int_model, *as_int) == sign
            k = rng.randint(2, 5)
            jac = [
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k - 1)]
                for _ in range(k - 1)
            ]
            det = laplace_det(jac)
            for given in (jac, [_rescaled(rng, row, "int")[0] for row in jac]):
                if det:
                    want = 1 if det > 0 else -1
                    assert ds0_sign(k, "north", given, [1.0] * (k - 1), 10.0) == want
                else:
                    with pytest.raises(DegeneracyError):
                        ds0_sign(k, "north", given, [1.0] * (k - 1), 10.0)
        assert entries and all(type(x) is int for x in entries)

    @pytest.mark.parametrize("kind", FLOAT_TYPES, ids=lambda kind: kind.__name__)
    def test_every_float_width_taken_at_its_exact_value(self, kind):
        # numpy floats other than float64 used to raise a bare TypeError.
        def as_kind(family):
            return [[kind(x) for x in v] for v in family]

        model = FredholmModel(
            matrix=tuple(map(tuple, as_kind(DIAG_MODEL.matrix))),
            e_basis=tuple(map(tuple, as_kind(DIAG_MODEL.e_basis))),
        )
        args = {name: as_kind(family) for name, family in DIAG_ARGS.items()}
        assert comparison_sign(model, **args) == comparison_sign(DIAG_MODEL, **DIAG_ARGS)
        assert model.apply([kind(0.1), kind(0.5), kind(3)]) == [
            F(*kind(0.1).as_integer_ratio()), F(1, 2), F(0)
        ]

    def test_adjacent_transposition_flips(self):
        rng = random.Random(29)
        flips = 0
        trials = 0
        while flips < 10 and trials < 400:
            trials += 1
            model, ker, f_vecs, coker, images = random_instance(rng, max_dim=5)
            preimage = ker + f_vecs
            e_ref = coker + images
            if len(preimage) < 2:
                continue
            flips += 1
            base = comparison_sign(
                model, ker, f_vecs, coker, images,
                preimage_basis=preimage, e_basis=e_ref,
            )
            swapped = [preimage[1], preimage[0]] + preimage[2:]
            assert (
                comparison_sign(
                    model, ker, f_vecs, coker, images,
                    preimage_basis=swapped, e_basis=e_ref,
                )
                == -base
            )
        assert flips == 10

    def test_f_basis_replacement_naturality(self):
        # The isomorphism does not depend on the complement F: a different
        # basis of the same complement leaves the sign unchanged.
        rng = random.Random(31)
        done = 0
        while done < 10:
            model, ker, f_vecs, coker, images = random_instance(rng, max_dim=4)
            if len(f_vecs) < 1:
                continue
            done += 1
            preimage = ker + f_vecs
            e_ref = coker + images
            base = comparison_sign(
                model, ker, f_vecs, coker, images,
                preimage_basis=preimage, e_basis=e_ref,
            )
            new_f = _random_recombination(rng, f_vecs)
            new_images = [model.apply(v) for v in new_f]
            assert (
                comparison_sign(
                    model, ker, new_f, coker, new_images,
                    preimage_basis=preimage, e_basis=e_ref,
                )
                == base
            )

    def test_eliminations_per_instance(self, monkeypatch):
        eliminate = ratmat.eliminate
        calls = []
        monkeypatch.setattr(
            ratmat, "eliminate", lambda rows: calls.append(rows) or eliminate(rows)
        )
        assert comparison_sign(DIAG_MODEL, **DIAG_ARGS) == -1
        # One solve in E, then a solve or a determinant per basis claim:
        # (ker, F) in the preimage basis (2), (coker, phi(F)) (1), phi_F in
        # phi(F) (2) and the reference E basis (1).  Separate membership,
        # independence and rank checks took 18.
        assert len(calls) == 7
        monkeypatch.undo()
        assert comparison_sign_oracle(DIAG_MODEL, **DIAG_ARGS) == -1

    @pytest.mark.parametrize("name,family,message", [
        ("f_basis", [(1, 0, 0)], r"phi\(F\) must lie inside E"),
        ("coker_basis", [(1, 0, 0)], "cokernel representatives"),
        ("phi_f_basis", [(0, 1, 1)], "image of F"),
        ("preimage_basis", [(0, 1, 1), (1, 0, 0)], "outside phi"),
        ("e_basis", [(0, 0, 1), (1, 0, 0)], "reference E basis vector outside E"),
    ])
    def test_membership_rejects_any_vector_outside(self, name, family, message):
        with pytest.raises(ValidationError, match=message):
            comparison_sign(DIAG_MODEL, **{**DIAG_ARGS, name: family})

    @pytest.mark.parametrize("changes,message", [
        (dict(f_basis=[(0, 0, 1)]), r"\(ker, F\) must be independent"),
        (dict(ker_basis=[(0, 0, 0)]), r"\(ker, F\) must be independent"),
        (dict(coker_basis=[(0, 1, 0)]), r"\(coker, phi\(F\)\) must be independent"),
        (dict(phi_f_basis=[(0, 0, 0)]), r"phi\(F\) basis must be a basis of phi\(F\)"),
        (dict(preimage_basis=[(0, 1, 0), (0, 2, 0)]), "preimage basis must be a basis"),
        (dict(e_basis=[(0, 0, 1), (0, 0, -2)]), "reference E basis must be a basis of E"),
        (dict(preimage_basis=[(0, 1, 1), (0, 1, 0), (0, 0, 1)]), "preimage basis must be a basis"),
        (dict(e_basis=[(0, 0, 1)]), "reference E basis must be a basis of E"),
        (dict(ker_basis=[]), "kernel basis must be a basis"),
        (dict(ker_basis=[(0, 0, 1), (0, 0, 2)]), "kernel basis must be a basis"),
    ])
    def test_rejects_every_basis_claim(self, changes, message):
        # Each case breaks one square, one determinant or one count.
        with pytest.raises(ValidationError, match=message):
            comparison_sign(DIAG_MODEL, **{**DIAG_ARGS, **changes})

    def test_inconsistent_bases_rejected(self):
        model = FredholmModel(matrix=((F(0),),), e_basis=((F(1),),))
        with pytest.raises(ValidationError):
            comparison_sign(model, [(0,)], [], [(1,)], [])  # zero kernel vector
        with pytest.raises(ValidationError):
            comparison_sign(model, [(1,)], [], [], [])  # coker missing


def _rescaled(rng, v, kind=None):
    """``(v * c, c)`` for a random positive c, as Fractions, floats, numpy or Python ints.

    Floats and ints carry the lcm of the denominators of ``v``, the floats
    halved: every entry stays exact.
    """
    kind = kind or rng.choice(("fraction", "float", "numpy"))
    if kind == "fraction":
        factor = F(rng.randint(1, 9), rng.randint(1, 9))
        return [factor * x for x in v], factor
    lcm = math.lcm(*(F(x).denominator for x in v))
    ints = [int(F(x) * lcm) for x in v]
    if kind == "float":
        return [0.5 * x for x in ints], F(lcm, 2)
    return [np.int64(x) for x in ints] if kind == "numpy" else ints, F(lcm)


def _random_recombination(rng, vectors):
    """Random invertible recombination of a family (exact rational)."""
    n = len(vectors)
    if n == 0:
        return []
    while True:
        m = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if ratmat.det(m) != 0:
            break
    return [
        [sum((m[i][j] * vectors[j][c] for j in range(n)), F(0)) for c in range(len(vectors[0]))]
        for i in range(n)
    ]


class TestFredholmModel:
    def test_apply_matches_hand_products(self):
        model = FredholmModel(
            matrix=((F(1, 2), 3), (F(0), F(-2, 3))), e_basis=()
        )
        vectors = [(2, 0), (F(1, 3), 1), (0, 0)]
        expected = [[F(1), F(0)], [F(19, 6), F(-2, 3)], [F(0), F(0)]]
        got = [model.apply(v) for v in vectors]
        assert got == expected
        assert all(type(x) is Fraction for w in got for x in w)

    def test_apply_rejects_wrong_dimension(self):
        model = FredholmModel(matrix=((F(1), F(0)),), e_basis=())
        with pytest.raises(ValidationError):
            model.apply((1, 0, 0))

    def test_two_eliminations_per_model(self, monkeypatch):
        # E independence, then one elimination of [phi | E] for both
        # rank(phi) and dim(Im phi + E); without E only the second.
        rng = random.Random(17)
        fixtures = [DIAG_MODEL] + [random_instance(rng)[0] for _ in range(20)]
        eliminate = ratmat.eliminate
        for fixture in fixtures:
            calls = []
            monkeypatch.setattr(
                ratmat, "eliminate", lambda rows: calls.append(rows) or eliminate(rows)
            )
            model = FredholmModel(matrix=fixture.matrix, e_basis=fixture.e_basis)
            monkeypatch.undo()
            assert len(calls) == (2 if fixture.e_basis else 1)
            rank = ratmat.rank([list(row) for row in fixture.matrix])
            assert model.nullity() == fixture.dim_v - rank


class TestGluedSign:
    def test_paper_relation(self):
        assert glued_sign(1, 1, "a_points_away") == -1

    def test_substitution(self):
        assert glued_sign(1, -1, "a_points_away") == 1

    def test_toward_direction(self):
        assert glued_sign(1, 1, "a_points_toward") == 1

    def test_arc_pairing_all_sixteen(self):
        # Paired ends force opposite products: consistent exactly when
        # s1*s2 = -s1b*s2b.
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s1b in (1, -1):
                    for s2b in (1, -1):
                        res = arc_pair_check(s1, s2, s1b, s2b)
                        assert res.consistent == (s1 * s2 == -(s1b * s2b))
                        assert res.sign_a == -s1 * s2

    def test_bad_sign_rejected(self):
        with pytest.raises(ValidationError):
            glued_sign(2, 1)


class TestDs0Sign:
    def test_north_identity(self):
        jac = ((F(1), F(0)), (F(0), F(1)))
        assert ds0_sign(3, "north", jac, (0.5, 1.5), 40.0) == 1

    def test_south_identity(self):
        jac = ((F(1), F(0)), (F(0), F(1)))
        assert ds0_sign(3, "south", jac, (0.5, 1.5), 40.0) == -1

    def test_negated_row_flips(self):
        jac = ((F(-1), F(0)), (F(0), F(1)))
        assert ds0_sign(3, "north", jac, (0.5, 1.5), 40.0) == -1

    def test_pole_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(2, 5)
            while True:
                jac = [
                    [F(rng.randint(-3, 3)) for _ in range(k - 1)]
                    for _ in range(k - 1)
                ]
                if ratmat.det(jac) != 0:
                    break
            lams = sorted(rng.uniform(0.2, 3.0) for _ in range(k - 1))
            north = ds0_sign(k, "north", jac, lams, 50.0)
            south = ds0_sign(k, "south", jac, lams, 50.0)
            assert north == -south

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        jac = ((F(1), F(0)), (F(0), F(1)))
        with pytest.raises(ValidationError):
            ds0_sign(3, "north", jac, (0.5, 1.5), bad)
        with pytest.raises(ValidationError):
            ds0_sign(3, "north", jac, (bad, 1.5), 40.0)

    @pytest.mark.parametrize("kind", FLOAT_TYPES, ids=lambda kind: kind.__name__)
    def test_every_float_width_gives_the_exact_sign(self, kind):
        rng = random.Random(f"ds0-{kind.__name__}")
        for _ in range(40):
            k = rng.randint(2, 5)
            jac = [[kind(rng.randint(-3, 3) / 10) for _ in range(k - 1)] for _ in range(k - 1)]
            det = laplace_det([[F(*x.as_integer_ratio()) for x in row] for row in jac])
            if det == 0:
                with pytest.raises(DegeneracyError):
                    ds0_sign(k, "north", jac, [1.0] * (k - 1), 10.0)
            else:
                assert ds0_sign(k, "north", jac, [1.0] * (k - 1), 10.0) == (1 if det > 0 else -1)

    def test_singular_jacobian_rejected(self):
        jac = ((F(1), F(2)), (F(2), F(4)))
        with pytest.raises(DegeneracyError):
            ds0_sign(3, "north", jac, (0.5, 1.5), 40.0)



IDENTITY_2 = ((F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(
        lambda: FredholmModel(IDENTITY_2, ((F(1), F(0), F(0)),)), ValidationError,
        "E basis: vector of length 3, expected 2", id="e-vector-length",
    ),
    pytest.param(lambda: FredholmModel((), ()), ValidationError, "phi needs at least one row",
                 id="no-rows"),
    pytest.param(lambda: FredholmModel(((F(1), F(0)), (F(1),)), ()), ValidationError,
                 "ragged matrix", id="ragged"),
    # A NaN entry raised a bare ValueError from the exact conversion.
    pytest.param(lambda: FredholmModel(((math.nan,),), ()), DomainError,
                 "entry nan is not finite", id="phi-nan"),
    pytest.param(lambda: FredholmModel(IDENTITY_2, ((F(1), math.inf),)), DomainError,
                 "entry inf is not finite", id="e-inf"),
    pytest.param(
        lambda: FredholmModel(((F(0),), (F(0),)), ((F(1), F(0)), (F(2), F(0)))), ValidationError,
        "E basis must be independent", id="e-dependent",
    ),
    pytest.param(
        lambda: FredholmModel(((F(1),), (F(0),)), ()), ValidationError,
        "Im(phi) + span(E) must be all of W", id="not-onto",
    ),
    pytest.param(
        lambda: comparison_sign(DIAG_MODEL, **{**DIAG_ARGS, "f_basis": []}), ValidationError,
        "F basis has 0 vectors; phi^{-1}(E) needs 1 beyond the kernel", id="f-count",
    ),
    pytest.param(
        lambda: comparison_sign(DIAG_MODEL, **{**DIAG_ARGS, "phi_f_basis": []}), ValidationError,
        "phi(F) basis must be a basis of phi(F)", id="phi-f-count",
    ),
    pytest.param(
        lambda: comparison_sign(DIAG_MODEL, **{**DIAG_ARGS, "ker_basis": [(1, 0, 0)]}),
        ValidationError, "kernel basis vector not in ker(phi)", id="kernel-vector",
    ),
    pytest.param(
        lambda: glued_sign(1, 1, "sideways"), ValidationError,
        "direction must be a_points_away or a_points_toward", id="direction",
    ),
    pytest.param(
        lambda: ds0_sign(1, "north", (), (), 40.0), ValidationError, "ds0 sign needs k >= 2",
        id="ds0-k",
    ),
    pytest.param(
        lambda: ds0_sign(3, "east", IDENTITY_2, (0.5, 1.5), 40.0), ValidationError,
        "pole must be north or south", id="ds0-pole",
    ),
    pytest.param(
        lambda: ds0_sign(3, "north", ((F(1), F(0)),), (0.5, 1.5), 40.0), ValidationError,
        "ev_jacobian must be (k-1) x (k-1)", id="ds0-jacobian-shape",
    ),
    pytest.param(
        lambda: ds0_sign(2, "north", [[1]], ["a"], 1.0), ValidationError,
        "need k-1 finite positive eigenvalues", id="ds0-eigenvalue-string",
    ),
    pytest.param(
        lambda: ds0_sign(2, "north", [[1]], [1j], 1.0), ValidationError,
        "need k-1 finite positive eigenvalues", id="ds0-eigenvalue-complex",
    ),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)
