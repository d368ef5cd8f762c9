import dataclasses
import importlib.util
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from cylcc import complexes, ratmat
from cylcc.complexes import (
    CurveRecord,
    GradedMap,
    GradedRationalComplex,
    IdentityCheck,
    ModuliDataset,
    OrbitRecord,
    chain_homotopy_check,
    chain_map_check,
    differential_matrix,
    direct_limit,
    graded_map_from_dataset,
    homology,
    load_dataset,
    side_complexes,
    stage_sequence,
    verify_d_squared,
)
from cylcc.dataio import bundled_path, parse_records, read_dataset
from cylcc.errors import DatasetError, DomainError, IntegerCoefficientWarning, ValidationError
from cylcc.indices import ReebOrbit

from .datasets import consistent_random_dataset
from .oracles import (
    chain_homotopy_oracle,
    chain_map_oracle,
    d_squared_oracle,
    direct_limit_oracle,
)

F = Fraction

GEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def _load_gen():
    """The benchmark's seeded input generators (``bench/gen.py``), loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_gen()


def _actions_info(ds, side=None, stage=None):
    """The generators' actions by grading, as ``bench/gen.py`` reports them."""
    actions = {}
    for oid in ds.orbit_ids(side=side, stage=stage):
        actions.setdefault(ds.orbit(oid).cz, []).append(ds.orbit(oid).action)
    return {"actions": actions}


def _cut_values(ds):
    """Every distinct action, the midpoints between them and a cut below all."""
    values = sorted({rec.orbit.action for rec in ds.orbits.values()})
    return [values[0] - 1] + values + [(a + b) / 2 for a, b in zip(values, values[1:])]


def orbit(oid, cz, action, mult=1, simple_type=None):
    if simple_type is None:
        simple_type = "pos_hyperbolic" if cz % 2 == 0 else "neg_hyperbolic"
    return ReebOrbit(
        id=oid,
        simple_id=oid + "_s",
        multiplicity=mult,
        simple_type=simple_type,
        action=F(action),
        cz_simple=cz,
    )


def symp(fid, tid, count):
    return CurveRecord("symplectization", 1, fid, tid, F(count))


def _is_zero(a):
    return all(x == 0 for row in a for x in row)


def _copy(a):
    return [list(row) for row in a]


def make_complex(generators, entries):
    """Small helper: entries maps grading -> list of rational rows."""
    blocks = {
        g: [[F(x) for x in row] for row in rows] for g, rows in entries.items()
    }
    return GradedRationalComplex(
        generators={g: tuple(ids) for g, ids in generators.items()}, blocks=blocks
    )


class TestLoadDataset:
    def test_actions_of_mixed_number_types_load_and_cut(self):
        a = dataclasses.replace(orbit("a", 1, 4), action=np.longdouble(4))
        ds = load_dataset([a, orbit("b", 0, 2)], [symp("a", "b", 1)])
        for cut, kept in [(F(3), {0: ("b",)}), (np.longdouble(5), {1: ("a",), 0: ("b",)})]:
            assert differential_matrix(ds, action_max=cut).generators == kept
        with pytest.raises(DatasetError, match="strictly decrease"):
            load_dataset([a, orbit("b", 0, 4)], [symp("a", "b", 1)])

    def test_covers_of_mixed_number_types_share_a_simple_action(self):
        a = ReebOrbit("a", "s", 2, "pos_hyperbolic", np.longdouble(4), 0)
        b = ReebOrbit("b", "s", 1, "pos_hyperbolic", F(2), 0)
        assert set(load_dataset([a, b], []).orbits) == {"a", "b"}
        with pytest.raises(DatasetError, match="ratio disagrees"):
            load_dataset([a, dataclasses.replace(b, action=F(3))], [])

    def test_action_violation_rejected(self):
        orbits = [orbit("a", 1, 1), orbit("b", 0, 2)]
        with pytest.raises(DatasetError) as err:
            load_dataset(orbits, [symp("a", "b", 1)])
        assert any("action" in str(d) for d in err.value.diagnostics)

    def test_bad_orbit_generator_rejected(self):
        orbits = [
            orbit("dbl", 1, 4, mult=2, simple_type="neg_hyperbolic"),
            orbit("b", 1, 2),
        ]
        with pytest.raises(DatasetError) as err:
            load_dataset(orbits, [])
        assert any("bad" in str(d) and "dbl" in str(d) for d in err.value.diagnostics)

    def test_odd_cover_accepted(self):
        triple = orbit("trp", 1, 6, mult=3, simple_type="neg_hyperbolic")
        ds = load_dataset([triple], [])
        assert ds.orbit("trp").is_good

    def test_minimal_consistent_dataset_accepted(self):
        orbits = [orbit("a", 1, 2), orbit("b", 0, 1)]
        ds = load_dataset(orbits, [symp("a", "b", 1)])
        assert len(ds.curves) == 1

    def test_ind_mismatch_rejected(self):
        orbits = [orbit("a", 1, 2), orbit("b", 0, 1)]
        with pytest.raises(DatasetError) as err:
            load_dataset(orbits, [CurveRecord("symplectization", 0, "a", "b", F(1))])
        assert any("ind=1" in str(d) for d in err.value.diagnostics)

    def test_unknown_id_rejected(self):
        with pytest.raises(DatasetError) as err:
            load_dataset([orbit("a", 1, 2)], [symp("a", "ghost", 1)])
        assert any("ghost" in str(d) for d in err.value.diagnostics)

    def test_simple_orbit_consistency(self):
        o1 = ReebOrbit("c1", "shared", 1, "neg_hyperbolic", F(2), 1)
        o2 = ReebOrbit("c3", "shared", 3, "neg_hyperbolic", F(5), 1)  # 5 != 3*2
        with pytest.raises(DatasetError) as err:
            load_dataset([o1, o2], [])
        assert any("ratio" in str(d) for d in err.value.diagnostics)


class TestDifferential:
    def test_multiplicity_weight(self):
        orbits = [orbit("a", 1, 4), orbit("q", 0, 2, mult=2)]
        ds = load_dataset(orbits, [symp("a", "q", 2)])
        cx = differential_matrix(ds)
        assert cx.block(1) == [[F(1)]]

    def test_repeated_curves_on_one_pair(self):
        orbits = [orbit("a", 1, 4), orbit("b", 0, 1), orbit("q", 0, 2, mult=2)]
        halves = [symp("a", "b", F(1, 2)), symp("a", "b", F(1, 2))]
        ones = [symp("a", "q", 1), symp("a", "q", 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegerCoefficientWarning)
            cx = differential_matrix(load_dataset(orbits, halves + ones))
        assert cx.generators[0] == ("b", "q")
        assert cx.block(1) == [[F(1)], [F(1)]]
        with pytest.warns(IntegerCoefficientWarning) as record:
            cx = differential_matrix(load_dataset(orbits, halves + ones[:1]))
        assert len(record) == 1 and record[0].filename == __file__
        assert "coefficient of q in the symplectization image of a is 1/2" in str(
            record[0].message
        )
        assert cx.block(1) == [[F(1)], [F(1, 2)]]

    def test_empty_curves_zero_differential(self):
        ds = load_dataset([orbit("a", 1, 2), orbit("b", 0, 1)], [])
        cx = differential_matrix(ds)
        assert _is_zero(cx.block(1))

    def test_triple_cover_weight(self):
        orbits = [orbit("a", 4, 9), orbit("t", 1, 6, mult=3, simple_type="neg_hyperbolic")]
        # cz(t) = 3, so a must have cz 4 for the drop to be 1
        ds = load_dataset(orbits, [CurveRecord("symplectization", 1, "a", "t", F(3))])
        cx = differential_matrix(ds)
        assert cx.block(4) == [[F(1)]]

    def test_action_cap_restricts_generators(self):
        orbits = [orbit("a", 1, 4), orbit("b", 0, 1)]
        ds = load_dataset(orbits, [symp("a", "b", 1)])
        cx = differential_matrix(ds, action_max=F(2))
        assert cx.generators == {0: ("b",)}

    def test_noninteger_coefficient_warns(self):
        ds = read_dataset(
            bundled_path("noninteger_orbits.txt"),
            bundled_path("noninteger_curves.txt"),
        )
        with pytest.warns(IntegerCoefficientWarning) as record:
            differential_matrix(ds)
        assert record[0].filename == __file__
        # A cobordism count of 1 into a double cover gives the coefficient 1/2.
        plus = OrbitRecord(orbit("p", 0, 3), side="plus")
        minus = OrbitRecord(orbit("m", 0, 2, mult=2), side="minus")
        ds = load_dataset([plus, minus], [CurveRecord("cobordism", 0, "p", "m", F(1))])
        d_plus, d_minus = side_complexes(ds)
        with pytest.warns(IntegerCoefficientWarning) as record:
            graded_map_from_dataset(ds, d_plus, d_minus, "cobordism")
        assert record[0].filename == __file__

    def test_integer_counts_of_any_type_accepted(self):
        # A count into a double cover used to be divided as a float, and
        # the coefficient then failed with a bare AttributeError.
        orbits = [orbit("a", 1, 4), orbit("b", 0, 1), orbit("q", 0, 2, mult=2)]
        for count in (3, np.int64(3), np.uint8(3)):
            curves = [symp("a", "b", 3), CurveRecord("symplectization", 1, "a", "q", count)]
            with pytest.warns(IntegerCoefficientWarning):
                cx = differential_matrix(load_dataset(orbits, curves))
            assert cx.block(1) == [[3], [F(3, 2)]] and homology(cx) == {1: 0, 0: 1}
            assert type(cx.block(1)[1][0].numerator) is int

    def test_differential_built_once(self, monkeypatch):
        cx = differential_matrix(consistent_random_dataset(2))
        differential = cx.differential
        checks = []
        monkeypatch.setattr(complexes, "_check_shapes", lambda *args: checks.append(args))
        assert [cx.block(g) for g in (0, 1, 2, 3)] == [differential.block(g) for g in (0, 1, 2, 3)]
        assert cx.differential is cx.differential is differential
        assert checks == []

    def test_consistent_dataset_coefficients_integral(self):
        ds = read_dataset(
            bundled_path("consistent_orbits.txt"),
            bundled_path("consistent_curves.txt"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegerCoefficientWarning)
            dp, dm = side_complexes(ds)
        for cx in (dp, dm):
            for block in cx.blocks.values():
                assert all(x.denominator == 1 for row in block for x in row)


class TestDSquared:
    def test_chain_of_two_fails(self):
        cx = make_complex(
            {2: ["a"], 1: ["b"], 0: ["c"]}, {2: [[1]], 1: [[1]]}
        )
        res = verify_d_squared(cx)
        assert not res.ok
        assert res.pair == ("a", "c")

    def test_zero_differential_ok(self):
        cx = make_complex({1: ["a", "b"], 0: ["c"]}, {})
        assert verify_d_squared(cx).ok

    def test_verdict_truth_is_its_ok(self):
        # ``if verify_d_squared(cx):`` reads the verdict, not the object.
        good = make_complex({1: ["a", "b"], 0: ["c"]}, {})
        bad = make_complex({2: ["a"], 1: ["b"], 0: ["c"]}, {2: [[1]], 1: [[1]]})
        assert bool(verify_d_squared(good)) is True
        assert bool(verify_d_squared(bad)) is False

    def test_cancelling_paths_ok(self):
        cx = make_complex(
            {2: ["a"], 1: ["b", "c"], 0: ["d"]},
            {2: [[1], [1]], 1: [[1, -1]]},
        )
        assert verify_d_squared(cx).ok

    def test_matches_direct_matrix_product(self):
        inputs = [(trial, (3, 4, 3)) for trial in range(25)]
        # Layers of more than 10 generators: the generator must space actions apart.
        inputs += [(seed, dims) for dims in ((10, 12, 10), (12, 3, 12)) for seed in range(3)]
        for seed, dims in inputs:
            ds = consistent_random_dataset(seed=seed, dims=dims)
            assert len(ds.orbits) == sum(dims)
            cx = differential_matrix(ds)
            assert verify_d_squared(cx).ok
            prod = ratmat.mat_mul_shaped(cx.block(1), cx.block(2), cx.dim(2))
            assert _is_zero(prod)
            betti = homology(cx)
            assert betti[2] - betti[1] + betti[0] == dims[0] - dims[1] + dims[2]

    def test_column_negation_agrees_with_direct_product(self):
        # Whether d^2 survives negating all counts out of one generator is
        # decided by the raw matrix product; the checker must agree with it.
        for seed in range(10):
            ds = consistent_random_dataset(seed=seed, dims=(2, 3, 2))
            cx = differential_matrix(ds)
            for g, col_gen in ((2, 0), (1, 0)):
                if cx.dim(g) == 0:
                    continue
                blocks = {h: _copy(cx.block(h)) for h in (1, 2)}
                for row in blocks[g]:
                    row[col_gen] = -row[col_gen]
                mod = GradedRationalComplex(cx.generators, blocks)
                direct = _is_zero(
                    ratmat.mat_mul_shaped(mod.block(1), mod.block(2), cx.dim(2))
                )
                assert verify_d_squared(mod).ok == direct

    def test_dataset_complex_squared_once_per_selection(self, monkeypatch):
        # verify_d_squared and homology of a complex share its
        # filtration's one d^2 product: the dataset's for a complex cut
        # from one, the complex itself for one built by hand.
        mat_mul = ratmat.mat_mul_shaped
        calls = []
        monkeypatch.setattr(ratmat, "mat_mul_shaped", lambda *a: calls.append(a) or mat_mul(*a))
        ds = consistent_random_dataset(1, dims=(10, 12, 10))
        calls.clear()
        cx = differential_matrix(ds)
        assert verify_d_squared(cx).ok
        homology(cx)
        assert len(calls) == 1
        calls.clear()
        by_hand = GradedRationalComplex(cx.generators, cx.blocks)
        assert verify_d_squared(by_hand).ok
        homology(by_hand)
        assert len(calls) == 1

    def test_dataset_verdict_equals_a_fresh_square(self):
        bundled, corrupted = (
            read_dataset(bundled_path("consistent_orbits.txt"), bundled_path(curves))
            for curves in ("consistent_curves.txt", "corrupted_curves.txt")
        )
        selections = [(ds, side) for ds in (bundled, corrupted) for side in ("plus", "minus")]
        selections.append((consistent_random_dataset(4), None))
        failed = 0
        for ds, side in selections:
            for cut in [None] + _cut_values(ds):
                cx = differential_matrix(ds, action_max=cut, side=side)
                fresh = GradedRationalComplex(cx.generators, cx.blocks)
                check = verify_d_squared(cx)
                assert check == fresh.differential.compose(fresh.differential).first_nonzero()
                failed += not check.ok
        assert failed > 0
        assert verify_d_squared(differential_matrix(corrupted, side="plus")).pair == ("Pa", "Pq")


class TestHomology:
    def test_zero_differential_counts_generators(self):
        cx = make_complex({2: ["a", "b", "c"]}, {})
        assert homology(cx) == {2: 3}

    def test_block_with_no_columns_is_skipped(self):
        # A block of a grading with no generators has rows but no columns.
        cx = GradedRationalComplex({4: ("a", "b")}, {5: [[], []]})
        assert homology(cx) == {4: 2}

    def test_acyclic_pair(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[1]]})
        assert homology(cx) == {1: 0, 0: 0}

    def test_rational_invertibility(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        assert homology(cx) == {1: 0, 0: 0}

    def test_refuses_broken_differential(self):
        cx = make_complex({2: ["a"], 1: ["b"], 0: ["c"]}, {2: [[1]], 1: [[1]]})
        with pytest.raises(ValidationError, match="verify_d_squared"):
            homology(cx)

    def test_each_block_eliminated_once_per_selection(self, monkeypatch):
        eliminate = ratmat.eliminate
        calls = []
        monkeypatch.setattr(
            ratmat, "eliminate", lambda rows: calls.append(rows) or eliminate(rows)
        )
        bundled = read_dataset(
            bundled_path("consistent_orbits.txt"), bundled_path("consistent_curves.txt")
        )
        limit = read_dataset(
            bundled_path("direct_limit_orbits.txt"), bundled_path("direct_limit_curves.txt")
        )
        selections = [(consistent_random_dataset(1, dims=(10, 12, 10)), None, None)]
        selections += [(bundled, side, None) for side in ("plus", "minus")]
        selections += [(limit, None, stage) for stage in limit.stages]
        blocks_seen = 0
        for ds, side, stage in selections:
            calls.clear()
            cx = differential_matrix(ds, side=side, stage=stage)
            homology(cx)
            for cut in GEN.action_cuts(_actions_info(ds, side, stage), 8):
                homology(differential_matrix(ds, action_max=cut, side=side, stage=stage))
            homology(cx)
            nonzero = sum(1 for b in cx.blocks.values() if not _is_zero(b))
            assert len(calls) == nonzero, (side, stage)
            blocks_seen += nonzero
            # A complex built by hand is its own filtration: each of its
            # blocks is eliminated once, however often it is asked.
            calls.clear()
            by_hand = GradedRationalComplex(cx.generators, cx.blocks)
            homology(by_hand)
            homology(by_hand)
            assert len(calls) == nonzero
        assert blocks_seen >= 5

    def test_invariance_under_generator_permutation_and_basis_change(self):
        rng = random.Random(5)
        for seed in range(5):
            ds = consistent_random_dataset(seed=seed)
            cx = differential_matrix(ds)
            dims = homology(cx)
            # permute the generators of grading 1
            perm = list(range(cx.dim(1)))
            rng.shuffle(perm)
            gens = dict(cx.generators)
            gens[1] = tuple(gens[1][p] for p in perm)
            blocks = {}
            blocks[2] = [
                [cx.block(2)[perm[r]][c] for c in range(cx.dim(2))]
                for r in range(cx.dim(1))
            ]
            blocks[1] = [
                [cx.block(1)[r][perm[c]] for c in range(cx.dim(1))]
                for r in range(cx.dim(0))
            ]
            permuted = GradedRationalComplex(gens, blocks)
            assert homology(permuted) == dims
            # conjugate grading 1 by an invertible rational matrix
            n = cx.dim(1)
            while True:
                u = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                if ratmat.det(u) != 0:
                    break
            uinv = _invert(u)
            blocks2 = {
                2: ratmat.mat_mul_shaped(uinv, cx.block(2), cx.dim(2)),
                1: ratmat.mat_mul_shaped(cx.block(1), u, n),
            }
            changed = GradedRationalComplex(cx.generators, blocks2)
            assert homology(changed) == dims


def _cut_oracle(ds, cut):
    """Betti numbers below ``cut``: blocks rebuilt from ``ds.curves``, ranked by sympy."""
    below = {}
    for oid in sorted(ds.orbits):
        if ds.orbit(oid).action < cut:
            below.setdefault(ds.orbit(oid).cz, []).append(oid)
    where = {oid: (g, j) for g, ids in below.items() for j, oid in enumerate(ids)}
    blocks = {
        g: [[F(0)] * len(ids) for _ in below.get(g - 1, ())] for g, ids in below.items()
    }
    for cur in ds.curves:
        if cur.level == "symplectization" and cur.from_id in where:
            g, col = where[cur.from_id]
            row = where[cur.to_id][1]
            blocks[g][row][col] += cur.count / ds.orbit(cur.to_id).multiplicity

    def rank(block):
        if not block or not block[0]:
            return 0
        rows = [[QQ(x.numerator, x.denominator) for x in row] for row in block]
        return DomainMatrix(rows, (len(rows), len(rows[0])), QQ).rank()

    ranks = {g: rank(b) for g, b in blocks.items()}
    return {g: len(ids) - ranks[g] - ranks.get(g + 1, 0) for g, ids in below.items()}


def _exact_dataset(seed, tmp_path):
    orbits, curves, info = GEN.exact_complex_dataset(seed, (16, 20, 16), 5)
    (tmp_path / "orbits.txt").write_text(orbits)
    (tmp_path / "curves.txt").write_text(curves)
    return read_dataset(tmp_path / "orbits.txt", tmp_path / "curves.txt"), info


def _permuted_actions(ds, seed):
    """``ds`` with the actions of each (stage, side, grading) shuffled against the ids, some tied.

    Curves join other gradings or stages, whose actions stay apart, so
    the result loads whenever those ranges do not overlap.
    """
    rng = random.Random(seed)
    groups = {}
    for oid, rec in ds.orbits.items():
        groups.setdefault((rec.stage, rec.side, rec.orbit.cz), []).append(oid)
    action = {}
    for ids in groups.values():
        values = [ds.orbit(oid).action for oid in ids]
        rng.shuffle(values)
        for i in range(1, len(values), 3):
            values[i] = values[i - 1]
        action.update(zip(ids, values))
    return load_dataset(
        [
            dataclasses.replace(rec, orbit=dataclasses.replace(rec.orbit, action=action[oid]))
            for oid, rec in ds.orbits.items()
        ],
        ds.curves,
    )


class TestActionOrder:
    """Dataset complexes list each grading in (action, id) order, so cuts are leading corners."""

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(st.integers(0, 10**6), st.tuples(*[st.integers(1, 5)] * 3))
    def test_permuted_actions_cut_as_leading_corners(self, seed, dims):
        ds = _permuted_actions(consistent_random_dataset(seed, dims), seed)
        full = differential_matrix(ds)
        for ids in full.generators.values():
            assert list(ids) == sorted(ids, key=lambda oid: (ds.orbit(oid).action, oid))
        for cut in _cut_values(ds):
            cx = differential_matrix(ds, action_max=cut)
            for g, ids in cx.generators.items():
                assert ids == full.generators[g][:len(ids)]
            for g, block in cx.blocks.items():
                assert block == [row[:cx.dim(g)] for row in full.block(g)[:cx.dim(g - 1)]]
            assert homology(cx) == _cut_oracle(ds, cut), cut

    def test_ties_are_listed_by_id(self):
        orbits = [orbit("c", 1, 5), orbit("a", 1, 5), orbit("b", 1, 4), orbit("z", 0, 1)]
        curves = [symp("c", "z", 1), symp("a", "z", 2), symp("b", "z", 3)]
        cx = differential_matrix(load_dataset(orbits, curves))
        assert cx.generators == {1: ("b", "a", "c"), 0: ("z",)}
        assert cx.blocks == {1: [[F(3), F(2), F(1)]]}

    def test_first_failing_pair_is_first_in_action_order(self):
        # d^2(a) = 2z and d^2(c) = z, with a before c by id, after it by action.
        orbits = [
            orbit("a", 2, 7), orbit("c", 2, 6), orbit("x", 1, 3), orbit("y", 1, 4),
            orbit("z", 0, 1),
        ]
        curves = [symp("a", "x", 2), symp("c", "y", 1), symp("x", "z", 1), symp("y", "z", 1)]
        cx = differential_matrix(load_dataset(orbits, curves))
        check = verify_d_squared(cx)
        assert (check.ok, check.grading, check.pair, check.value) == (False, 2, ("c", "z"), 1)


class TestActionCuts:
    """Every action cut against a rebuild from the curves, d^2 verdicts and the cache."""

    def _check_cuts(self, ds, info):
        for cut in _cut_values(ds):
            cx = differential_matrix(ds, action_max=cut)
            below = {oid for oid, rec in ds.orbits.items() if rec.orbit.action < cut}
            assert {oid for ids in cx.generators.values() for oid in ids} == below
            # A block is present exactly when a curve leaves a generator below the cut.
            assert set(cx.blocks) == {ds.orbit(c.from_id).cz for c in ds.curves if c.from_id in below}
            dims = homology(cx)
            assert dims == _cut_oracle(ds, cut), cut
            euler = sum((-1) ** g * b for g, b in dims.items())
            assert euler == GEN.euler_below(info, cut), cut

    @pytest.mark.parametrize("seed", range(25))
    def test_random_dataset_cuts_match_oracle(self, seed):
        ds = consistent_random_dataset(seed)
        self._check_cuts(ds, _actions_info(ds))

    @pytest.mark.parametrize("seed", [11, 12])
    def test_exact_dataset_cuts_match_oracle(self, seed, tmp_path):
        self._check_cuts(*_exact_dataset(seed, tmp_path))

    @pytest.mark.parametrize(
        "kind", [np.float16, np.float32, np.float64, np.longdouble, float, F],
        ids=lambda kind: kind.__name__,
    )
    def test_actions_of_every_number_type_cut_as_their_exact_values(self, kind):
        # The filtration orders actions by their exact values, numpy's
        # float32 included; the same dataset with those values as Fractions
        # gives the same cuts.
        ds = consistent_random_dataset(5)

        def rebuilt(action):
            orbits = [
                dataclasses.replace(rec.orbit, action=action(rec.orbit.action))
                for rec in ds.orbits.values()
            ]
            return load_dataset(orbits, ds.curves)

        typed = rebuilt(lambda a: kind(a / 10))
        exact = rebuilt(lambda a: F(*kind(a / 10).as_integer_ratio()))
        for cut in [None] + _cut_values(exact):
            got, want = (differential_matrix(d, action_max=cut) for d in (typed, exact))
            assert (got.generators, got.blocks) == (want.generators, want.blocks)
            assert verify_d_squared(got) == verify_d_squared(want)
            assert homology(got) == homology(want)

    def test_d_squared_fails_only_above_planted_action(self):
        for seed in range(5):
            ds = consistent_random_dataset(seed)
            lower = differential_matrix(ds).block(1)
            col = next(c for c in range(len(lower[0])) if any(row[c] for row in lower))
            planted = load_dataset(
                [rec.orbit for rec in ds.orbits.values()],
                ds.curves + (symp("g2_1", f"g1_{col}", 1),),
            )
            threshold = planted.orbit("g2_1").action
            for cut in _cut_values(planted):
                cx = differential_matrix(planted, action_max=cut)
                if cut <= threshold:
                    assert homology(cx) == homology(differential_matrix(ds, action_max=cut))
                    continue
                by_hand = GradedRationalComplex(
                    {g: tuple(ids) for g, ids in cx.generators.items()},
                    {g: _copy(b) for g, b in cx.blocks.items()},
                )
                check = verify_d_squared(by_hand)
                assert not check.ok and check.grading == 2 and check.pair[0] == "g2_1"
                with pytest.raises(ValidationError) as cut_err:
                    homology(cx)
                with pytest.raises(ValidationError) as hand_err:
                    homology(by_hand)
                assert str(cut_err.value) == str(hand_err.value)
                assert f"at pair {check.pair} (grading {check.grading})" in str(cut_err.value)

    def test_returned_complex_shares_nothing_with_the_cache(self):
        ds = consistent_random_dataset(3, dims=(4, 5, 4))
        cut = sorted({rec.orbit.action for rec in ds.orbits.values()})[-2]
        for action_max in (None, cut):
            first = differential_matrix(ds, action_max=action_max)
            fresh = differential_matrix(consistent_random_dataset(3, dims=(4, 5, 4)), action_max)
            assert first == fresh
            for block in first.blocks.values():
                for row in block:
                    row[:] = [F(7)] * len(row)
                block.append([F(7)] * len(block[0]))
            first.generators[9] = ("extra",)
            assert differential_matrix(ds, action_max=action_max) == fresh
            assert homology(differential_matrix(ds, action_max=action_max)) == homology(fresh)

    def test_datasets_read_twice_keep_their_own_filtration(self):
        paths = (bundled_path("consistent_orbits.txt"), bundled_path("consistent_curves.txt"))
        one, two = read_dataset(*paths), read_dataset(*paths)
        assert one == two
        a, b = differential_matrix(one, side="plus"), differential_matrix(two, side="plus")
        assert a == b
        assert a._cut[0] is not b._cut[0]
        assert differential_matrix(one, side="plus")._cut[0] is a._cut[0]

    def _two_noninteger_dataset(self):
        orbits = [
            orbit("a", 1, 10), orbit("b", 1, 5),
            orbit("q", 0, 2, mult=2), orbit("r", 0, 1, mult=2),
        ]
        return load_dataset(orbits, [symp("a", "q", 1), symp("b", "r", 1), symp("b", "q", 3)])

    def test_warnings_repeat_on_cached_calls_inside_the_cut(self):
        ds = self._two_noninteger_dataset()
        expected = {
            None: [("q", "a", "1/2"), ("q", "b", "3/2"), ("r", "b", "1/2")],
            F(6): [("q", "b", "3/2"), ("r", "b", "1/2")],
            F(3): [],
        }
        for _ in range(2):
            for action_max, entries in expected.items():
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    differential_matrix(ds, action_max=action_max)
                assert [str(w.message) for w in record] == [
                    f"coefficient of {tid} in the symplectization image of {fid} "
                    f"is {value}, not an integer"
                    for tid, fid, value in entries
                ]
                assert all(w.category is IntegerCoefficientWarning for w in record)
                assert all(w.filename == __file__ for w in record)


class TestSelectors:
    """Selectors that name nothing in the dataset are refused, not answered empty."""

    def test_nan_action_max_rejected(self):
        ds = consistent_random_dataset(0)
        with pytest.raises(DomainError, match="NaN"):
            differential_matrix(ds, action_max=float("nan"))

    @pytest.mark.parametrize("action_max", ["5", 1 + 0j, True], ids=repr)
    def test_action_max_not_a_real_number_rejected(self, action_max):
        ds = consistent_random_dataset(0)
        with pytest.raises(DomainError, match="real number"):
            differential_matrix(ds, action_max=action_max)

    @pytest.mark.parametrize("inf", [math.inf, np.longdouble(math.inf)], ids=repr)
    def test_infinite_action_max_keeps_everything_or_nothing(self, inf):
        ds = consistent_random_dataset(0)
        whole = differential_matrix(ds)
        above = differential_matrix(ds, action_max=inf)
        assert above == whole and homology(above) == homology(whole)
        below = differential_matrix(ds, action_max=-inf)
        assert (below.generators, below.blocks, homology(below)) == ({}, {}, {})

    def test_unknown_side_rejected(self):
        ds = read_dataset(
            bundled_path("consistent_orbits.txt"), bundled_path("consistent_curves.txt")
        )
        with pytest.raises(ValidationError, match="'left'"):
            differential_matrix(ds, side="left")

    def test_unknown_stage_rejected(self):
        ds = read_dataset(
            bundled_path("direct_limit_orbits.txt"), bundled_path("direct_limit_curves.txt")
        )
        assert ds.stages == [1, 2, 3]
        with pytest.raises(ValidationError, match="stage 99"):
            differential_matrix(ds, stage=99)

    def test_cut_of_count_not_lowering_action_raises_every_time(self):
        # The check runs once per selection, as its filtration is built, so
        # the whole complex (None), the cut at +inf and finite cuts share it.
        orbits = {"a": OrbitRecord(orbit("a", 1, 4)), "b": OrbitRecord(orbit("b", 0, 6))}
        ds = ModuliDataset(orbits=orbits, curves=(symp("a", "b", 1),))
        messages = set()
        for _ in range(2):
            for action_max in (None, math.inf, F(10), F(5)):
                with pytest.raises(ValidationError, match="a -> b does not lower action") as info:
                    differential_matrix(ds, action_max=action_max)
                messages.add(str(info.value))
        assert messages == {
            "symplectization entry a -> b does not lower action (4 -> 6); "
            "action cuts need d to lower action"
        }

    @pytest.mark.parametrize("source, target_action", [("a", 4), ("c", 4), ("a", 6)])
    def test_cut_of_count_not_lowering_action_names_pair(self, source, target_action):
        # load_dataset refuses such a curve; a dataset built around it gives
        # no complex.  Equal actions are refused whichever id sorts first.
        orbits = {
            source: OrbitRecord(orbit(source, 1, 4)),
            "b": OrbitRecord(orbit("b", 0, target_action)),
        }
        ds = ModuliDataset(orbits=orbits, curves=(symp(source, "b", 1),))
        with pytest.raises(ValidationError, match=f"{source} -> b does not lower action"):
            differential_matrix(ds, action_max=F(10))


def _whole_and_inf_datasets():
    bundled = [
        ("consistent_orbits.txt", "consistent_curves.txt"),
        ("consistent_orbits.txt", "corrupted_curves.txt"),
        ("direct_limit_orbits.txt", "direct_limit_curves.txt"),
        ("noninteger_orbits.txt", "noninteger_curves.txt"),
    ]
    params = [pytest.param("bundled", files, id=files[1]) for files in bundled]
    params += [pytest.param("exact", seed, id=f"exact-{seed}") for seed in (1, 2, 3)]
    params += [pytest.param("staged", seed, id=f"staged-{seed}") for seed in (1, 2, 3)]
    return params


class TestWholeIsCutAtInfinity:
    """``action_max=None`` is the cut at +inf: the same complex, warnings and verdicts."""

    @staticmethod
    def _dataset(kind, arg):
        if kind == "bundled":
            return read_dataset(*map(bundled_path, arg))
        if kind == "staged":
            return _staged_dataset(arg, (8, 10, 8), 3)[0]
        orbit_text, curve_text, _ = GEN.exact_complex_dataset(arg, (16, 20, 16), 5)
        orbits, curves = parse_records(orbit_text, "orbits")[0], parse_records(curve_text, "curves")[1]
        return load_dataset(orbits, curves)

    @staticmethod
    def _outputs(ds, action_max, side, stage):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cx = differential_matrix(ds, action_max=action_max, side=side, stage=stage)
        check = verify_d_squared(cx)
        try:
            dims = homology(cx)
        except ValidationError as exc:
            dims = str(exc)
        warned = [(w.category, str(w.message)) for w in record]
        return cx, warned, check, dims

    @pytest.mark.parametrize("kind, arg", _whole_and_inf_datasets())
    def test_whole_complex_equals_cut_at_infinity(self, kind, arg):
        ds = self._dataset(kind, arg)
        sides = [None] + sorted({rec.side for rec in ds.orbits.values() if rec.side})
        for side in sides:
            for stage in [None] + ds.stages:
                whole = self._outputs(ds, None, side, stage)
                assert whole == self._outputs(ds, math.inf, side, stage), (side, stage)
                filtration, n = whole[0]._cut
                assert n == {g: len(ids) for g, ids in filtration.generators.items()}

    def test_hand_built_complex_is_its_full_cut(self):
        cx = make_complex({2: ["a"], 1: ["b", "c"], 0: []}, {2: [[1], [-1]]})
        filtration, n = cx._cut
        assert n == {g: cx.dim(g) for g in cx.generators} == {2: 1, 1: 2, 0: 0}
        assert filtration.generators is cx.generators and cx._cut[0] is filtration
        assert homology(cx) == {2: 0, 1: 1, 0: 0}


def _invert(m):
    n = len(m)
    aug = [list(map(F, row)) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        fp = aug[c][c]
        aug[c] = [x / fp for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [aug[r][k] - f * aug[c][k] for k in range(2 * n)]
    return [row[n:] for row in aug]


class TestChainMap:
    def test_identity_map_ok(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        assert chain_map_check(cx, cx, GradedMap.identity(cx)).ok

    def test_zero_map_ok(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        assert chain_map_check(cx, cx, GradedMap.zero(cx, cx)).ok

    def test_violation_reported(self):
        d_plus = make_complex({1: ["a"], 0: ["b"]}, {1: [[1]]})
        d_minus = make_complex({1: ["a'"], 0: ["b'"]}, {})
        phi = GradedMap(
            source=d_plus, target=d_minus, degree=0,
            blocks={1: [[F(1)]], 0: [[F(1)]]},
        )
        res = chain_map_check(d_plus, d_minus, phi)
        assert not res.ok
        assert res.pair == ("a", "b'")

    def test_map_from_unrelated_complex_rejected(self):
        d_plus = make_complex({1: ["a"], 0: ["b"]}, {1: [[1]]})
        other = make_complex({1: ["x"], 0: ["y"]}, {1: [[1]]})
        phi = GradedMap.identity(other)
        with pytest.raises(ValidationError, match="cannot compose"):
            chain_map_check(d_plus, d_plus, phi)


class TestChainHomotopy:
    def _pair(self):
        d_plus = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        d_minus = make_complex({1: ["a'"], 0: ["b'"]}, {})
        return d_plus, d_minus

    def test_rational_homotopy_required(self):
        # phi1 - phi0 = [1] against d_plus = [2] forces K_plus = [1/2].
        d_plus, d_minus = self._pair()
        phi0 = GradedMap.zero(d_plus, d_minus)
        phi1 = GradedMap(d_plus, d_minus, 0, {1: [[F(1)]]})
        k_plus = GradedMap(d_plus, d_minus, 1, {0: [[F(1, 2)]]})
        k_minus = GradedMap.zero(d_plus, d_minus, degree=1)
        assert chain_homotopy_check(phi0, phi1, k_plus, k_minus, d_plus, d_minus).ok
        k_wrong = GradedMap(d_plus, d_minus, 1, {0: [[F(1)]]})
        assert not chain_homotopy_check(
            phi0, phi1, k_wrong, k_minus, d_plus, d_minus
        ).ok

    def test_equal_maps_zero_homotopy(self):
        d_plus, d_minus = self._pair()
        phi = GradedMap(d_plus, d_minus, 0, {0: [[F(3)]]})
        zero = GradedMap.zero(d_plus, d_minus, degree=1)
        assert chain_homotopy_check(phi, phi, zero, zero, d_plus, d_minus).ok

    def test_nonzero_difference_zero_homotopy_fails(self):
        d_plus, d_minus = self._pair()
        phi0 = GradedMap.zero(d_plus, d_minus)
        phi1 = GradedMap(d_plus, d_minus, 0, {0: [[F(1)]]})
        zero = GradedMap.zero(d_plus, d_minus, degree=1)
        res = chain_homotopy_check(phi0, phi1, zero, zero, d_plus, d_minus)
        assert not res.ok
        assert res.pair == ("b", "b'")

    def test_k_plus_on_unrelated_complex_rejected(self):
        # Same sizes and the right block, but K_+ starts at other generators.
        d_plus, d_minus = self._pair()
        other = make_complex({1: ["x"], 0: ["y"]}, {1: [[2]]})
        phi0 = GradedMap.zero(d_plus, d_minus)
        phi1 = GradedMap(d_plus, d_minus, 0, {1: [[F(1)]]})
        k_plus = GradedMap(other, d_minus, 1, {0: [[F(1, 2)]]})
        k_minus = GradedMap.zero(d_plus, d_minus, degree=1)
        with pytest.raises(ValidationError, match="cannot compose"):
            chain_homotopy_check(phi0, phi1, k_plus, k_minus, d_plus, d_minus)

    def test_reversed_chain_maps_rejected(self):
        d_plus, d_minus = self._pair()
        phi0 = GradedMap.zero(d_minus, d_plus)
        phi1 = GradedMap(d_minus, d_plus, 0, {1: [[F(1)]]})
        k_plus = GradedMap(d_plus, d_minus, 1, {0: [[F(1, 2)]]})
        k_minus = GradedMap.zero(d_plus, d_minus, degree=1)
        with pytest.raises(ValidationError, match="cannot subtract"):
            chain_homotopy_check(phi0, phi1, k_plus, k_minus, d_plus, d_minus)

    def test_wrong_size_homotopy_rejected(self):
        d_plus, d_minus = self._pair()
        big = make_complex({1: ["x1", "x2"], 0: ["y1", "y2"]}, {})
        phi0 = GradedMap.zero(d_plus, d_minus)
        phi1 = GradedMap(d_plus, d_minus, 0, {1: [[F(1)]]})
        k_plus = GradedMap(d_plus, d_minus, 1, {0: [[F(1, 2)]]})
        k_zero = GradedMap.zero(d_plus, d_minus, degree=1)
        for kp, km in ((GradedMap.zero(big, big, degree=1), k_zero),
                       (k_plus, GradedMap.zero(big, big, degree=1))):
            with pytest.raises(ValidationError):
                chain_homotopy_check(phi0, phi1, kp, km, d_plus, d_minus)


class TestBundledTwoSided:
    def test_full_package(self):
        ds = read_dataset(
            bundled_path("consistent_orbits.txt"),
            bundled_path("consistent_curves.txt"),
        )
        d_plus, d_minus = side_complexes(ds)
        assert verify_d_squared(d_plus).ok
        assert verify_d_squared(d_minus).ok
        phi0 = graded_map_from_dataset(ds, d_plus, d_minus, "cobordism", tag="phi0")
        phi1 = graded_map_from_dataset(ds, d_plus, d_minus, "cobordism", tag="phi1")
        k_plus = graded_map_from_dataset(ds, d_plus, d_minus, "k_plus")
        k_minus = graded_map_from_dataset(ds, d_plus, d_minus, "k_minus")
        assert chain_map_check(d_plus, d_minus, phi0).ok
        assert chain_map_check(d_plus, d_minus, phi1).ok
        assert chain_homotopy_check(phi0, phi1, k_plus, k_minus, d_plus, d_minus).ok
        assert homology(d_plus) == {3: 1, 2: 0, 1: 0, 0: 1}

    def test_corrupted_names_planted_pair(self):
        ds = read_dataset(
            bundled_path("consistent_orbits.txt"),
            bundled_path("corrupted_curves.txt"),
        )
        d_plus, _ = side_complexes(ds)
        res = verify_d_squared(d_plus)
        assert not res.ok
        assert res.pair == ("Pa", "Pq")


class TestDirectLimit:
    def _identity_stages(self, n):
        cx = make_complex({1: ["x"], 0: ["y"]}, {})
        stages = [cx] * n
        maps = [GradedMap.identity(cx)] * (n - 1)
        return stages, maps

    def test_all_identity_maps(self):
        stages, maps = self._identity_stages(3)
        res = direct_limit(stages, maps)
        assert res.value == {1: 1, 0: 1}
        assert res.stabilized == {1: True, 0: True}
        assert res.stabilized_from == {1: 1, 0: 1}

    def test_zero_then_identity(self):
        cx = make_complex({0: ["y"]}, {})
        stages = [cx, cx, cx]
        maps = [
            GradedMap.zero(cx, cx),
            GradedMap.identity(cx),
        ]
        res = direct_limit(stages, maps)
        assert res.dims_by_stage[0] == {1: 0, 2: 1, 3: 1}
        assert res.value == {0: 1}
        assert res.stabilized_from == {0: 2}

    def test_identity_then_zero(self):
        # Stage 1's class lives on in stage 2 but not in stage 3, so its
        # image at the horizon needs the composed map, not the first one.
        cx = make_complex({0: ["y"]}, {})
        res = direct_limit([cx, cx, cx], [GradedMap.identity(cx), GradedMap.zero(cx, cx)])
        assert res.dims_by_stage[0] == {1: 0, 2: 0, 3: 1}
        assert res.stabilized == {0: False}
        assert res.stabilized_from == {0: None}

    def test_class_killed_at_stage_two(self):
        ds = read_dataset(
            bundled_path("direct_limit_orbits.txt"),
            bundled_path("direct_limit_curves.txt"),
        )
        stages, maps = stage_sequence(ds)
        res = direct_limit(stages, maps)
        assert res.value == {1: 1, 0: 0}
        assert res.all_stable
        # stage 1 had a surviving class in grading 0; it dies at stage 2
        assert res.dims_by_stage[0] == {1: 0, 2: 0, 3: 0}

    def test_absent_blocks_are_not_eliminated(self, monkeypatch):
        # A missing block is zero: its cycles are the identity, with
        # nothing to eliminate.  Stage 1 of the bundled data has no block
        # 1, so the 4 calls are one per grading (0 and 1) and the kernels
        # of block 1 at stages 2 and 3.
        ds = read_dataset(
            bundled_path("direct_limit_orbits.txt"),
            bundled_path("direct_limit_curves.txt"),
        )
        stages, maps = stage_sequence(ds)
        eliminate = ratmat.eliminate
        calls = []
        monkeypatch.setattr(
            ratmat, "eliminate", lambda rows: calls.append(rows) or eliminate(rows)
        )
        res = direct_limit(stages, maps)
        assert len(calls) == 4
        assert res.dims_by_stage == {0: {1: 0, 2: 0, 3: 0}, 1: {1: 1, 2: 1, 3: 1}}
        assert res.value == {0: 0, 1: 1}
        assert res.stabilized_from == {0: 1, 1: 1}
        # An explicit zero block gives what its absence gives.
        absent = make_complex({1: ["x", "y"], 0: ["z"]}, {})
        explicit = GradedRationalComplex(absent.generators, {1: ratmat.zeros(1, 2)})
        for stages in ([absent, explicit], [explicit, absent]):
            maps = [GradedMap(stages[0], stages[1], 0, {0: [[F(1)]], 1: ratmat.identity(2)})]
            res = direct_limit(stages, maps)
            assert res.dims_by_stage == {0: {1: 1, 2: 1}, 1: {1: 2, 2: 2}}

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_one_elimination_per_grading_and_block(self, seed, monkeypatch):
        # Gradings 0, 1, 2 and blocks 1, 2 at each of 3 stages: 3 + 6 eliminations.
        (stages, maps), info = _staged(seed, (8, 10, 8), 3)
        eliminate, compose = ratmat.eliminate, GradedMap.compose
        calls, composers = [], []
        monkeypatch.setattr(
            ratmat, "eliminate", lambda rows: calls.append(rows) or eliminate(rows)
        )

        def traced_compose(outer, inner):
            composers.append(sys._getframe(1).f_code.co_name)
            return compose(outer, inner)

        monkeypatch.setattr(GradedMap, "compose", traced_compose)
        res = direct_limit(stages, maps)
        assert len(calls) == 9
        # Two products per chain-map check, and no composite of stage maps.
        assert composers == ["chain_map_check"] * 4
        assert res.value == info["betti"]
        assert set(res.stabilized_from.values()) == {1}

    def test_grading_absent_from_a_stage(self):
        # Grading 1 lives at stage 1 only, so no class of it reaches the last stage.
        first = make_complex({1: ["x"], 0: ["y"]}, {})
        last = make_complex({0: ["z"]}, {})
        res = direct_limit([first, last], [GradedMap(first, last, 0, {0: [[F(1)]]})])
        assert res.dims_by_stage == {0: {1: 1, 2: 1}, 1: {1: 0, 2: 0}}
        assert res.value == {0: 1, 1: 0}
        assert res.stabilized_from == {0: 1, 1: 1}

    def test_missing_map_rejected(self):
        stages, _ = self._identity_stages(3)
        with pytest.raises(ValidationError, match="need a chain map between each consecutive"):
            direct_limit(stages, [GradedMap.identity(stages[0])])

    def test_no_stage_rejected(self):
        with pytest.raises(ValidationError, match="at least one stage"):
            direct_limit([], [])

    def test_failed_chain_map_rejected(self):
        d_plus = make_complex({1: ["a"], 0: ["b"]}, {1: [[1]]})
        d_minus = make_complex({1: ["a'"], 0: ["b'"]}, {})
        bad = GradedMap(d_plus, d_minus, 0, {1: [[F(1)]], 0: [[F(1)]]})
        with pytest.raises(ValidationError, match="chain map"):
            direct_limit([d_plus, d_minus], [bad])

    def test_map_from_unrelated_complex_rejected(self):
        stages, _ = self._identity_stages(2)
        other = make_complex({1: ["u"], 0: ["v"]}, {})
        with pytest.raises(ValidationError, match="cannot compose"):
            direct_limit(stages, [GradedMap.identity(other)])


@st.composite
def zero_differential_sequences(draw):
    """1-4 stages with zero differential, joined by arbitrary integer maps.

    The maps may be singular and a stage may lack a grading, so images
    shrink, grow back and vanish along the sequence.
    """
    n = draw(st.integers(1, 4))
    gradings = range(draw(st.integers(1, 3)))
    stages = []
    for s in range(n):
        dims = {g: draw(st.integers(0, 3)) for g in gradings}
        generators = {g: tuple(f"s{s}g{g}_{j}" for j in range(d)) for g, d in dims.items() if d}
        stages.append(GradedRationalComplex(generators, {}))
    maps = []
    for source, target in zip(stages, stages[1:]):
        blocks = {}
        for g in gradings:
            if draw(st.booleans()):
                rows, cols = target.dim(g), source.dim(g)
                size = rows * cols
                entries = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
                blocks[g] = [[F(x) for x in entries[r * cols:(r + 1) * cols]] for r in range(rows)]
        maps.append(GradedMap(source, target, 0, blocks))
    return stages, maps


def _staged_dataset(seed, dims, n):
    """``gen.staged_dataset`` loaded, and its generator info."""
    orbit_text, curve_text, info = GEN.staged_dataset(seed, dims, n)
    orbits, curves = parse_records(orbit_text, "orbits")[0], parse_records(curve_text, "curves")[1]
    return load_dataset(orbits, curves), info


def _staged(seed, dims, n):
    """The stage sequence of ``gen.staged_dataset`` and its generator info."""
    ds, info = _staged_dataset(seed, dims, n)
    return stage_sequence(ds), info


class TestDirectLimitProperty:
    """direct_limit against the stage-by-stage sympy oracle."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(zero_differential_sequences())
    def test_zero_differential_chains_match_oracle(self, sequence):
        stages, maps = sequence
        assert direct_limit(stages, maps).dims_by_stage == direct_limit_oracle(stages, maps)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 5))
    def test_staged_datasets_match_oracle(self, seed, n):
        (stages, maps), _ = _staged(seed, (3, 4, 3), n)
        assert direct_limit(stages, maps).dims_by_stage == direct_limit_oracle(stages, maps)

    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(st.integers(1, 10), st.integers(2, 4))
    def test_staged_datasets_with_permuted_actions_match_oracle(self, seed, n):
        ds, _ = _staged_dataset(seed, (3, 4, 3), n)
        stages, maps = stage_sequence(_permuted_actions(ds, seed))
        assert direct_limit(stages, maps).dims_by_stage == direct_limit_oracle(stages, maps)


class TestGradedMapAlgebra:
    def test_differential_is_the_degree_minus_one_self_map(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        d = cx.differential
        assert (d.source, d.target, d.degree, d.blocks) == (cx, cx, -1, cx.blocks)

    def test_compose_keys_blocks_by_inner_source_grading(self):
        cx = make_complex({2: ["a"], 1: ["b", "c"], 0: ["d"]},
                          {2: [[1], [2]], 1: [[3, 4]]})
        square = cx.differential.compose(cx.differential)
        assert square.degree == -2
        assert square.blocks == {2: [[F(11)]]}
        ident = GradedMap.identity(cx)
        assert ident.compose(cx.differential).blocks == cx.blocks
        assert cx.differential.compose(ident).blocks == cx.blocks

    def test_minus_and_its_guards(self):
        cx = make_complex({1: ["a"], 0: ["b"]}, {1: [[2]]})
        other = make_complex({1: ["x"], 0: ["y"]}, {})
        ident = GradedMap.identity(cx)
        diff = ident.minus(GradedMap(cx, cx, 0, {0: [[F(3)]]}))
        assert diff.blocks == {1: [[F(1)]], 0: [[F(-2)]]}
        assert diff.first_nonzero() == IdentityCheck(False, 1, ("a", "a"), F(1))
        assert ident.minus(ident).first_nonzero().ok
        for bad in (GradedMap.zero(cx, cx, degree=1), GradedMap.zero(other, cx),
                    GradedMap.zero(cx, other)):
            with pytest.raises(ValidationError, match="cannot subtract"):
                ident.minus(bad)
        with pytest.raises(ValidationError, match="cannot compose"):
            ident.compose(GradedMap.identity(other))


def _raised(m):
    """Copies of a complex or graded map, each with one entry raised by 1.

    Every entry of every block is raised once, absent (zero) blocks too.
    """
    if isinstance(m, GradedMap):
        gradings = m.source.gradings
    else:
        gradings = m.gradings
    for g in gradings:
        block = m.block(g)
        for i, row in enumerate(block):
            for j in range(len(row)):
                blocks = dict(m.blocks)
                blocks[g] = _copy(block)
                blocks[g][i][j] += 1
                yield dataclasses.replace(m, blocks=blocks)


def _with_each_raised(args):
    """``args``, then ``args`` with each argument replaced by each of its raises."""
    yield args
    for pos, arg in enumerate(args):
        for raised in _raised(arg):
            yield args[:pos] + (raised,) + args[pos + 1:]


def _random_homotopy(cx, seed):
    """phi0 = 1 - K d - d K and phi1 = 1 on ``cx``, with a random K."""
    rng = random.Random(seed)
    k = GradedMap(cx, cx, 1, {
        g: [[F(rng.randint(-2, 2)) for _ in range(cx.dim(g))] for _ in range(cx.dim(g + 1))]
        for g in cx.gradings
    })
    d = cx.differential
    ident = GradedMap.identity(cx)
    phi0 = ident.minus(k.compose(d)).minus(d.compose(k))
    return phi0, ident, k, k


def _sparse_random_maps(seed):
    """Two complexes and maps between them with sparse random blocks.

    None of the identities needs to hold, so the nonzero entries of each
    difference scatter over rows and columns and the scan order shows.
    """
    rng = random.Random(seed)
    sizes = {2: 3, 1: 4, 0: 3}

    def block(rows, cols):
        return [[F(rng.choice((0, 0, 0, 1, -1))) for _ in range(cols)] for _ in range(rows)]

    def graded(target, degree):
        """Blocks from every grading of ``sizes`` into the generators ``target``."""
        return {g: block(len(target.get(g + degree, ())), n) for g, n in sorted(sizes.items())}

    gens = {
        name: {g: tuple(f"{name}{g}_{j}" for j in range(n)) for g, n in sizes.items()}
        for name in "pm"
    }
    plus, minus = (GradedRationalComplex(gens[name], graded(gens[name], -1)) for name in "pm")
    phi0, phi1 = (GradedMap(plus, minus, 0, graded(gens["m"], 0)) for _ in range(2))
    k_plus, k_minus = (GradedMap(plus, minus, 1, graded(gens["m"], 1)) for _ in range(2))
    return plus, minus, phi0, phi1, k_plus, k_minus


def identity_check_cases():
    """(check name, arguments) pairs covering passing and failing identities.

    Seeded random complexes with a random homotopy, the bundled two-sided
    dataset and its corrupted copy, each also with every single entry of
    every block raised by 1; then maps with sparse random blocks.
    """
    for seed in range(3):
        cx = differential_matrix(consistent_random_dataset(seed))
        phi0, phi1, k_plus, k_minus = _random_homotopy(cx, seed)
        yield from (("d2", a) for a in _with_each_raised((cx,)))
        yield from (("chain_map", a) for a in _with_each_raised((cx, cx, phi0)))
        homotopy = (phi0, phi1, k_plus, k_minus, cx, cx)
        yield from (("homotopy", a) for a in _with_each_raised(homotopy))
    ds = read_dataset(
        bundled_path("consistent_orbits.txt"), bundled_path("consistent_curves.txt")
    )
    d_plus, d_minus = side_complexes(ds)
    phi0, phi1 = (
        graded_map_from_dataset(ds, d_plus, d_minus, "cobordism", tag=tag)
        for tag in ("phi0", "phi1")
    )
    k_plus = graded_map_from_dataset(ds, d_plus, d_minus, "k_plus")
    k_minus = graded_map_from_dataset(ds, d_plus, d_minus, "k_minus")
    for cx in (d_plus, d_minus):
        yield from (("d2", a) for a in _with_each_raised((cx,)))
    for phi in (phi0, phi1):
        yield from (("chain_map", a) for a in _with_each_raised((d_plus, d_minus, phi)))
    homotopy = (phi0, phi1, k_plus, k_minus, d_plus, d_minus)
    yield from (("homotopy", a) for a in _with_each_raised(homotopy))
    corrupted = read_dataset(
        bundled_path("consistent_orbits.txt"), bundled_path("corrupted_curves.txt")
    )
    for cx in side_complexes(corrupted):
        yield from (("d2", a) for a in _with_each_raised((cx,)))
    for seed in range(40):
        plus, minus, phi0, phi1, k_plus, k_minus = _sparse_random_maps(seed)
        yield "d2", (plus,)
        yield "chain_map", (plus, minus, phi0)
        yield "homotopy", (phi0, phi1, k_plus, k_minus, plus, minus)


IDENTITY_CHECKS = {
    "d2": (verify_d_squared, d_squared_oracle),
    "chain_map": (chain_map_check, chain_map_oracle),
    "homotopy": (chain_homotopy_check, chain_homotopy_oracle),
}


def test_identity_checks_match_dense_oracle():
    outcomes = {True: 0, False: 0}
    for name, args in identity_check_cases():
        check, oracle = IDENTITY_CHECKS[name]
        res = check(*args)
        assert (res.ok, res.grading, res.pair, res.value) == oracle(*args), (name, args)
        outcomes[res.ok] += 1
    # Both outcomes are well represented: 55 pass and 1015 fail.
    assert outcomes[True] >= 40 and outcomes[False] >= 900



UNSTAGED = load_dataset([orbit("a", 1, 2), orbit("b", 0, 1)], [])
UNSTAGED_CX = differential_matrix(UNSTAGED)


def _with_count(count):
    curve = CurveRecord("symplectization", 1, "a", "b", count)
    return load_dataset(UNSTAGED.orbits.values(), [curve])


def _homotopy_check(k_degree, phi_degree):
    cx = make_complex({1: ["a"], 0: ["b"]}, {})
    phi, k = GradedMap(cx, cx, phi_degree, {}), GradedMap(cx, cx, k_degree, {})
    return chain_homotopy_check(phi, phi, k, k, cx, cx)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(
        lambda: make_complex({1: ["a"], 0: ["b"]}, {1: [[1, 2]]}), ValidationError,
        "differential block at grading 1 has shape (1, 2), expected (1,1)", id="block-shape",
    ),
    pytest.param(
        lambda: graded_map_from_dataset(UNSTAGED, UNSTAGED_CX, UNSTAGED_CX, "symplectization"),
        ValidationError, "graded maps come from cobordism or k levels, not symplectization",
        id="map-level",
    ),
    pytest.param(
        lambda: chain_map_check(
            UNSTAGED_CX, UNSTAGED_CX, GradedMap.zero(UNSTAGED_CX, UNSTAGED_CX, 1)
        ),
        ValidationError, "chain maps must preserve the grading", id="chain-map-degree",
    ),
    pytest.param(
        lambda: _homotopy_check(0, 0), ValidationError,
        "homotopy maps must raise the grading by 1", id="homotopy-degree",
    ),
    pytest.param(
        lambda: _homotopy_check(1, 1), ValidationError,
        "chain maps must preserve the grading", id="homotopy-chain-map-degree",
    ),
    pytest.param(
        lambda: stage_sequence(UNSTAGED), ValidationError,
        "dataset carries no stage labels", id="no-stages",
    ),
    pytest.param(
        lambda: direct_limit(
            [UNSTAGED_CX] * 2,
            [GradedMap.identity(UNSTAGED_CX), GradedMap(UNSTAGED_CX, UNSTAGED_CX, 0, {1: [[F(2)]]})],
        ),
        ValidationError,
        "need a chain map between each consecutive stage, 1 in all, got 2", id="extra-map",
    ),

    # A NaN block entry raised a bare ValueError from the exact conversion.
    pytest.param(
        lambda: homology(GradedRationalComplex({0: ("a",), 1: ("b",)}, {1: [[math.nan]]})),
        DomainError, "entry nan is not finite", id="homology-nan",
    ),
    pytest.param(
        lambda: _with_count(0.5), DatasetError,
        "dataset validation failed: <memory>: curve count must be rational, got 0.5",
        id="count-half",
    ),
    pytest.param(
        lambda: _with_count(2.0), DatasetError,
        "dataset validation failed: <memory>: curve count must be rational, got 2.0",
        id="count-float-integer",
    ),
    pytest.param(
        lambda: _with_count(math.nan), DatasetError,
        "dataset validation failed: <memory>: curve count must be rational, got nan",
        id="count-nan",
    ),
    pytest.param(
        lambda: _with_count(True), DatasetError,
        "dataset validation failed: <memory>: curve count must be rational, got True",
        id="count-bool",
    ),
    pytest.param(
        lambda: _with_count("1"), DatasetError,
        "dataset validation failed: <memory>: curve count must be rational, got '1'",
        id="count-string",
    ),
])
def test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (error, message)
