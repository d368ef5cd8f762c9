import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cylcc.errors import ValidationError
from cylcc.indices import (
    CurveTopology,
    ReebOrbit,
    WindingViolation,
    automatic_transversality,
    classify_orbit,
    cover_index,
    cz_index,
    fredholm_index,
    winding_bounds_check,
)
from cylcc.spectral import OperatorKind, closed_form_spectrum


def orbit(oid, mult, simple_type, cz_simple, action=None):
    return ReebOrbit(
        id=oid,
        simple_id=f"{oid}_s",
        multiplicity=mult,
        simple_type=simple_type,
        action=Fraction(action if action is not None else 2 * mult),
        cz_simple=cz_simple,
    )


class TestClassify:
    def test_double_cover_of_negative_hyperbolic_is_bad(self):
        cls = classify_orbit(orbit("g", 2, "neg_hyperbolic", 1))
        assert cls.parity == "even"
        assert cls.quality == "bad"

    def test_odd_cover_is_good(self):
        cls = classify_orbit(orbit("g", 3, "neg_hyperbolic", 1))
        assert cls.parity == "odd"
        assert cls.quality == "good"

    def test_simple_positive_hyperbolic_is_even_good(self):
        cls = classify_orbit(orbit("h", 1, "pos_hyperbolic", 0))
        assert cls.parity == "even"
        assert cls.quality == "good"

    def test_parity_type_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            orbit("x", 1, "pos_hyperbolic", 1)
        with pytest.raises(ValidationError):
            orbit("x", 1, "neg_hyperbolic", 2)

    def test_parity_matches_cz_parity(self):
        rng = random.Random(7)
        for _ in range(100):
            if rng.random() < 0.5:
                o = orbit("a", rng.randint(1, 6), "pos_hyperbolic", 2 * rng.randint(-3, 3))
            else:
                o = orbit("a", rng.randint(1, 6), "neg_hyperbolic", 2 * rng.randint(-3, 3) + 1)
            assert (classify_orbit(o).parity == "even") == (cz_index(o) % 2 == 0)


class TestCzIndex:
    def test_multiplicative(self):
        assert cz_index(orbit("g", 2, "neg_hyperbolic", 1)) == 2

    def test_zero_base(self):
        assert cz_index(orbit("g", 5, "pos_hyperbolic", 0)) == 0

    def test_negative_base(self):
        assert cz_index(orbit("g", 3, "neg_hyperbolic", -1)) == -3


class TestFredholm:
    def test_cylinder(self):
        table = {
            "top": orbit("top", 1, "neg_hyperbolic", 1),
            "bot": orbit("bot", 1, "pos_hyperbolic", 0),
        }
        topo = CurveTopology(0, ("top",), ("bot",), c1=0)
        assert topo.euler_characteristic == 0
        assert fredholm_index(topo, table) == 1

    def test_plane(self):
        table = {"top": orbit("top", 2, "neg_hyperbolic", 1)}
        topo = CurveTopology(0, ("top",), (), c1=0)
        assert topo.euler_characteristic == 1
        assert fredholm_index(topo, table) == 1

    def test_negative_index_cover_configuration(self):
        # ind(v_0) = -k for the k-fold cover of an ind = -1 cylinder.
        k = 4
        table = {
            "top": orbit("top", k, "neg_hyperbolic", -1),
            "bot": orbit("bot", k, "pos_hyperbolic", 0),
        }
        topo = CurveTopology(0, ("top",), ("bot",), c1=0)
        assert fredholm_index(topo, table) == -k

    def test_unknown_id(self):
        topo = CurveTopology(0, ("ghost",), (), c1=0)
        with pytest.raises(LookupError):
            fredholm_index(topo, {})

    def test_puncture_lists_must_not_both_be_empty(self):
        with pytest.raises(ValidationError):
            CurveTopology(1, (), (), c1=0)


class TestCoverIndex:
    def test_paper_example(self):
        assert cover_index(-1, 3, 0) == -3

    def test_substitutions(self):
        assert cover_index(1, 2, 1) == 3
        assert cover_index(0, 7, 4) == 4

    def test_exact_linearity_in_branching(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rng.randint(-20, 20)
            k = rng.randint(1, 9)
            b1 = rng.randint(0, 10)
            b2 = rng.randint(0, 10)
            assert cover_index(a, k, b1 + b2) == cover_index(a, k, b1) + b2

    def test_unbranched_cover_matches_fredholm_recomputation(self):
        rng = random.Random(13)
        for _ in range(200):
            cz_top = 2 * rng.randint(-4, 4) + 1
            cz_bot = 2 * rng.randint(-4, 4)
            m_top = 2 * rng.randint(0, 2) + 1  # odd cover of neg hyperbolic
            m_bot = rng.randint(1, 4)
            k = rng.randint(1, 5)
            base_table = {
                "t": orbit("t", m_top, "neg_hyperbolic", cz_top),
                "b": orbit("b", m_bot, "pos_hyperbolic", cz_bot),
            }
            cover_table = {
                "t": orbit("t", k * m_top, "neg_hyperbolic", cz_top, action=6 * k * m_top),
                "b": orbit("b", k * m_bot, "pos_hyperbolic", cz_bot, action=2 * k * m_bot),
            }
            topo = CurveTopology(0, ("t",), ("b",), c1=0)
            base = fredholm_index(topo, base_table)
            via_formula = fredholm_index(topo, cover_table)
            assert via_formula == cover_index(base, k, 0)


class TestAutomaticTransversality:
    def test_examples(self):
        assert automatic_transversality(1, 0, 2) is True
        assert automatic_transversality(0, 0, 0) is True
        assert automatic_transversality(2, 1, 2) is False

    def test_index_one_cylinders_between_odd_orbits(self):
        # chi = 0, genus 0; both ends odd means no even ends at all.
        assert automatic_transversality(1, 0, 0)
        for gamma0 in (0, 1, 2):
            assert automatic_transversality(2, 0, gamma0)


class TestWindingBounds:
    def test_pos_hyperbolic_no_violations(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.1), 6)
        report = winding_bounds_check(table, cz=0)
        assert report.ok

    def test_neg_hyperbolic_no_violations(self):
        table = closed_form_spectrum(OperatorKind.neg_hyperbolic(0.2), 6)
        report = winding_bounds_check(table, cz=1)
        assert report.ok

    def test_shifted_cz_reports_violation(self):
        table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.1), 6)
        report = winding_bounds_check(table, cz=2)
        assert not report.ok
        assert any(v.index == 1 for v in report.violations)


@pytest.mark.parametrize("call,message", [
    pytest.param(
        lambda: orbit("a", 1, "elliptic", 0), "orbit a: unknown simple_type 'elliptic'",
        id="simple-type",
    ),
    pytest.param(lambda: orbit("a", 0, "pos_hyperbolic", 0), "orbit a: multiplicity must be >= 1",
                 id="multiplicity"),
    pytest.param(lambda: orbit("a", 1, "pos_hyperbolic", 0, action=0),
                 "orbit a: action must be positive", id="action"),
    pytest.param(lambda: CurveTopology(-1, ("a",), (), 0), "genus must be nonnegative", id="genus"),
    pytest.param(lambda: cover_index(1, 0, 0), "cover degree must be >= 1", id="degree"),
    pytest.param(lambda: cover_index(1, 1, -1), "branching must be >= 0", id="branching"),
    # Non-integral and bool counts, and non-finite actions, constructed.
    pytest.param(
        lambda: ReebOrbit("a", "a", 1.5, "pos_hyperbolic", Fraction(1), 2),
        "orbit a: multiplicity must be an integer, got 1.5", id="multiplicity-half",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", True, "pos_hyperbolic", Fraction(1), 2),
        "orbit a: multiplicity must be an integer, got True", id="multiplicity-bool",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", Fraction(1), 1.5),
        "orbit a: cz_simple must be an integer, got 1.5", id="cz-half",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "pos_hyperbolic", Fraction(1), False),
        "orbit a: cz_simple must be an integer, got False", id="cz-bool",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", math.nan, 1),
        "orbit a: action must be finite, got nan", id="action-nan",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", math.inf, 1),
        "orbit a: action must be finite, got inf", id="action-inf",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", -math.inf, 1),
        "orbit a: action must be positive", id="action-minus-inf",
    ),
    pytest.param(lambda: cover_index(2, 1.5, 0), "cover degree must be an integer, got 1.5",
                 id="degree-half"),
    pytest.param(lambda: cover_index(2, True, 0), "cover degree must be an integer, got True",
                 id="degree-bool"),
    pytest.param(lambda: cover_index(2, 1, 0.5), "branching must be an integer, got 0.5",
                 id="branching-half"),
    pytest.param(lambda: CurveTopology(0.5, ("a",), (), 0), "genus must be an integer, got 0.5",
                 id="genus-half"),
    pytest.param(lambda: CurveTopology(True, ("a",), (), 0), "genus must be an integer, got True",
                 id="genus-bool"),
    # Non-integral c1 and base index, and a non-numeric action.
    pytest.param(lambda: CurveTopology(0, ("a",), (), 0.5), "c1 must be an integer, got 0.5",
                 id="c1-half"),
    pytest.param(lambda: CurveTopology(0, ("a",), (), True), "c1 must be an integer, got True",
                 id="c1-bool"),
    pytest.param(lambda: cover_index(1.5, 2, 0), "base index must be an integer, got 1.5",
                 id="base-index-half"),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", "2", 1),
        "orbit a: action must be a real number, got '2'", id="action-string",
    ),
    pytest.param(
        lambda: ReebOrbit("a", "a", 1, "neg_hyperbolic", True, 1),
        "orbit a: action must be a real number, got True", id="action-bool",
    ),
    # A cz or transversality input that is no integer, or a negative count.
    *[
        pytest.param(
            lambda cz=cz: winding_bounds_check(
                closed_form_spectrum(OperatorKind.pos_hyperbolic(0.1), 6), cz
            ),
            f"cz must be an integer, got {cz!r}", id=f"winding-cz-{name}",
        )
        for cz, name in [(math.nan, "nan"), (1.5, "half"), ("1", "string"), (True, "bool")]
    ],
    pytest.param(lambda: automatic_transversality(1.5, 0, 0), "index must be an integer, got 1.5",
                 id="transversality-index-half"),
    pytest.param(lambda: automatic_transversality(True, 0, 0),
                 "index must be an integer, got True", id="transversality-index-bool"),
    pytest.param(lambda: automatic_transversality(3, 0.5, 0), "genus must be an integer, got 0.5",
                 id="transversality-genus-half"),
    pytest.param(lambda: automatic_transversality(3, -1, 0), "genus must be nonnegative",
                 id="transversality-genus-negative"),
    pytest.param(lambda: automatic_transversality(3, 0, 1.0),
                 "even end count must be an integer, got 1.0", id="transversality-count-float"),
    pytest.param(lambda: automatic_transversality(3, 0, -1), "even end count must be nonnegative",
                 id="transversality-count-negative"),
])
def test_raises(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), info.value.args[0]) == (ValidationError, message)


def test_integral_numbers_of_other_types_accepted():
    o = ReebOrbit("a", "a", np.int64(3), "neg_hyperbolic", Fraction(3), np.int32(-1))
    assert o.cz == -3 and isinstance(o.cz, (int, np.integer))
    assert cover_index(2, np.int64(3), np.int8(1)) == 7
    assert CurveTopology(np.int64(1), ("a",), (), 0).euler_characteristic == -1


def test_winding_violation_reads_as_the_failed_bound():
    assert str(WindingViolation(-1, 1, 1, "<")) == "index -1: 2*wind = 2 fails 2*wind < cz = 1"


def test_entries_without_a_winding_are_skipped():
    table = closed_form_spectrum(OperatorKind.pos_hyperbolic(0.1), 2)
    shifted = winding_bounds_check(table, cz=2)
    assert not shifted.ok
    unknown = [dataclasses.replace(e, winding=None) for e in table.entries]
    report = winding_bounds_check(dataclasses.replace(table, entries=tuple(unknown)), cz=2)
    assert report.ok and report.cz == 2
