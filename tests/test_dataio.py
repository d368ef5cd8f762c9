from fractions import Fraction

import pytest

from cylcc.dataio import bundled_path, parse_records, read_dataset
from cylcc.errors import DatasetError


def test_empty_file_parses_to_empty_dataset(tmp_path):
    orbits = tmp_path / "orbits.txt"
    curves = tmp_path / "curves.txt"
    orbits.write_text("")
    curves.write_text("# only a comment\n")
    ds = read_dataset(orbits, curves)
    assert ds.orbits == {}
    assert ds.curves == ()


def test_malformed_rational_diagnosed_with_line(tmp_path):
    orbits = tmp_path / "orbits.txt"
    curves = tmp_path / "curves.txt"
    orbits.write_text(
        "orbit a simple=s mult=1 type=neg_hyp action=1/0 cz=1\n"
    )
    curves.write_text("")
    with pytest.raises(DatasetError) as err:
        read_dataset(orbits, curves)
    messages = [str(d) for d in err.value.diagnostics]
    assert any("orbits.txt:1" in m and "1/0" in m for m in messages)


def test_duplicate_orbit_id_names_both_lines(tmp_path):
    orbits = tmp_path / "orbits.txt"
    curves = tmp_path / "curves.txt"
    orbits.write_text(
        "orbit a simple=s mult=1 type=neg_hyp action=2 cz=1\n"
        "\n"
        "orbit a simple=t mult=1 type=neg_hyp action=3 cz=1\n"
    )
    curves.write_text("")
    with pytest.raises(DatasetError) as err:
        read_dataset(orbits, curves)
    messages = [str(d) for d in err.value.diagnostics]
    assert any("orbits.txt:3" in m and "orbits.txt:1" in m for m in messages)


def test_comments_and_blank_lines_ignored():
    orbits, curves, diags = parse_records(
        "# header\n\norbit a simple=s mult=1 type=neg_hyp action=2 cz=1  # trailing\n",
        "mem",
    )
    assert not diags
    assert len(orbits) == 1
    assert orbits[0].orbit.action == Fraction(2)


def test_unknown_record_kind_diagnosed():
    _, _, diags = parse_records("squiggle x=1\n", "mem")
    assert len(diags) == 1
    assert "squiggle" in str(diags[0])


def test_unknown_field_diagnosed():
    _, _, diags = parse_records(
        "orbit a simple=s mult=1 type=neg_hyp action=2 cz=1 zork=5\n", "mem"
    )
    assert any("zork" in str(d) for d in diags)


def test_orbit_parity_violation_reported_at_line(tmp_path):
    orbits = tmp_path / "orbits.txt"
    curves = tmp_path / "curves.txt"
    orbits.write_text("orbit a simple=s mult=1 type=pos_hyp action=2 cz=1\n")
    curves.write_text("")
    with pytest.raises(DatasetError) as err:
        read_dataset(orbits, curves)
    assert any("even cz" in str(d) for d in err.value.diagnostics)


def test_bundled_datasets_readable():
    ds = read_dataset(
        bundled_path("consistent_orbits.txt"),
        bundled_path("consistent_curves.txt"),
    )
    assert len(ds.orbits) == 12
    sides = {rec.side for rec in ds.orbits.values()}
    assert sides == {"plus", "minus"}


def test_bundled_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        bundled_path("no_such_file.txt")


def test_curve_tag_roundtrip():
    _, curves, diags = parse_records(
        "curve level=cob ind=0 from=a to=b count=-3/2 tag=phi1\n", "mem"
    )
    assert not diags
    assert curves[0].tag == "phi1"
    assert curves[0].count == Fraction(-3, 2)


@pytest.mark.parametrize("text,value", [("3", 3), ("-3/2", Fraction(-3, 2)), ("+4", 4)])
def test_rational_grammar_accepts(text, value):
    _, curves, diags = parse_records(
        f"curve level=cob ind=0 from=a to=b count={text}\n", "mem"
    )
    assert not diags
    assert curves[0].count == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_0", "3/0", "1/"])
def test_rational_grammar_rejects(text):
    # Only p or p/q: no decimals, exponents, underscores or zero denominators.
    _, curves, diags = parse_records(
        f"curve level=cob ind=0 from=a to=b count={text}\n", "mem"
    )
    assert not curves
    assert [str(d) for d in diags] == [f"mem:1: malformed rational count={text!r}"]
