import dataclasses
from fractions import Fraction

import pytest

from cylcc import dataio
from cylcc.complexes import load_dataset
from cylcc.dataio import bundled_path, parse_records, read_dataset
from cylcc.errors import DatasetError, ValidationError
from cylcc.evaluation import EVMAP_KINDS, parse_evmap


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


# A small valid two-sided, two-stage dataset; each case below edits one line.
VALID_ORBITS = (
    "orbit a simple=sa mult=1 type=neg_hyp action=4 cz=1 side=plus stage=1",
    "orbit b simple=sb mult=1 type=pos_hyp action=2 cz=0 side=plus stage=1",
    "orbit c simple=sc mult=1 type=neg_hyp action=3 cz=1 side=minus stage=2",
    "orbit d simple=sd mult=1 type=pos_hyp action=1 cz=0 side=minus stage=2",
)
VALID_CURVES = (
    "curve level=symp ind=1 from=a to=b count=1",
    "curve level=cob ind=0 from=a to=c count=1",
)


@pytest.mark.parametrize(
    "file, lineno, edit, diagnostic",
    [
        ("orbits.txt", 4, "orbit d simple=sa mult=3 type=pos_hyp action=12 cz=2 side=minus stage=2",
         "orbits.txt:4: orbit d: simple orbit sa type disagrees with a"),
        ("orbits.txt", 4, "orbit d simple=sa mult=3 type=neg_hyp action=12 cz=3 side=minus stage=2",
         "orbits.txt:4: orbit d: cz of simple orbit sa disagrees with a"),
        # The file grammar cannot spell an unknown level, so the parsed record is edited.
        ("curves.txt", 1, None, "curves.txt:1: unknown curve level 'bogus'"),
        ("orbits.txt", 2, "orbit b simple=sb mult=2 type=neg_hyp action=2 cz=1 side=plus stage=1",
         "curves.txt:1: orbit b is bad (even cover of a negative hyperbolic orbit) "
         "and cannot be a generator"),
        ("orbits.txt", 2, "orbit b simple=sb mult=1 type=pos_hyp action=2 cz=2 side=plus stage=1",
         "curves.txt:1: symplectization curve must drop the grading by 1; cz(a)=1, cz(b)=2"),
        ("orbits.txt", 2, "orbit b simple=sb mult=1 type=pos_hyp action=2 cz=0 side=minus stage=1",
         "curves.txt:1: symplectization curve endpoints lie on different sides"),
        ("orbits.txt", 2, "orbit b simple=sb mult=1 type=pos_hyp action=2 cz=0 side=plus stage=2",
         "curves.txt:1: symplectization curve endpoints lie in different stages"),
        ("orbits.txt", 3, "orbit c simple=sc mult=1 type=neg_hyp action=5 cz=1 side=minus stage=2",
         "curves.txt:2: action must weakly decrease along cobordism curves: 4 -> 5"),
        ("orbits.txt", 3, "orbit c simple=sc mult=1 type=neg_hyp action=3 cz=1 side=plus stage=2",
         "curves.txt:2: cobordism curve must run from side plus to side minus"),
        ("orbits.txt", 3, "orbit c simple=sc mult=1 type=neg_hyp action=3 cz=1 side=minus stage=3",
         "curves.txt:2: cobordism curve must connect consecutive stages, got 1 -> 3"),
    ],
)
def test_load_dataset_diagnostic_located(file, lineno, edit, diagnostic):
    def records(orbit_lines, curve_lines):
        orbits, _, problems = parse_records("\n".join(orbit_lines), "orbits.txt")
        _, curves, more = parse_records("\n".join(curve_lines), "curves.txt")
        assert not problems + more
        return orbits, curves

    assert len(load_dataset(*records(VALID_ORBITS, VALID_CURVES)).orbits) == 4
    lines = {"orbits.txt": list(VALID_ORBITS), "curves.txt": list(VALID_CURVES)}
    if edit is not None:
        lines[file][lineno - 1] = edit
    orbits, curves = records(lines["orbits.txt"], lines["curves.txt"])
    if edit is None:
        curves[lineno - 1] = dataclasses.replace(curves[lineno - 1], level="bogus")
    with pytest.raises(DatasetError) as err:
        load_dataset(orbits, curves)
    assert diagnostic in [str(d) for d in err.value.diagnostics]


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


@pytest.mark.parametrize("text,value", [("3", 3), ("-3", -3), ("+4", 4), ("007", 7)])
def test_integer_grammar_accepts(text, value):
    _, curves, diags = parse_records(
        f"curve level=cob ind={text} from=a to=b count=1\n", "mem"
    )
    assert not diags
    assert curves[0].ind == value


@pytest.mark.parametrize("text", ["1_0", "٣", "3.0", "1e3", "+", "--1", "0x1"])
def test_integer_grammar_rejects(text):
    # An optional sign and ASCII digits: int() alone would read "1_0" as 10
    # and the Arabic-Indic digit "٣" as 3.
    _, curves, diags = parse_records(
        f"curve level=cob ind={text} from=a to=b count=1\n", "mem"
    )
    assert not curves
    assert [str(d) for d in diags] == [f"mem:1: malformed integer ind={text!r}"]


EVMAP_TERMS = "term comp=0 kind=cos order=1 value={}\nterm comp=1 kind=sin order=1 value=1\n"
ORBIT = "orbit a simple=s mult=1 type=neg_hyp action=2 cz=1"


@pytest.mark.parametrize("text,value", [("0.5", 0.5), ("-2", -2.0), ("1e-3", 1e-3), ("+.25", 0.25)])
def test_float_grammar_accepts(text, value):
    spec = parse_evmap("evmap k=2 lambdas=1,2\n" + EVMAP_TERMS.format(text))
    assert spec.components[0].terms[0][2] == value


@pytest.mark.parametrize(
    "text,message",
    [
        ("1_5", "m.txt:2: malformed float value='1_5'"),
        ("٣", "m.txt:2: malformed float value='٣'"),
        ("x", "m.txt:2: malformed float value='x'"),
        ("1e999", "m.txt:2: value='1e999' is not finite"),
        ("nan", "m.txt:2: value='nan' is not finite"),
        ("-inf", "m.txt:2: value='-inf' is not finite"),
    ],
)
def test_float_grammar_rejects(text, message):
    with pytest.raises(ValidationError) as err:
        parse_evmap("evmap k=2 lambdas=1,2\n" + EVMAP_TERMS.format(text), "m.txt")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "suffix,message",
    [
        (" zork", "expected key=value, got 'zork'"),
        (" zork=5", "unknown field 'zork'"),
        (" {key}=1 {key}=1", "duplicate field '{key}'"),
        (" {key}=1_0", "malformed integer {key}='1_0'"),
        ("\nsquiggle x=1", "unknown record kind 'squiggle'"),
    ],
    ids=["no_equals", "unknown_key", "repeated_key", "malformed_integer", "unknown_kind"],
)
def test_both_formats_report_the_same_problem_alike(suffix, message):
    # The same malformed tokens after a clean record of each format; the
    # repeated and malformed keys are each format's optional integer key.
    line = 2 if suffix.startswith("\n") else 1
    _, _, diags = parse_records(ORBIT + suffix.format(key="stage") + "\n", "m.txt")
    assert [str(d) for d in diags] == [f"m.txt:{line}: " + message.format(key="stage")]
    with pytest.raises(ValidationError) as err:
        parse_evmap("evmap k=2 lambdas=1,2" + suffix.format(key="orientation") + "\n", "m.txt")
    assert str(err.value) == f"m.txt:{line}: " + message.format(key="orientation")


def _grammar_line(doc, kind):
    (line,) = [ln.split() for ln in doc.splitlines() if ln.split()[:1] == [kind] and "=" in ln]
    return line[1:]


@pytest.mark.parametrize(
    "doc,kinds",
    [(dataio.__doc__, dataio.DATASET_KINDS), (parse_evmap.__doc__, EVMAP_KINDS)],
    ids=["dataset", "evmap"],
)
def test_docstring_grammar_matches_record_tables(doc, kinds):
    # Required keys appear bare, optional keys in [...], ids as <id>.
    for kind, table in kinds.items():
        tokens = _grammar_line(doc, kind)
        ids = [t for t in tokens if "=" not in t]
        required = [t.split("=")[0] for t in tokens if "=" in t and not t.startswith("[")]
        optional = [t[1:].split("=")[0] for t in tokens if t.startswith("[")]
        assert len(ids) == table.ids
        assert required == list(table.required)
        assert sorted(required + optional) == sorted(table.readers)
