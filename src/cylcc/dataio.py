"""Line-delimited dataset files for orbits and curve counts.

Grammar (one record per line, ``#`` starts a comment):

    orbit <id> simple=<id> mult=<int> type=<pos_hyp|neg_hyp> action=<rational> cz=<int> [side=<plus|minus>] [stage=<int>]
    curve level=<symp|cob|k_plus|k_minus> ind=<int> from=<id> to=<id> count=<rational> [tag=<token>]

``cz`` is the Conley-Zehnder index of the *simple* orbit; rationals are
``p`` or ``p/q``.  ``side`` is required by the chain-map/homotopy checks,
``stage`` by direct limits, ``tag`` distinguishes the two chain maps of a
homotopy dataset.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .complexes import CurveRecord, Diagnostic, ModuliDataset, OrbitRecord, load_dataset
from .errors import DatasetError
from .indices import ReebOrbit

TYPE_ALIASES = {"pos_hyp": "pos_hyperbolic", "neg_hyp": "neg_hyperbolic"}
LEVEL_ALIASES = {
    "symp": "symplectization",
    "cob": "cobordism",
    "k_plus": "k_plus",
    "k_minus": "k_minus",
}

ORBIT_KEYS = ("simple", "mult", "type", "action", "cz")
ORBIT_OPTIONAL = ("side", "stage")
CURVE_KEYS = ("level", "ind", "from", "to", "count")
CURVE_OPTIONAL = ("tag",)


def _parse_fields(tokens, loc, diagnostics):
    fields = {}
    ok = True
    for tok in tokens:
        if "=" not in tok:
            diagnostics.append(Diagnostic(loc, f"expected key=value, got {tok!r}"))
            ok = False
            continue
        key, value = tok.split("=", 1)
        if key in fields:
            diagnostics.append(Diagnostic(loc, f"duplicate field {key!r}"))
            ok = False
        fields[key] = value
    return fields if ok else None


def _parse_rational(text, loc, what, diagnostics) -> Optional[Fraction]:
    """``p`` or ``p/q``: ASCII digits, an optional sign on p, and q != 0."""
    num, slash, den = text.partition("/")
    unsigned = num[1:] if num[:1] in ("+", "-") else num
    den = den if slash else "1"
    if all(s.isascii() and s.isdigit() for s in (unsigned, den)) and int(den):
        return Fraction(int(num), int(den))
    diagnostics.append(Diagnostic(loc, f"malformed rational {what}={text!r}"))
    return None


def _parse_int(text, loc, what, diagnostics) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        diagnostics.append(Diagnostic(loc, f"malformed integer {what}={text!r}"))
        return None


def parse_orbit_line(line: str, loc: str, diagnostics) -> Optional[OrbitRecord]:
    tokens = line.split()
    if len(tokens) < 2:
        diagnostics.append(Diagnostic(loc, "orbit record needs an id"))
        return None
    oid = tokens[1]
    fields = _parse_fields(tokens[2:], loc, diagnostics)
    if fields is None:
        return None
    missing = [k for k in ORBIT_KEYS if k not in fields]
    unknown = [k for k in fields if k not in ORBIT_KEYS + ORBIT_OPTIONAL]
    if missing or unknown:
        if missing:
            diagnostics.append(Diagnostic(loc, f"missing orbit fields {missing}"))
        if unknown:
            diagnostics.append(Diagnostic(loc, f"unknown orbit fields {unknown}"))
        return None
    stype = TYPE_ALIASES.get(fields["type"])
    if stype is None:
        diagnostics.append(
            Diagnostic(loc, f"orbit type must be pos_hyp or neg_hyp, got {fields['type']!r}")
        )
        return None
    mult = _parse_int(fields["mult"], loc, "mult", diagnostics)
    action = _parse_rational(fields["action"], loc, "action", diagnostics)
    cz = _parse_int(fields["cz"], loc, "cz", diagnostics)
    side = fields.get("side")
    if side is not None and side not in ("plus", "minus"):
        diagnostics.append(Diagnostic(loc, f"side must be plus or minus, got {side!r}"))
        return None
    stage = None
    if "stage" in fields:
        stage = _parse_int(fields["stage"], loc, "stage", diagnostics)
        if stage is None:
            return None
    if mult is None or action is None or cz is None:
        return None
    try:
        orbit = ReebOrbit(
            id=oid,
            simple_id=fields["simple"],
            multiplicity=mult,
            simple_type=stype,
            action=action,
            cz_simple=cz,
        )
    except Exception as exc:
        diagnostics.append(Diagnostic(loc, str(exc)))
        return None
    return OrbitRecord(orbit=orbit, side=side, stage=stage, location=loc)


def parse_curve_line(line: str, loc: str, diagnostics) -> Optional[CurveRecord]:
    tokens = line.split()
    fields = _parse_fields(tokens[1:], loc, diagnostics)
    if fields is None:
        return None
    missing = [k for k in CURVE_KEYS if k not in fields]
    unknown = [k for k in fields if k not in CURVE_KEYS + CURVE_OPTIONAL]
    if missing or unknown:
        if missing:
            diagnostics.append(Diagnostic(loc, f"missing curve fields {missing}"))
        if unknown:
            diagnostics.append(Diagnostic(loc, f"unknown curve fields {unknown}"))
        return None
    level = LEVEL_ALIASES.get(fields["level"])
    if level is None:
        diagnostics.append(
            Diagnostic(loc, f"level must be one of {sorted(LEVEL_ALIASES)}, got "
                       f"{fields['level']!r}")
        )
        return None
    ind = _parse_int(fields["ind"], loc, "ind", diagnostics)
    count = _parse_rational(fields["count"], loc, "count", diagnostics)
    if ind is None or count is None:
        return None
    return CurveRecord(
        level=level,
        ind=ind,
        from_id=fields["from"],
        to_id=fields["to"],
        count=count,
        tag=fields.get("tag"),
        location=loc,
    )


def parse_records(
    text: str, source_name: str
) -> Tuple[List[OrbitRecord], List[CurveRecord], List[Diagnostic]]:
    """Parse a dataset file's text; diagnostics carry line numbers."""
    orbit_records: List[OrbitRecord] = []
    curve_records: List[CurveRecord] = []
    diagnostics: List[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loc = f"{source_name}:{lineno}"
        kind = line.split(None, 1)[0]
        if kind == "orbit":
            rec = parse_orbit_line(line, loc, diagnostics)
            if rec is not None:
                orbit_records.append(rec)
        elif kind == "curve":
            rec = parse_curve_line(line, loc, diagnostics)
            if rec is not None:
                curve_records.append(rec)
        else:
            diagnostics.append(
                Diagnostic(loc, f"unknown record kind {kind!r} (orbit|curve)")
            )
    return orbit_records, curve_records, diagnostics


def bundled_path(name: str) -> Path:
    """Path of a dataset shipped with the package."""
    from importlib import resources

    path = Path(str(resources.files("cylcc"))) / "data" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def read_dataset(orbit_path, curve_path) -> ModuliDataset:
    """Read, parse, and semantically validate a two-file dataset.

    Raises :class:`DatasetError` carrying every located diagnostic.
    """
    orbit_path, curve_path = Path(orbit_path), Path(curve_path)
    orecs, extra_curves, diag1 = parse_records(
        orbit_path.read_text(), orbit_path.name
    )
    crecs, crecs2, diag2 = parse_records(curve_path.read_text(), curve_path.name)
    # Either file may technically carry either record kind; merge.
    orecs += crecs
    curve_records = extra_curves + crecs2
    diagnostics = diag1 + diag2
    if diagnostics:
        raise DatasetError(diagnostics)
    return load_dataset(orecs, curve_records)
