"""Line-delimited data files: one record grammar, and the dataset files.

One record per line: ``#`` starts a comment, then the record kind, its bare
ids and ``key=value`` fields.  Integers are an optional sign and ASCII
digits, rationals ``p`` or ``p/q`` with q nonzero ASCII digits, floats
finite and without underscores.  Evaluation maps (``parse_evmap``) use
the same grammar; dataset files hold

    orbit <id> simple=<id> mult=<int> type=<pos_hyp|neg_hyp> action=<rational> cz=<int> [side=<plus|minus>] [stage=<int>]
    curve level=<symp|cob|k_plus|k_minus> ind=<int> from=<id> to=<id> count=<rational> [tag=<token>]

``cz`` is the Conley-Zehnder index of the *simple* orbit.  ``side`` is
required by the chain-map/homotopy checks, ``stage`` by direct limits,
``tag`` distinguishes the two chain maps of a homotopy dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from .complexes import CurveRecord, Diagnostic, ModuliDataset, OrbitRecord, load_dataset
from .errors import DatasetError, ValidationError
from .indices import NEG_HYP, POS_HYP, ReebOrbit

Reader = Callable[[str], object]


def _digits(text: str, signed: bool = True) -> bool:
    if signed and text[:1] in ("+", "-"):
        text = text[1:]
    return text.isascii() and text.isdigit()


def integer(text: str) -> int:
    if _digits(text):
        return int(text)
    raise ValueError("malformed integer {key}={text!r}")


def rational(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    den = den if slash else "1"
    if _digits(num) and _digits(den, signed=False) and int(den):
        return Fraction(int(num), int(den))
    raise ValueError("malformed rational {key}={text!r}")


def real(text: str) -> float:
    if text.isascii() and "_" not in text:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
            raise ValueError("{key}={text!r} is not finite")
    raise ValueError("malformed float {key}={text!r}")


def choice(mapping: Mapping[str, object]) -> Reader:
    """A reader of one of ``mapping``'s keys, giving its value."""
    def read(text: str) -> object:
        if text in mapping:
            return mapping[text]
        raise ValueError(f"unknown {{kind}} {{key}} {{text!r}} ({'|'.join(mapping)})")
    return read


def comma_list(read: Reader) -> Reader:
    """A reader of comma-separated values, giving a tuple."""
    return lambda text: tuple(read(item) for item in text.split(","))


@dataclass(frozen=True)
class RecordKind:
    """A reader per allowed key, the keys a record must have, and the
    number of bare ids between the kind and the fields.

    A reader maps a value's text to its value, or raises ValueError whose
    message is a ``str.format`` template over ``kind``, ``key`` and
    ``text``.
    """

    readers: Dict[str, Reader]
    required: Tuple[str, ...]
    ids: int = 0


def read_records(
    text: str, source_name: str, kinds: Mapping[str, RecordKind], diagnostics: List[Diagnostic]
) -> Iterator[Tuple[str, str, List[str], Dict[str, object]]]:
    """Yield ``(kind, loc, ids, values)`` for each clean record of ``text``
    in line order; every problem of a line becomes a located ``Diagnostic``
    in ``diagnostics`` instead, before any later line is read.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        loc = f"{source_name}:{lineno}"
        name, kind = tokens[0], kinds.get(tokens[0])
        if kind is None:
            diagnostics.append(Diagnostic(loc, f"unknown record kind {name!r}"))
            continue
        ids = tokens[1 : 1 + kind.ids]
        problems = [] if len(ids) == kind.ids else [f"{name} record needs an id"]
        fields: Dict[str, str] = {}
        for tok in tokens[1 + kind.ids :]:
            key, eq, value = tok.partition("=")
            if not eq:
                problems.append(f"expected key=value, got {tok!r}")
            elif key not in kind.readers:
                problems.append(f"unknown field {key!r}")
            elif key in fields:
                problems.append(f"duplicate field {key!r}")
            else:
                fields[key] = value
        problems += [f"missing field {key!r}" for key in kind.required if key not in fields]
        values = {}
        if not problems:
            for key, value in fields.items():
                try:
                    values[key] = kind.readers[key](value)
                except ValueError as exc:
                    problems.append(str(exc).format(kind=name, key=key, text=value))
        if problems:
            diagnostics.extend(Diagnostic(loc, problem) for problem in problems)
        else:
            yield name, loc, ids, values


DATASET_KINDS = {
    "orbit": RecordKind(
        {
            "simple": str, "mult": integer, "type": choice({"pos_hyp": POS_HYP, "neg_hyp": NEG_HYP}),
            "action": rational, "cz": integer, "side": choice({"plus": "plus", "minus": "minus"}),
            "stage": integer,
        },
        ("simple", "mult", "type", "action", "cz"),
        ids=1,
    ),
    "curve": RecordKind(
        {
            "level": choice({"symp": "symplectization", "cob": "cobordism", "k_plus": "k_plus",
                             "k_minus": "k_minus"}),
            "ind": integer, "from": str, "to": str, "count": rational, "tag": str,
        },
        ("level", "ind", "from", "to", "count"),
    ),
}


def parse_records(
    text: str, source_name: str
) -> Tuple[List[OrbitRecord], List[CurveRecord], List[Diagnostic]]:
    """Parse a dataset file's text; diagnostics carry line numbers."""
    orbit_records: List[OrbitRecord] = []
    curve_records: List[CurveRecord] = []
    diagnostics: List[Diagnostic] = []
    for kind, loc, ids, v in read_records(text, source_name, DATASET_KINDS, diagnostics):
        if kind == "curve":
            fields = (v["level"], v["ind"], v["from"], v["to"], v["count"], v.get("tag"))
            curve_records.append(CurveRecord(*fields, location=loc))
            continue
        try:
            orbit = ReebOrbit(ids[0], v["simple"], v["mult"], v["type"], v["action"], v["cz"])
        except ValidationError as exc:
            diagnostics.append(Diagnostic(loc, str(exc)))
            continue
        orbit_records.append(OrbitRecord(orbit, v.get("side"), v.get("stage"), location=loc))
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
