"""Report envelopes and JSON/CSV serialization.

Integers that can exceed 2^53 are emitted as decimal strings so payloads
survive JSON readers that parse numbers as doubles.  High-precision reals
are emitted as 30-significant-digit strings.  Key order and line endings
are fixed, so two runs with the same inputs produce byte-identical output
except for the generated_utc stamp.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Any

import mpmath

from . import __version__
from .bounds import BoundReport
from .cache import table_for
from .congruence import Class23
from .hecke import DEFAULT_MAX_K
from .primality import is_probable_prime
from .search import CensusReport, SearchHit, Verdict, rebuild_hits
from .series import DEFAULT_LIMIT_CEILING

REAL_DIGITS = 30

CSV_COLUMNS = ("p", "k", "exponent", "value", "residue23", "class23", "witness_a", "witness_b", "verdict")


def _real(v) -> str:
    return mpmath.nstr(v, REAL_DIGITS)


def envelope(command: str, params: dict[str, Any], payload: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "params": params,
        "tool_version": __version__,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }


def to_json(doc: dict[str, Any]) -> str:
    """json.dumps(doc, indent=2) + "\\n", byte for byte, without json's
    pure-Python encoder, which any indent selects before Python 3.13.

    Takes str-keyed dicts, lists, tuples, str, int, bool and None; anything
    else, floats included, raises TypeError.
    """
    parts: list[str] = []
    _put_json(doc, "\n", parts.append, {})
    parts.append("\n")
    return "".join(parts)


def _put_json(value: Any, newline: str, put, shapes: dict) -> None:
    """Put value's JSON text, piece by piece; newline is "\\n" plus the indent
    of value's own line.  shapes maps a dict's (keys, newline), and a list's
    newline, to the text around its items; it lives for one to_json call.

    A container's loop writes its exact str and int items itself; every
    other item comes back here, where bool, None and subclasses (an IntEnum,
    a str Enum) are told apart by isinstance, as json does.
    """
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        keys, values = (tuple(value), value.values()) if type(value) is dict else zip(*value.items())
        shape = shapes.get((keys, newline))
        if shape is None:
            shape = shapes[keys, newline] = _dict_shape(keys, newline)
        heads, inner, close = shape
        for head, item in zip(heads, values):
            put(head)
            kind = type(item)
            if kind is str:
                put(encode_basestring_ascii(item))
            elif kind is int:
                put(int.__repr__(item))
            else:
                _put_json(item, inner, put, shapes)
        put(close)
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        shape = shapes.get(newline)
        if shape is None:
            inner = newline + "  "
            shape = shapes[newline] = ("[" + inner, "," + inner, inner, newline + "]")
        head, sep, inner, close = shape
        for item in value:
            put(head)
            head = sep
            kind = type(item)
            if kind is str:
                put(encode_basestring_ascii(item))
            elif kind is int:
                put(int.__repr__(item))
            else:
                _put_json(item, inner, put, shapes)
        put(close)
    elif isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dict_shape(keys: tuple, newline: str) -> tuple[list[str], str, str]:
    """(the text before each value, the values' newline, the closing text)
    of a dict with these keys on a line that starts with newline."""
    inner = newline + "  "
    heads = ["," + inner + encode_basestring_ascii(k) + ": " for k in keys]
    heads[0] = "{" + heads[0][1:]
    return heads, inner, newline + "}"


def class23_to_dict(cls: Class23) -> dict[str, Any]:
    return {
        "tag": cls.tag._value_,
        "witness": list(cls.witness) if cls.witness is not None else None,
    }


def hit_to_dict(hit: SearchHit) -> dict[str, Any]:
    return {
        "p": hit.p,
        "k": hit.k,
        "exponent": 2 * hit.k,
        "value": str(hit.value),
        "residue23": hit.residue23,
        "class23": class23_to_dict(hit.class23),
        "verdict": hit.verdict._value_,
    }


def hits_from_dicts(ds: list) -> list[SearchHit]:
    """The hits that hit_to_dict wrote as ds, rebuilt by the search (rebuild_hits).
    A field that is missing, not of the JSON type hit_to_dict writes or unlike
    hit_to_dict of the rebuilt hit, a k outside 1..DEFAULT_MAX_K, a p not a prime
    <= DEFAULT_LIMIT_CEILING or a repeated (p, k) raises ValueError naming it."""
    claims: dict[tuple[int, int], Verdict] = {}
    for d in ds:
        _require_fields(d, "hit", p=int, k=int, exponent=int, value=str, residue23=int, class23=dict, verdict=str)
        p, k, claim = d["p"], d["k"], d["verdict"]
        if not 1 <= k <= DEFAULT_MAX_K:
            raise ValueError(f"hit field 'k' is {k}, not in 1..{DEFAULT_MAX_K}")
        if not (2 <= p <= DEFAULT_LIMIT_CEILING and is_probable_prime(p)):
            raise ValueError(f"hit field 'p' is {p}, not a prime <= {DEFAULT_LIMIT_CEILING}")
        try:
            verdict = Verdict(claim)
        except ValueError:
            raise ValueError(f"hit field 'verdict' is {claim!r}, not one of {[v.value for v in Verdict]}") from None
        if (p, k) in claims:
            raise ValueError(f"hit p={p}, k={k} is repeated")
        claims[p, k] = verdict
    hits = rebuild_hits(claims, table=table_for(max((p for p, _ in claims), default=1)))
    for d, hit in zip(ds, hits):
        try:
            written = hit_to_dict(hit)
        except ValueError:  # str(hit.value) is past Python's int->str digit limit
            too_long = f"p={hit.p}, k={hit.k} gives a value of {hit.value.bit_length()} bits, past the int->str limit"
            raise ValueError(f"hit field 'value' is {d['value']!r}, but {too_long}") from None
        for name, want in written.items():
            if d[name] != want:
                raise ValueError(f"hit field {name!r} is {d[name]!r}, but p={hit.p}, k={hit.k} gives {want!r}")
    return hits


def _require_fields(d: Any, what: str, **kinds: type) -> None:
    """ValueError unless d is a dict holding each named field with exactly its kind (so no bool for int)."""
    if type(d) is not dict:
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    for name, kind in kinds.items():
        if name not in d:
            raise ValueError(f"{what} has no field {name!r}")
        if type(d[name]) is not kind:
            raise ValueError(f"{what} field {name!r} must be {kind.__name__}, not {type(d[name]).__name__}")


def hits_to_csv(hits: list[SearchHit]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for hit in hits:
        a, b = hit.class23.witness if hit.class23.witness is not None else ("", "")
        writer.writerow(
            (hit.p, hit.k, 2 * hit.k, hit.value, hit.residue23, hit.class23.tag.value, a, b, hit.verdict.value)
        )
    return buf.getvalue()


def census_to_dict(report: CensusReport) -> dict[str, Any]:
    return {
        "n_cap": str(report.n_cap),
        "total": report.total,
        "counts": {str(r): report.counts[r] for r in sorted(report.counts)},
        "excluded_class_hits": [hit_to_dict(h) for h in report.excluded_class_hits],
        "footnote_anomalies": [hit_to_dict(h) for h in report.footnote_anomalies],
        "note": report.note,
    }


def bound_report_to_dict(report: BoundReport) -> dict[str, Any]:
    return {
        "N": str(report.n),
        "k_lo": report.k_lo,
        "k_hi": _real(report.k_hi),
        "per_k_bound": {str(k): _real(v) for k, v in report.per_k_bound.items()},
        "attainable_ceiling": _real(report.attainable_ceiling),
        "progression_floor": _real(report.progression_floor),
        "bracket": [_real(report.bracket[0]), _real(report.bracket[1])],
        "density": str(report.density),
        "sqrt_sample_ceiling": _real(report.sqrt_sample_ceiling),
        "census_sample_ceiling": _real(report.census_sample_ceiling),
        "caveats": list(report.caveats),
    }
