"""JSON in and out: checks on values read from spec, set and model files,
and the indented writer every JSON payload goes through.

Each check raises ValueError naming the field, which the CLI reports with
exit code 2 instead of a traceback.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .pauli import PauliTable

_ITEM_NAMES = {str: "operator texts", dict: "objects", list: "lists"}

#: widest register a spec, set or model file may declare.  A packed row
#: takes 2 * ceil(n / 64) words whatever its text, so without a bound a file
#: of a few bytes could ask for exabytes.
MAX_QUBITS = 4096


def json_schema(data, schema_id: str, kind: str) -> None:
    """Check that a file's top-level value is an object carrying schema_id."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != schema_id:
        raise ValueError(f"unsupported {kind} schema {schema!r}, expected {schema_id!r}")


def json_width(value) -> int:
    """The ``n_qubits`` of a file: an integer in 1..MAX_QUBITS."""
    return json_int(value, "n_qubits", lo=1, hi=MAX_QUBITS)


def json_int(value, what: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """An integer read from JSON, checked to lie in lo..hi (inclusive)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        span = f"{lo}..{'' if hi is None else hi}"
        raise ValueError(f"{what} must be an integer in {span}, got {value!r}")
    return value


def json_float(value, what: str) -> float:
    """A finite real number read from JSON."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_list(value, what: str, item: type = str) -> list:
    """A JSON list whose entries are all strings, objects or lists."""
    if not isinstance(value, list) or not set(map(type, value)) <= {item}:
        raise ValueError(f"{what} must be a list of {_ITEM_NAMES[item]}")
    return value


def json_fields(data: dict, keys: Sequence[str], what: str) -> list:
    """The values of ``keys`` in a JSON object; a missing key is named."""
    try:
        return [data[k] for k in keys]
    except KeyError as exc:
        raise ValueError(f"{what} has no {exc.args[0]!r} field") from None


def json_column(objects: list[dict], key: str, what: str) -> list:
    """One field of every JSON object in a list; a missing field is named."""
    try:
        return [o[key] for o in objects]
    except KeyError:
        raise ValueError(f"{what} has no {key!r} field") from None


def unique_rows(table: PauliTable, what: str) -> None:
    """Reject a table with a repeated string, naming its first repeat."""
    pair = table.repeat()
    if pair is not None:
        first, i = pair
        text = table.take([i]).texts()[0]
        raise ValueError(f"{what} {text} is listed twice (entries {first} and {i})")


def dump_json(data) -> str:
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, mostly through the C encoder.

    With ``indent`` the standard library encodes in pure Python, one chunk
    string per bracket, separator and scalar.  Without it, the C encoder
    takes any item separator, so a container of scalars (the member texts,
    one provenance entry) is one C call whose separator carries the newline
    and indent.  A list of such rows (the model's [row, col, value]
    triplets, all provenance entries) is one C call too, with the
    separator used inside a row; a closing bracket followed by that
    separator then marks a row boundary, which one ``str.replace``
    re-indents.  Other containers recurse.
    """
    return _indented(data, "\n") + "\n"


_CONTAINERS = (list, tuple, dict)


def _scalars(items) -> bool:
    """Whether no item is a container; one type per item, checked in C."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, items)))


def _indented(value, newline: str) -> str:
    """``value`` indented by 2, where ``newline`` is "\\n" plus its line's indent."""
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    start, end = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return start + end
    inner = newline + "  "
    # no JSON text holds a raw newline, so a separator with one in it
    # appears in the C encoder's output only between items
    if _scalars(value.values() if start == "{" else value):
        text = json.dumps(value, separators=("," + inner, ": "))
        return start + inner + text[1:-1] + newline + end
    if start == "[":
        kind = dict if isinstance(value[0], dict) else (list, tuple)
        if all(isinstance(v, kind) and v for v in value) and _scalars(
            chain.from_iterable(map(dict.values, value) if kind is dict else value)
        ):
            # no scalar's text ends in a bracket, so "],<row>[" or
            # "},<row>{" is a row boundary
            row = inner + "  "
            a, b = "{}" if kind is dict else "[]"
            text = json.dumps(value, separators=("," + row, ": "))[2:-2]
            text = text.replace(f"{b},{row}{a}", f"{inner}{b},{inner}{a}{row}")
            return f"[{inner}{a}{row}{text}{inner}{b}{newline}]"
        items = (_indented(v, inner) for v in value)
    elif all(isinstance(k, str) for k in value):
        items = (
            f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()
        )
    else:
        # the standard encoder converts or rejects other keys
        return json.dumps(value, indent=2).replace("\n", newline)
    return start + inner + ("," + inner).join(items) + newline + end
