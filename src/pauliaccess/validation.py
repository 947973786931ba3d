"""Checks on the values read from spec, set and model files.

Each check raises ValueError naming the field, which the CLI reports with
exit code 2 instead of a traceback.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional, Sequence

from .pauli import PauliTable

_ITEM_NAMES = {str: "operator texts", dict: "objects", list: "lists"}

#: widest register a spec, set or model file may declare.  A packed row
#: takes 2 * ceil(n / 64) words whatever its text, so without a bound a file
#: of a few bytes could ask for exabytes.
MAX_QUBITS = 4096

#: most outputs (measurement operators) a model may have.  ``simulate``
#: reads only C's nonzeros but allocates a times x n_outputs output array,
#: and a zero measurement is an output row with no C entries, so a model
#: file's size does not bound the count.
MAX_OUTPUTS = 4096


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
    # bool is an int subclass, so the types are matched exactly
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


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
        return list(map(itemgetter(key), objects))
    except KeyError:
        raise ValueError(f"{what} has no {key!r} field") from None


def unique_rows(table: PauliTable, what: str) -> None:
    """Reject a table with a repeated string, naming its first repeat."""
    pair = table.repeat()
    if pair is not None:
        first, i = pair
        text = table.take([i]).texts()[0]
        raise ValueError(f"{what} {text} is listed twice (entries {first} and {i})")
