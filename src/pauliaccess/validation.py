"""Checks on values read from JSON input files: specs, sets and models.

Each check raises ValueError naming the field, which the CLI reports with
exit code 2 instead of a traceback.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .pauli import PauliString

_ITEM_NAMES = {str: "operator texts", dict: "objects", list: "lists"}


def json_schema(data, schema_id: str, kind: str) -> None:
    """Check that a file's top-level value is an object carrying schema_id."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != schema_id:
        raise ValueError(f"unsupported {kind} schema {schema!r}, expected {schema_id!r}")


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
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ValueError(f"{what} must be a list of {_ITEM_NAMES[item]}")
    return value


def unique_index(strings: Sequence[PauliString], what: str) -> dict[tuple[int, int], int]:
    """Mask-keyed index of distinct strings; a repeated string is an input error."""
    index: dict[tuple[int, int], int] = {}
    for i, s in enumerate(strings):
        first = index.setdefault((s.x_mask, s.z_mask), i)
        if first != i:
            raise ValueError(f"{what} {s} is listed twice (entries {first} and {i})")
    return index
