"""The bulk rows of the payloads, assembled from fixed-width byte fields.

Most of a payload's bytes are rows that repeat a few literals around a few
values: the model's ``[row, col, value]`` triplets, the set's provenance
entries, the graph's edges, the DOT's node and edge lines.  Each value's
text is looked up in a table built once per payload, which holds each
distinct text once (an index, one of a few coupling values, one of a few
edge labels), so :func:`join_rows` lays each row out at one fixed width:
literals, then NUL-padded table entries, in row order.  One
``bytes.translate`` drops the padding, as
:func:`~pauliaccess._reprtext.rows_text` does for the trajectory.
A field may also take several table entries per row, as a row of indices
(the cells of a Pauli string).  No Python object is made per row, and
rows are rendered about :data:`STEP_BYTES` at a time, so the temporaries
stay at a few MB however many rows there are.

The tables hold the ``str`` of each index (:func:`index_table`), the JSON
text of each distinct float (:func:`float_column`) or any ASCII texts
(:func:`text_table`, :func:`string_table` for JSON strings).

Every JSON file is an object written by :func:`dump_json`, as
``json.dumps(indent=2)`` writes it.  A bulk list arrives there as a
:class:`JSONText` (:func:`json_rows`, :func:`json_texts`), laid out for a
top-level field; every other field goes through the standard encoder.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "STEP_BYTES", "JSONText", "dump_json", "index_table", "text_table", "string_table",
    "float_column", "join_rows", "json_rows", "json_texts",
]

#: bytes of fixed-width rows rendered per step, at least one row; a step's
#: temporaries take a few times this
STEP_BYTES = 1 << 20

#: a field of a row: literal bytes, or (table, index), row ``index[r]`` of
#: the table for row r; a 2-D index gives the entries ``index[r, :]`` in turn
Field = Union[bytes, tuple[np.ndarray, np.ndarray]]


class JSONText(str):
    """The value of a top-level field already rendered as JSON text, which
    :func:`dump_json` copies as is; its inner lines carry that indent."""


def dump_json(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\\n"`` for a nonempty object with
    string keys, each :class:`JSONText` value copied as is."""
    # one join, so that each value is copied once
    parts = ["{"]
    for key, value in data.items():
        if not isinstance(value, JSONText):
            # the encoder writes a raw newline only to start a line
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts += ["\n  ", encode_basestring_ascii(key), ": ", value, ","]
    parts[-1] = "\n}\n"
    return "".join(parts)


def index_table(n: int) -> np.ndarray:
    """``str(i)`` for i in 0..n-1, as NUL-padded bytes (a numpy ``S`` array)."""
    width = len(str(max(n - 1, 0)))
    i = np.arange(n, dtype=np.int64)
    out = np.zeros((n, width), dtype=np.uint8)
    power = 1
    for col in range(width - 1, -1, -1):
        # row i is the number i, so the rows from `power` on have this digit
        start = 0 if col == width - 1 else power
        out[start:, col] = (i[start:] // power % 10).astype(np.uint8) + ord("0")
        power *= 10
    return out.view(f"S{width}").ravel()


def text_table(texts: Iterable[str]) -> np.ndarray:
    """The ASCII ``texts`` as NUL-padded bytes (a numpy ``S`` array)."""
    return np.array(list(texts), dtype=bytes)


def string_table(texts: Iterable[Optional[str]]) -> np.ndarray:
    """The JSON text of each string, ``null`` for None."""
    return text_table("null" if t is None else encode_basestring_ascii(t) for t in texts)


def float_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, index) for a column of floats: the JSON text of each distinct
    value, which is ``float.__repr__`` for a finite one, and each value's row.

    Values are told apart by their bits, so 0.0 and -0.0 keep their texts.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    return text_table(map(json.dumps, distinct.view(np.float64).tolist())), index


def join_rows(fields: Sequence[Field], count: int) -> bytearray:
    """``count`` rows, each the concatenation of ``fields`` with the
    padding of table fields dropped; no field may hold a NUL byte."""
    # one void field per part, so a row is one record with no gaps; a part
    # of no bytes has none
    widths = [
        len(f) if isinstance(f, bytes) else f[0].itemsize * math.prod(f[1].shape[1:])
        for f in fields
    ]
    fields = [f for f, width in zip(fields, widths) if width]
    kinds = [f"V{width}" for width in widths if width]
    record = np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])
    # the literals are written once, and each step overwrites the tables' fields
    step = max(1, STEP_BYTES // record.itemsize)
    block = np.empty(min(step, count), dtype=record)
    tables = []
    for name, kind, f in zip(record.names, kinds, fields):
        if isinstance(f, bytes):
            block[name] = np.frombuffer(f, dtype=kind)[0]
        else:
            tables.append((name, kind, f[0], f[1]))
    text = bytearray()
    for start in range(0, count, step):
        rows = block[: count - start]
        for name, kind, table, index in tables:
            entries = table[index[start : start + len(rows)]]
            rows[name] = entries.reshape(len(rows), -1).view(kind)[:, 0]
        text += rows.tobytes().translate(None, b"\0")
    return text


def json_rows(
    columns: Sequence[tuple[np.ndarray, np.ndarray]],
    count: int,
    keys: Optional[Sequence[str]] = None,
) -> JSONText:
    """The value of a top-level payload field that lists ``count`` rows, as
    ``json.dumps(indent=2)`` writes it there: each row a list of the
    columns' texts or, with ``keys``, an object with those keys."""
    if not count:
        return JSONText("[]")
    open_, close = (b"[", b"]") if keys is None else (b"{", b"}")
    heads = [b""] * len(columns) if keys is None else [
        encode_basestring_ascii(k).encode("ascii") + b": " for k in keys
    ]
    seps = [b"\n      "] + [b",\n      "] * (len(columns) - 1)
    fields: list[Field] = [b"    " + open_]
    for sep, head, column in zip(seps, heads, columns):
        fields += [sep + head, column]
    fields.append(b"\n    " + close + b",\n")
    return _json_list(join_rows(fields, count))


def json_texts(table) -> JSONText:
    """The value of a top-level payload field that lists the texts of a
    :class:`~pauliaccess.pauli.PauliTable`'s rows, as ``json.dumps(indent=2)``
    writes it there (:meth:`~pauliaccess.pauli.PauliTable.text_rows`)."""
    if not len(table):
        return JSONText("[]")
    return _json_list(table.text_rows(b'    "', b'",\n'))


def _json_list(rows: bytearray) -> JSONText:
    """The JSON list of rows that each end in a comma and a newline."""
    rows[:0] = b"[\n"
    rows[-2:] = b"\n  ]"  # no separator after the last row
    return JSONText(rows, "ascii")
