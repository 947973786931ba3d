"""The set, graph, DOT and model writers against per-entry references.

Each writer renders its bulk rows from arrays through one fixed-width
assembler; ``payload_ref`` builds the same payload from Python lists and
dicts and writes it with ``json.dumps(indent=2)``.  The draws reach the
corners of the assembler: empty blocks, a single row, index texts that change
width (9/10, 99/100), and float texts from the shortest to the longest.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pauliaccess import AccessibleSet, PauliString
from pauliaccess._fixedwidth import index_table, join_rows
from pauliaccess.closure import accessible_set_to_json
from pauliaccess.graph import AccessGraph, export_dot, graph_to_json
from pauliaccess.pauli import PauliTable
from pauliaccess.statespace import StateSpaceModel, model_to_json

import payload_ref

#: qubits of the drawn tables: 4^4 = 256 strings, enough for every size drawn
N = 4

#: sizes on both sides of a change in index width
SIZES = st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101, 120])

#: floats whose texts differ in form and length, and any other double
VALUES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 2.0, sys.float_info.max, -1.25, 123456.789,
    ]),
    st.floats(),
)


def table_of(size: int) -> PauliTable:
    """``size`` distinct N-qubit strings."""
    return PauliTable.from_keys(list(range(1, size + 1)), N)


def index_column(draw, size: int, count: int) -> np.ndarray:
    """``count`` indices below ``size``, often at 0, 9, 10, 99 and 100."""
    picks = st.one_of(st.sampled_from([0, 9, 10, 99, 100]), st.integers(0, 10**6))
    return np.array([draw(picks) % size for _ in range(count)], dtype=np.int64)


@st.composite
def models(draw):
    dim = draw(SIZES.filter(bool))
    n_outputs = draw(st.sampled_from([0, 1, 9, 10, 11]))
    blocks = []
    for rows in (dim, n_outputs):
        count = draw(st.integers(0, 6)) if rows else 0
        index = np.stack(
            (index_column(draw, rows or 1, count), index_column(draw, dim, count)), axis=1
        )
        blocks += [index, np.array(draw(st.lists(VALUES, min_size=count, max_size=count)))]
    return StateSpaceModel(table_of(dim), *blocks, n_outputs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(models())
@example(StateSpaceModel(table_of(1), np.zeros((0, 2), int), np.zeros(0), np.zeros((0, 2), int),
                         np.zeros(0), 0))
@example(StateSpaceModel(
    table_of(101),
    np.array([[0, 9], [9, 10], [10, 99], [99, 100], [100, 0], [0, 0], [1, 1], [2, 2]]),
    np.array([0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 2.0, sys.float_info.max]),
    np.array([[0, 100]]), np.array([-0.0]), 1,
))
def test_model_text_matches_reference(model):
    assert model_to_json(model) == payload_ref.dumps(payload_ref.model_dict(model))


#: edge labels: a repeated string as two objects, and the identity
LABELS = (
    PauliString.from_text("X1 X2", N),
    PauliString.from_text("X1 X2", N),
    PauliString.from_text("Y3 Y4", N),
    PauliString.from_text("Z1 Y2 X3 Z4", N),
    PauliString(N, 0, 0),
)


@st.composite
def partitions(draw, size: int):
    """None, or (k, start, end) ranges."""
    if draw(st.booleans()):
        return None
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
    bounds = list(zip([0] + cuts, cuts + [size]))
    ks = draw(st.lists(st.integers(1, 12), min_size=len(bounds), max_size=len(bounds)))
    return tuple((k, a, b) for k, (a, b) in zip(ks, bounds))


@st.composite
def sets(draw):
    size = draw(SIZES)
    provenance = tuple(
        None
        if i == 0 or draw(st.integers(0, 5)) == 0
        else (draw(st.sampled_from([0, 9, 10, 99, 100, i - 1])) % i, draw(st.sampled_from(LABELS)))
        for i in range(size)
    )
    partition = draw(partitions(size))
    cores = draw(st.none() | st.lists(st.integers(0, max(size - 1, 0)), max_size=3).map(tuple))
    return AccessibleSet(N, table_of(size), provenance, partition, cores)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sets())
def test_set_text_matches_reference(g):
    assert accessible_set_to_json(g) == payload_ref.dumps(payload_ref.set_dict(g))


@st.composite
def graphs(draw):
    size = draw(SIZES)
    count = draw(st.integers(0, 8)) if size else 0
    ends = np.stack((index_column(draw, size, count), index_column(draw, size, count)), axis=1)
    labels = draw(st.lists(st.integers(0, len(LABELS) - 1), min_size=count, max_size=count))
    graph = AccessGraph(N, table_of(size), ends, np.array(labels, dtype=np.int64), LABELS)
    return graph, draw(partitions(size))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs())
def test_graph_texts_match_reference(drawn):
    graph, partition = drawn
    assert export_dot(graph, partition) == payload_ref.dot_text(graph, partition)
    want = payload_ref.graph_dict(graph, partition)
    assert graph_to_json(graph, partition) == payload_ref.dumps(want)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100, 1001, 12345])
def test_index_table_holds_each_index_text(n):
    table = index_table(n)
    fields = [b"<", (table, np.arange(n)), b">"]
    assert join_rows(fields, n) == b"".join(f"<{i}>".encode() for i in range(n))


def test_join_rows_in_steps(monkeypatch):
    # records of 6 bytes, so 2 rows per step
    monkeypatch.setattr("pauliaccess._fixedwidth.STEP_BYTES", 13)
    table = index_table(30)
    rows = np.arange(30)[::-1]
    want = b"".join(f"{i},{i}\n".encode() for i in rows.tolist())
    assert join_rows([(table, rows), b",", (table, rows), b"\n"], 30) == want
