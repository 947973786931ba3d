"""The provenance arrays against the tuple code they replaced, the set file
read back byte for byte, and the member texts parsed in bounded memory.

``provenance_ref`` keeps the per-member loops over ``(parent, edging
string)`` tuples: chain depths, the remap of a reordering and the checked
reader.  The draws reach all-null provenance and parent chains with cycles,
which the loaders accept.
"""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import string_of
from pauliaccess import AccessibleSet, pauli
from pauliaccess.cli import main
from pauliaccess.closure import (
    accessible_set_from_json,
    accessible_set_to_json,
    generate,
    load_accessible_set,
)
from pauliaccess.graph import build_graph, order_members, partition_k_finite
from pauliaccess.hamiltonian import HamiltonianSpec, MeasurementSpec, decomposed_digamma
from pauliaccess.pauli import PauliTable, WeightedPauliSum, parse_term

import payload_ref
import provenance_ref
from test_statespace import hamiltonians_and_seeds

#: qubits of the drawn tables: 4^3 = 64 strings
N = 3

LABELS = tuple(parse_term(t, N) for t in ("X1 X2", "Y2 Y3", "Z1", "X1 Y2 Z3"))


def table_of(size: int) -> PauliTable:
    """``size`` distinct N-qubit strings."""
    return PauliTable.from_keys(list(range(1, size + 1)), N)


def outcome(f):
    """f's result, or the type and text of the ValueError it raised."""
    try:
        return f(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


@st.composite
def provenances(draw):
    """All null, a forest (each parent earlier), or any parents, self and
    cycles included."""
    size = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["null", "forest", "any"]))
    out = []
    for i in range(size):
        if kind == "null" or (kind == "forest" and i == 0) or draw(st.integers(0, 4)) == 0:
            out.append(None)
        else:
            parent = draw(st.integers(0, i - 1 if kind == "forest" else size - 1))
            out.append((parent, draw(st.sampled_from(LABELS))))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(provenances())
@example(((1, LABELS[0]), (0, LABELS[1])))  # a two-member cycle
@example((None, (1, LABELS[0])))  # a member its own parent
def test_depths_match_the_tuple_walk(provenance):
    g = AccessibleSet(N, table_of(len(provenance)), provenance)
    want = outcome(lambda: provenance_ref.depths(provenance))
    assert outcome(lambda: g.depths().tolist()) == want
    # the same arrays given directly, with the tuple built from them
    arrays = AccessibleSet._from_forest(N, table_of(len(provenance)), g.provenance_arrays())
    assert arrays.provenance == provenance
    assert outcome(lambda: arrays.depths().tolist()) == want


@settings(max_examples=150, deadline=None)
@given(provenances())
def test_lineage_walks_up_to_a_seed_or_names_the_cycle(provenance):
    g = AccessibleSet(N, table_of(len(provenance)), provenance)
    for i in range(len(provenance)):
        path, error = outcome(lambda: g.lineage(i))
        if error is None:
            assert path[-1] == i and provenance[path[0]] is None
            assert all(provenance[b][0] == a for a, b in zip(path, path[1:]))
        else:
            assert "forms a cycle" in error[1]


@settings(max_examples=150, deadline=None)
@given(provenances())
def test_set_text_from_the_arrays_matches_reference(provenance):
    g = AccessibleSet(N, table_of(len(provenance)), provenance)
    arrays = AccessibleSet._from_forest(N, table_of(len(provenance)), g.provenance_arrays())
    assert accessible_set_to_json(arrays) == payload_ref.dumps(payload_ref.set_dict(g))


def test_a_provenance_that_does_not_fit_the_members_is_refused():
    # each built a set whose depths() or set text failed inside numpy
    two, nu = table_of(2), LABELS[0]
    for provenance, message in [
        ((None,), "must have 2 entries, one per member"),
        ((None, (5, nu)), r"parent must be -1 or in 0\.\.1"),
        ((None, (-1, nu)), "parent and label must be -1 at the same members"),
    ]:
        with pytest.raises(ValueError, match=message):
            AccessibleSet(N, two, provenance)
    parent, label = np.array([-1, 0]), np.array([-1, 1])
    with pytest.raises(ValueError, match=r"label must be -1 or in 0\.\.0"):
        AccessibleSet._from_forest(N, two, (parent, label, (nu,)))
    with pytest.raises(ValueError, match="parent and label must be -1 at the same members"):
        AccessibleSet._from_forest(N, two, (parent, np.array([0, 0]), (nu,)))


#: parents and edges of a set file's entries, valid or not
PARENTS = st.one_of(
    st.none(), st.integers(-2, 13), st.sampled_from([True, False, 1.0, "0", 10**30, [0]])
)
EDGES = st.one_of(
    st.none(),
    st.sampled_from(["X1 X2", "Y2 Y3", "Z1", "x1  y2", "X4", "X01", "Q", "", 5, ["X1"], {}]),
)


@st.composite
def set_files(draw):
    size = draw(st.integers(1, 12))
    data = payload_ref.set_dict(AccessibleSet(N, table_of(size), (None,) * size))
    if draw(st.booleans()):  # entries of every kind, or a forest that may loop
        data["provenance"] = [
            {"parent": draw(PARENTS), "edge": draw(EDGES)} for _ in range(size)
        ]
    else:
        edges = st.sampled_from(["X1 X2", "Z1"])
        data["provenance"] = [{"parent": None, "edge": None}] + [
            {"parent": draw(st.integers(0, size - 1)), "edge": draw(edges)}
            for _ in range(size - 1)
        ]
    return data


@settings(max_examples=300, deadline=None)
@given(set_files())
def test_reader_matches_the_entry_loop(data):
    entries = data["provenance"]
    want = outcome(lambda: provenance_ref.read(entries, len(entries), N))
    assert outcome(lambda: accessible_set_from_json(data).provenance) == want


@settings(max_examples=60, deadline=None)
@given(hamiltonians_and_seeds(), st.randoms(use_true_random=False))
def test_order_members_remaps_as_the_tuple_code(case, rnd):
    terms, seed = case
    assume("I" * len(seed) != seed)  # the identity has no k-finite block
    n = len(seed)
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple((c, string_of(lab)) for c, lab in terms)))
    meas = MeasurementSpec.from_texts([string_of(seed).to_text()], n)
    digamma = decomposed_digamma(spec)
    g = generate(digamma, list(meas.decomposed))
    # a shuffled copy, so the remap sees parents in any order
    shuffle = list(range(len(g)))
    rnd.shuffle(shuffle)
    shuffled = AccessibleSet(
        n, g.table().take(shuffle), provenance_ref.remap(g.provenance, shuffle)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a disconnected block falls back
        ordered = order_members(
            shuffled, build_graph(shuffled, digamma), partition_k_finite(shuffled)
        )
    new_order = shuffled.table().find(ordered.table()).tolist()
    assert ordered.provenance == provenance_ref.remap(shuffled.provenance, new_order)


GOLDEN_SET = Path(__file__).parent / "golden" / "set.json"


def test_round_trip_n5_is_byte_identical():
    assert accessible_set_to_json(load_accessible_set(GOLDEN_SET)) == GOLDEN_SET.read_text()


def test_round_trip_n70_is_byte_identical(tmp_path, capsys):
    # case (b) at N = 70: 4 900 members, two words per mask
    path = tmp_path / "set.json"
    assert main(["gen", "--chain", "70", "--measurement", "Z1", "--out", str(path)]) == 0
    capsys.readouterr()
    g = load_accessible_set(path)
    assert g.table().x.shape == (4900, 2)
    assert accessible_set_to_json(g) == path.read_text()


def test_from_texts_parses_a_multi_chunk_text_in_bounded_memory(monkeypatch):
    # about 3 MB of member text in 64 KB chunks: one parse of it all
    # would take some 30 times its size in temporaries
    rng = np.random.default_rng(21)
    n, rows = 100, 12_000
    x, z = (rng.integers(0, 1 << 50, size=(rows, 2), dtype=np.uint64) for _ in "xz")
    x[:, 1] >>= np.uint64(14)
    z[:, 1] >>= np.uint64(14)  # sites up to 100
    source = PauliTable(n, x, z)
    texts = source.texts()
    assert sum(map(len, texts)) > 2 << 20
    monkeypatch.setattr(pauli, "_PARSE_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        table = PauliTable.from_texts(texts, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    np.testing.assert_array_equal(table.x, source.x)
    np.testing.assert_array_equal(table.z, source.z)
    assert table.texts() == texts
