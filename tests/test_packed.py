"""Packed tables against the scalar string algebra, across 64-bit word boundaries."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauliaccess import (
    AccessibleSet,
    GrammarError,
    HamiltonianSpec,
    MeasurementSpec,
    PauliString,
    bracket,
    build_exchange_chain,
    build_graph,
    build_model,
    decomposed_digamma,
    exchange_digamma,
    export_dot,
    generate,
    initial_state_vector,
    order_members,
    parse_term,
    partition_k_finite,
    WeightedPauliSum,
)
from pauliaccess.closure import accessible_set_from_json, accessible_set_to_json
from pauliaccess.graph import graph_to_json
from pauliaccess.pauli import DENSE_CAP, DimensionMismatchError, PauliTable
from pauliaccess.statespace import BLOCH_KETS, model_from_json, model_to_json

import dense_ref
import payload_ref

#: widths on both sides of one and two 64-bit words
WIDTHS = (1, 2, 63, 64, 65, 130)


def strings(n):
    full = (1 << n) - 1
    return st.builds(PauliString, st.just(n), st.integers(0, full), st.integers(0, full))


def distinct(n, max_size):
    return st.lists(strings(n), min_size=1, max_size=max_size, unique_by=lambda s: (s.x_mask, s.z_mask))


@given(st.sampled_from(WIDTHS).flatmap(lambda n: distinct(n, 40)))
def test_canonical_ranks_follow_sort_key(members):
    ranks = PauliTable.from_strings(members, members[0].n_qubits).canonical_ranks()
    by_rank = [s for _, s in sorted(zip(ranks.tolist(), members))]
    assert by_rank == sorted(members, key=lambda s: s.sort_key())


@st.composite
def sets_and_strings(draw):
    n = draw(st.sampled_from(WIDTHS))
    base = draw(distinct(n, 6))
    others = draw(st.lists(strings(n), min_size=1, max_size=5))
    # add some bracket targets so the lookup both hits and misses
    extra = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(others)), max_size=8))
    members = {(s.x_mask, s.z_mask): s for s in base}
    for m, v in extra:
        members.setdefault((m.x_mask ^ v.x_mask, m.z_mask ^ v.z_mask),
                           PauliString(n, m.x_mask ^ v.x_mask, m.z_mask ^ v.z_mask))
    return n, list(members.values()), others


@given(sets_and_strings())
def test_bracket_table_matches_bracket(case):
    n, members, others = case
    br = PauliTable.from_strings(members, n).brackets(PauliTable.from_strings(others, n))
    index = {(s.x_mask, s.z_mask): i for i, s in enumerate(members)}
    want = []
    for i, om in enumerate(members):
        for j, nu in enumerate(others):
            r = bracket(nu, om)
            if r is not None:
                want.append((i, j, index.get((r[1].x_mask, r[1].z_mask), -1), r[0]))
    got = list(zip(br.member.tolist(), br.string.tolist(), br.target.tolist(), br.sign.tolist()))
    assert got == want


def with_identity(n, max_size):
    return distinct(n, max_size).map(lambda m: m + [PauliString.identity(n)])


@given(st.sampled_from(WIDTHS).flatmap(lambda n: with_identity(n, 40)))
def test_table_texts_match_to_text(members):
    table = PauliTable.from_strings(members, members[0].n_qubits)
    assert table.texts() == [s.to_text() for s in members]


def test_empty_table_has_no_texts():
    assert PauliTable.from_strings([], 3).texts() == []


def x0_reference(kets, members):
    """Product-state x0 member by member, stopping at the first zero factor."""
    out = []
    for s in members:
        val = 1.0
        for site, letter in s.cells().items():
            val *= BLOCH_KETS[kets[site - 1]]["XYZ".index(letter)]
            if val == 0.0:
                break
        out.append(val)
    return np.array(out)


@st.composite
def kets_and_members(draw):
    n = draw(st.sampled_from(WIDTHS))
    kets = draw(st.lists(st.sampled_from(sorted(BLOCH_KETS)), min_size=n, max_size=n))
    return kets, draw(with_identity(n, 40))


@given(kets_and_members())
def test_product_x0_matches_member_loop(case):
    kets, members = case
    g = AccessibleSet(len(kets), tuple(members), (None,) * len(members))
    got, want = initial_state_vector(kets, g), x0_reference(kets, members)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_density(rng, n):
    """A random full-rank density matrix on n qubits."""
    g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dense_trace(s, rho):
    """Tr(P rho) for P = s built by Kronecker products."""
    return np.einsum("ij,ji->", dense_ref.dense(dense_ref.string_label(s)), rho)


@st.composite
def densities_and_sets(draw):
    n = draw(st.integers(1, 5))
    full = (1 << n) - 1
    seed = draw(st.builds(PauliString, st.just(n), st.integers(0, full), st.integers(0, full)))
    g = generate(exchange_digamma(n) if n >= 2 else [], [seed])
    return random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n), g


@given(densities_and_sets())
def test_density_x0_matches_member_loop(case):
    rho, g = case
    want = np.array([dense_trace(s, rho).real for s in g.members])
    assert np.max(np.abs(initial_state_vector(rho, g) - want), initial=0.0) <= 1e-14


def test_traces_work_in_chunks_at_the_dense_cap():
    # 2^14 rows x 1 024 columns: a complex gather over all of them is 256 MB
    n, rows = DENSE_CAP, 1 << 14
    rng = np.random.default_rng(10)
    x, z = (rng.integers(0, 1 << n, size=(rows, 1), dtype=np.uint64) for _ in "xz")
    rho = random_density(rng, n)
    table = PauliTable(n, x, z)
    tracemalloc.start()
    try:
        got = table.traces(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    for i in rng.choice(rows, 50, replace=False).tolist():
        s = PauliString(n, int(x[i, 0]), int(z[i, 0]))
        assert abs(got[i] - dense_trace(s, rho)) <= 1e-14


def test_table_refuses_mixed_shapes_and_an_empty_table_finds_nothing():
    table = PauliTable.from_strings([parse_term("X1", 2), parse_term("Z2", 2)], 2)
    with pytest.raises(DimensionMismatchError, match=r"matrix shape \(2, 2\), expected \(4, 4\)"):
        table.traces(np.eye(2))
    with pytest.raises(DimensionMismatchError, match="tables act on 2 and 3 qubits"):
        table.brackets(PauliTable.from_strings([parse_term("X1", 3)], 3))
    empty = PauliTable.from_strings([], 2)
    assert empty.find(table).tolist() == [-1, -1]


@given(st.sampled_from(WIDTHS).flatmap(strings))
def test_parse_term_round_trips_to_text(s):
    assert parse_term(s.to_text(), s.n_qubits) == s


def test_non_canonical_text_takes_the_grammar():
    assert parse_term("Z2 X1", 2) == PauliString.from_cells(2, {1: "X", 2: "Z"})
    assert parse_term("x1  y2", 2) == PauliString.from_cells(2, {1: "X", 2: "Y"})
    with pytest.raises(GrammarError, match="duplicate site"):
        parse_term("X1 X1", 2)
    with pytest.raises(GrammarError, match="outside"):
        parse_term("X1 Y3", 2)


#: ways to write a row that ``to_text`` never emits, as (text, width) -> text
NON_CANONICAL = {
    "unsorted sites": lambda t, n: " ".join(reversed(t.split(" "))),
    "doubled space": lambda t, n: t.replace(" ", "  ", 1) if " " in t else t + "  ",
    "leading space": lambda t, n: " " + t,
    "trailing space": lambda t, n: t + " ",
    "no space": lambda t, n: t.replace(" ", ""),
    "repeated site": lambda t, n: f"{t} {t.split()[-1]}" if t != "I" else "X1 Z1",
    "lowercase letter": lambda t, n: t[0].lower() + t[1:],
    "star": lambda t, n: t.replace(" ", "*") if " " in t else t + "*",
    "leading zero": lambda t, n: re.sub(r"(\d+)", r"0\1", t, count=1),
    "site 0": lambda t, n: re.sub(r"\d+", "0", t, count=1),
    "site above n": lambda t, n: re.sub(r"\d+", str(n + 1), t, count=1) if t != "I" else f"X{n + 1}",
    "non-ASCII": lambda t, n: t + "\u00e9",
    "I with cells": lambda t, n: "I " + t,
}


def parsed_or_error(parse):
    try:
        return parse(), None
    except Exception as exc:  # the error itself is the result compared
        return None, (type(exc), str(exc))


def assert_same_as_parse_term(texts, n):
    want, want_error = parsed_or_error(lambda: [parse_term(t, n) for t in texts])
    got, got_error = parsed_or_error(lambda: PauliTable.from_texts(texts, n))
    assert got_error == want_error
    if want is not None:
        ref = PauliTable.from_strings(want, n)
        np.testing.assert_array_equal(got.x, ref.x)
        np.testing.assert_array_equal(got.z, ref.z)
        # rendered from the packed rows, whatever the input texts
        assert got.texts() == [s.to_text() for s in want]


@st.composite
def texts_with_variants(draw):
    n = draw(st.sampled_from(WIDTHS))
    texts = [s.to_text() for s in draw(with_identity(n, 12))]
    edits = st.tuples(st.integers(0, len(texts) - 1), st.sampled_from(sorted(NON_CANONICAL)))
    for row, name in draw(st.lists(edits, max_size=3)):
        texts[row] = NON_CANONICAL[name](texts[row], n)
    return draw(st.permutations(texts)), n


@settings(max_examples=300, deadline=None)
@given(texts_with_variants())
def test_from_texts_matches_parse_term(case):
    assert_same_as_parse_term(*case)


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
@pytest.mark.parametrize("n", WIDTHS)
def test_from_texts_sends_non_canonical_rows_to_parse_term(name, n):
    texts = ["I", "X1", "X1 Z2 Y3"[: 3 * min(n, 3) - 1]]
    if n > 1:
        texts += [f"Z1 Y{n}", f"Y{n - 1} Z{n}"]
    for text in texts:
        row = NON_CANONICAL[name](text, n)
        assert_same_as_parse_term(["X1", row, "I"], n)


def test_from_texts_edge_cases():
    assert len(PauliTable.from_texts([], 3)) == 0
    with pytest.raises(GrammarError, match="empty operator text"):
        PauliTable.from_texts(["X1", ""], 3)
    # five digits, and a site number with more digits than the table reads
    assert PauliTable.from_texts(["X10000"], 10000).highest_sites().tolist() == [10000]
    assert_same_as_parse_term(["X12345"], 20000)


def test_table_keys_round_trip():
    g = generate(exchange_digamma(70), [parse_term("X1", 70)])  # case (a)
    table = PauliTable.from_keys(g.packed_keys(), 70)
    assert table.keys() == g.packed_keys()
    assert table.strings() == g.members
    assert table.highest_sites().tolist() == [s.highest_site() for s in g.members]


def test_repeat_names_the_first_repeat_in_row_order():
    table = PauliTable.from_texts(["X1", "Z2", "Z2", "X1", "Z2"], 2)
    assert table.repeat() == (1, 2)
    assert PauliTable.from_texts(["X1", "Z2"], 2).repeat() is None


def test_duplicate_rows_have_no_rank():
    s = parse_term("X1", 2)
    with pytest.raises(ValueError, match="duplicate"):
        PauliTable.from_strings([s, s], 2).canonical_ranks()


def test_depths_match_provenance_walk():
    g = generate(exchange_digamma(6), [parse_term("Y1 Z2", 6)])
    for i, d in enumerate(g.depths().tolist()):
        walk, j = 0, i
        while g.provenance[j] is not None:
            j, walk = g.provenance[j][0], walk + 1
        assert d == walk


def test_depths_reject_a_provenance_cycle():
    a, b = parse_term("X1", 2), parse_term("Z1 Y2", 2)
    nu = parse_term("Y1 Y2", 2)
    g = AccessibleSet(2, (a, b), ((1, nu), (0, nu)))
    with pytest.raises(ValueError, match="cycle"):
        g.depths()


# ---------------------------------------------------------------------------
# graph and model against per-pair loops, two words wide


def pair_loop_edges_and_a(g, spec, digamma):
    """The graph's edges and A's nonzeros from the scalar ``bracket``, one
    (member, string) pair at a time, in the orders the package lists them."""
    index = {(s.x_mask, s.z_mask): i for i, s in enumerate(g.members)}
    edges = {}
    for m, om in enumerate(g.members):
        for nu in digamma:
            br = bracket(om, nu)
            if br is not None:
                k = index[(br[1].x_mask, br[1].z_mask)]
                edges[(min(m, k), max(m, k))] = nu
    a = {}
    for j, oj in enumerate(g.members):
        for h, hm in spec.terms.terms:
            br = bracket(hm, oj)
            if br is not None:
                c, r = br
                l = index[(r.x_mask, r.z_mask)]
                a[(j, l)] = a.get((j, l), 0.0) + (-h * c)
    return (
        tuple((u, v, nu) for (u, v), nu in sorted(edges.items())),
        tuple((j, l, v) for (j, l), v in sorted(a.items()) if v != 0.0),
    )


def test_graph_and_model_match_pair_loops_at_n70():
    n = 70
    spec = build_exchange_chain(n, [0.5 + 0.01 * k for k in range(n - 1)])
    digamma = decomposed_digamma(spec)
    g = generate(digamma, [parse_term("X1", n)])  # case (a)
    assert len(g) == n
    edges, a = pair_loop_edges_and_a(g, spec, digamma)
    assert build_graph(g, digamma).edges == edges
    assert build_model(g, spec, MeasurementSpec.from_texts(["X1"], n)).a_entries == a


@st.composite
def wide_sparse_cases(draw):
    """A few weighted strings of weight 1 to 3, at times the identity or a
    0.0 coefficient among them, and one or two seeds, on 63 to 130 qubits.
    The sites come from a pool at the ends and at the 64-bit word edges, so
    that the strings overlap and reach across words.  Every member is a seed
    times a product of distinct Hamiltonian strings, so at most 9 terms keep
    a set under 2 * 2^9 = 1024 members."""
    n = draw(st.sampled_from((63, 64, 65, 66, 130)))
    site = st.sampled_from([s for s in (1, 2, 3, 62, 63, 64, 65, 66, 67, 128, 129, 130) if s <= n])

    def sparse(min_size=1):
        cells = st.dictionaries(site, st.sampled_from("XYZ"), min_size=min_size, max_size=3)
        return cells.map(lambda c: PauliString.from_cells(n, c))

    coeff = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05) | st.just(0.0)
    term = st.tuples(coeff, sparse(min_size=0))
    terms = draw(st.lists(term, min_size=1, max_size=9, unique_by=lambda t: t[1]))
    seeds = draw(st.lists(sparse(), min_size=1, max_size=2, unique_by=lambda s: s.to_text()))
    return n, terms, seeds


@settings(max_examples=100, deadline=None)
@given(wide_sparse_cases())
def test_graph_and_model_match_pair_loops_on_wide_sparse_hamiltonians(case):
    n, terms, seeds = case
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple(terms)))
    digamma = decomposed_digamma(spec)
    meas = MeasurementSpec.from_texts([s.to_text() for s in seeds], n)
    g = generate(digamma, list(meas.decomposed))
    assert len(g) <= 2 * 2 ** len(terms)
    edges, a = pair_loop_edges_and_a(g, spec, digamma)
    assert build_graph(g, digamma).edges == edges
    assert build_graph(g, digamma + digamma[::-1]).edges == edges
    assert build_model(g, spec, meas).a_entries == a


def assert_reader_keeps_the_partition(g, digamma):
    with warnings.catch_warnings():
        # a disconnected block falls back to generation order; its partition holds
        warnings.simplefilter("ignore", UserWarning)
        ordered = order_members(g, build_graph(g, digamma), partition_k_finite(g))
    loaded = accessible_set_from_json(json.loads(accessible_set_to_json(ordered)))
    assert loaded == ordered  # partition included


@settings(max_examples=30, deadline=None)
@given(wide_sparse_cases())
def test_set_reader_takes_the_partition_of_wide_sparse_sets(case):
    n, terms, seeds = case
    digamma = decomposed_digamma(HamiltonianSpec(n, WeightedPauliSum(n, tuple(terms))))
    meas = MeasurementSpec.from_texts([s.to_text() for s in seeds], n)
    assert_reader_keeps_the_partition(generate(digamma, list(meas.decomposed)), digamma)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_set_reader_takes_the_partition_of_heisenberg_sets(n):
    digamma = [PauliString.from_cells(n, {k: a, k + 1: a}) for k in range(1, n) for a in "XYZ"]
    assert_reader_keeps_the_partition(generate(digamma, [parse_term("Z1", n)]), digamma)


def test_set_reader_takes_the_partition_of_two_components():
    # case (a) and case (b) seeds: two components, so each k has two blocks
    digamma = exchange_digamma(5)
    g = generate(digamma, [parse_term("X1", 5), parse_term("Z1", 5)])
    assert_reader_keeps_the_partition(g, digamma)


def test_payloads_match_member_texts_at_n70():
    n = 70
    spec = build_exchange_chain(n, [0.5 + 0.01 * k for k in range(n - 1)])
    digamma = decomposed_digamma(spec)
    g = generate(digamma, [parse_term("X1", n)])  # case (a)
    g = order_members(g, build_graph(g, digamma), partition_k_finite(g))
    graph = build_graph(g, digamma)
    assert export_dot(graph, g.partition) == payload_ref.dot_text(graph, g.partition)
    want = payload_ref.graph_dict(graph, g.partition)
    assert graph_to_json(graph, g.partition) == payload_ref.dumps(want)
    assert accessible_set_to_json(g) == payload_ref.dumps(payload_ref.set_dict(g))
    model = build_model(g, spec, MeasurementSpec.from_texts(["X1"], n))
    assert model_to_json(model) == payload_ref.dumps(payload_ref.model_dict(model))


def test_set_and_model_json_round_trip_at_n70():
    n = 70
    spec = build_exchange_chain(n, [0.5 + 0.01 * k for k in range(n - 1)])
    digamma = decomposed_digamma(spec)
    g = generate(digamma, [parse_term("X1", n)])  # case (a)
    g = order_members(g, build_graph(g, digamma), partition_k_finite(g))
    model = build_model(g, spec, MeasurementSpec.from_texts(["X1", "0.5 * Z1 Y2 + X1"], n))
    set_text = accessible_set_to_json(g)
    model_text = model_to_json(model)
    loaded = accessible_set_from_json(json.loads(set_text))
    assert accessible_set_to_json(loaded) == set_text
    assert model_to_json(model_from_json(json.loads(model_text))) == model_text
    assert loaded == g
