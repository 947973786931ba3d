"""Packed tables against the scalar string algebra, across 64-bit word boundaries."""

import pytest
from hypothesis import given, strategies as st

from pauliaccess import (
    AccessibleSet,
    GrammarError,
    MeasurementSpec,
    PauliString,
    bracket,
    build_exchange_chain,
    build_graph,
    build_model,
    decomposed_digamma,
    exchange_digamma,
    generate,
    parse_term,
)
from pauliaccess.pauli import PauliTable

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


def test_duplicate_rows_have_no_rank():
    s = parse_term("X1", 2)
    with pytest.raises(ValueError, match="duplicate"):
        PauliTable.from_strings([s, s], 2).canonical_ranks()


def test_depths_match_provenance_walk():
    g = generate(exchange_digamma(6), [parse_term("Y1 Z2", 6)])
    for i, d in enumerate(g.depths()):
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


def test_graph_and_model_match_pair_loops_at_n70():
    n = 70
    spec = build_exchange_chain(n, [0.5 + 0.01 * k for k in range(n - 1)])
    digamma = decomposed_digamma(spec)
    g = generate(digamma, [parse_term("X1", n)])  # case (a)
    assert len(g) == n
    index = {(s.x_mask, s.z_mask): i for i, s in enumerate(g.members)}

    edges = {}
    for m, om in enumerate(g.members):
        for nu in digamma:
            br = bracket(om, nu)
            if br is not None:
                k = index[(br[1].x_mask, br[1].z_mask)]
                edges[(min(m, k), max(m, k))] = nu
    assert build_graph(g, digamma).edges == tuple((u, v, nu) for (u, v), nu in sorted(edges.items()))

    a = {}
    for j, oj in enumerate(g.members):
        for h, hm in spec.terms.terms:
            br = bracket(hm, oj)
            if br is not None:
                c, r = br
                l = index[(r.x_mask, r.z_mask)]
                a[(j, l)] = a.get((j, l), 0.0) + (-h * c)
    meas = MeasurementSpec.from_texts(["X1"], n)
    model = build_model(g, spec, meas)
    assert model.a_entries == tuple((j, l, v) for (j, l), v in sorted(a.items()) if v != 0.0)
