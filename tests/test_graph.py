"""Access graphs: edges, lemma checks, k-finite partition, ordering, DOT."""

import json
import warnings

import numpy as np
import pytest

from conftest import cases_fitting
from pauliaccess import (
    AccessibleSet,
    PauliString,
    adjacency_matrix,
    bracket_normalized,
    build_graph,
    chain_closed_form,
    connected_components,
    exchange_digamma,
    generate,
    is_connected,
    order_members,
    parse_term,
    partition_k_finite,
    verify_block_regeneration,
)
from pauliaccess.closure import ClosureError
from pauliaccess.graph import (
    BlockRegenerationReport,
    KFinitePartition,
    export_dot,
    graph_to_json,
)
from pauliaccess.pauli import DimensionMismatchError


def case_b_pipeline(n):
    dig = exchange_digamma(n)
    g = generate(dig, [parse_term("Z1", n)])
    gr = build_graph(g, dig)
    return dig, g, gr


def test_case_b_n2_four_cycle():
    _, g, gr = case_b_pipeline(2)
    named = {
        (g.members[u].to_text(), g.members[v].to_text(), lab.to_text())
        for u, v, lab in gr.edges
    }
    assert named == {
        ("Z1", "Y1 X2", "X1 X2"),
        ("Z1", "X1 Y2", "Y1 Y2"),
        ("Y1 X2", "Z2", "Y1 Y2"),
        ("X1 Y2", "Z2", "X1 X2"),
    }
    adj = adjacency_matrix(gr)
    assert adj.shape == (4, 4)
    assert (adj == adj.T).all()
    assert not adj.diagonal().any()
    assert adj.sum(axis=0).tolist() == [2, 2, 2, 2]


def test_single_member_no_edges():
    g = AccessibleSet(1, (parse_term("X1", 1),), (None,))
    gr = build_graph(g, [])
    assert gr.edges == ()
    assert (adjacency_matrix(gr) == np.zeros((1, 1), dtype=bool)).all()
    assert is_connected(gr)


def test_closed_form_set_is_a_path_graph():
    n = 6
    dig = exchange_digamma(n)
    cf = chain_closed_form(n, 1, "X")
    gr = build_graph(cf, dig)
    # ladder members are adjacent exactly to their site neighbors
    assert {(u, v) for u, v, _ in gr.edges} == {(i, i + 1) for i in range(n - 1)}
    adj = adjacency_matrix(gr)
    band = np.triu(np.ones((n, n), dtype=bool), 1) & np.tril(
        np.ones((n, n), dtype=bool), 1
    )
    assert (adj == (band | band.T)).all()


def test_build_graph_rejects_non_fixpoint():
    dig = exchange_digamma(2)
    partial = AccessibleSet(2, (parse_term("Z1", 2),), (None,))
    with pytest.raises(ClosureError):
        build_graph(partial, dig)


def test_graph_simplicity_and_label_symmetry():
    for n in (2, 4, 6):
        dig = exchange_digamma(n)
        for name, seed in cases_fitting(n).items():
            g = generate(dig, [seed])
            gr = build_graph(g, dig)
            for u, v, lab in gr.edges:
                assert u != v
                assert bracket_normalized(g.members[u], lab) == g.members[v]
                assert bracket_normalized(g.members[v], lab) == g.members[u]
            pairs = [(u, v) for u, v, _ in gr.edges]
            assert len(pairs) == len(set(pairs))


def test_connectivity_single_seed_cases():
    for n in range(2, 8):
        dig = exchange_digamma(n)
        for name, seed in cases_fitting(n).items():
            g = generate(dig, [seed])
            assert is_connected(build_graph(g, dig)), (n, name)


def test_two_disjoint_chains_give_two_components():
    # one 4-site system wired as two decoupled 2-site chains
    n = 4
    dig = [
        PauliString.from_cells(n, {1: "X", 2: "X"}),
        PauliString.from_cells(n, {1: "Y", 2: "Y"}),
        PauliString.from_cells(n, {3: "X", 4: "X"}),
        PauliString.from_cells(n, {3: "Y", 4: "Y"}),
    ]
    seeds = [parse_term("Z1", n), parse_term("Z3", n)]
    g = generate(dig, seeds)
    gr = build_graph(g, dig)
    comps = connected_components(gr)
    assert len(comps) == 2
    assert not is_connected(gr)


# ---------------------------------------------------------------------------
# k-finite partition


def test_partition_case_b_n2():
    _, g, _ = case_b_pipeline(2)
    part = partition_k_finite(g)
    content = {
        k: {g.members[i].to_text() for i in idx} for k, idx in part.blocks
    }
    assert content == {1: {"Z1"}, 2: {"Z2", "X1 Y2", "Y1 X2"}}


def test_partition_case_d_n5_sizes():
    dig = exchange_digamma(5)
    g = generate(dig, [parse_term("Y1 Z2", 5)])
    part = partition_k_finite(g)
    assert [(k, len(idx)) for k, idx in part.blocks] == [
        (2, 2),
        (3, 7),
        (4, 15),
        (5, 26),
    ]


def test_partition_closed_form_all_singletons():
    cf = chain_closed_form(5, 2, "X")
    part = partition_k_finite(cf)
    assert [(k, len(idx)) for k, idx in part.blocks] == [
        (k, 1) for k in range(1, 6)
    ]


def test_partition_rejects_identity_member():
    g = AccessibleSet(2, (PauliString.identity(2),), (None,))
    with pytest.raises(ValueError):
        partition_k_finite(g)


def test_partition_omits_empty_blocks():
    # case (f) at N=3 has no 1-finite member
    dig = exchange_digamma(3)
    g = generate(dig, [parse_term("X1 Y2 Z3", 3)])
    part = partition_k_finite(g)
    assert [k for k, _ in part.blocks] == [2, 3]


# ---------------------------------------------------------------------------
# ordering


def test_order_case_b_n6_layering():
    dig, g, gr = case_b_pipeline(6)
    ordered = order_members(g, gr, partition_k_finite(g))
    assert ordered.members[0].to_text() == "Z1"
    ks = [k for k, a, b in ordered.partition for _ in range(b - a)]
    assert ks == sorted(ks)
    # block boundaries carve members by their ending site
    for k, a, b in ordered.partition:
        for s in ordered.members[a:b]:
            assert s.highest_site() == k
    # block 2 holds the three 2-finite strings
    k2 = next((a, b) for k, a, b in ordered.partition if k == 2)
    assert {s.to_text() for s in ordered.members[k2[0] : k2[1]]} == {
        "Z2",
        "X1 Y2",
        "Y1 X2",
    }


def test_order_single_block_is_bfs_from_seed():
    dig = exchange_digamma(3)
    g = generate(dig, [parse_term("Z1 Z2 X3", 3)])  # ladder: singleton blocks
    gr = build_graph(g, dig)
    ordered = order_members(g, gr, partition_k_finite(g))
    assert [s.to_text() for s in ordered.members] == [
        "X1",
        "Z1 Y2",
        "Z1 Z2 X3",
    ]


def test_order_is_permutation_invariant():
    rng = np.random.default_rng(5)
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    gr = build_graph(g, dig)
    baseline = order_members(g, gr, partition_k_finite(g))
    for _ in range(5):
        perm = rng.permutation(len(g.members))
        inv = {int(old): new for new, old in enumerate(perm)}
        members = tuple(g.members[int(i)] for i in perm)
        provenance = tuple(
            None
            if g.provenance[int(i)] is None
            else (inv[g.provenance[int(i)][0]], g.provenance[int(i)][1])
            for i in perm
        )
        shuffled = AccessibleSet(4, members, provenance)
        gr2 = build_graph(shuffled, dig)
        ordered = order_members(shuffled, gr2, partition_k_finite(shuffled))
        assert [s.to_text() for s in ordered.members] == [
            s.to_text() for s in baseline.members
        ]
        assert ordered.partition == baseline.partition
        assert ordered.cores == baseline.cores


def test_order_provenance_remapped_consistently():
    dig, g, gr = case_b_pipeline(4)
    ordered = order_members(g, gr, partition_k_finite(g))
    for i, p in enumerate(ordered.provenance):
        if p is None:
            continue
        parent, edge = p
        assert bracket_normalized(ordered.members[parent], edge) == ordered.members[i]


def test_order_two_components_grouped():
    n = 4
    dig = [
        PauliString.from_cells(n, {1: "X", 2: "X"}),
        PauliString.from_cells(n, {1: "Y", 2: "Y"}),
        PauliString.from_cells(n, {3: "X", 4: "X"}),
        PauliString.from_cells(n, {3: "Y", 4: "Y"}),
    ]
    g = generate(dig, [parse_term("Z1", n), parse_term("Z3", n)])
    gr = build_graph(g, dig)
    ordered = order_members(g, gr, partition_k_finite(g))
    comps = connected_components(build_graph(ordered, dig))
    # members of each component are contiguous after ordering
    for comp in comps:
        assert comp == list(range(min(comp), max(comp) + 1))


def test_partition_nesting_chain_prefixes():
    # blocks k <= i of the N-qubit set reproduce the i-qubit closure
    n = 5
    for seed_text in ("Z1", "Y1 Z2"):
        dig = exchange_digamma(n)
        g = generate(dig, [parse_term(seed_text, n)])
        part = partition_k_finite(g)
        for i in range(2, n):
            small = generate(exchange_digamma(i), [parse_term(seed_text, i)])
            small_keys = {(s.x_mask, s.z_mask) for s in small.members}
            mask = (1 << i) - 1
            big_keys = {
                (g.members[j].x_mask & mask, g.members[j].z_mask & mask)
                for k, idx in part.blocks
                if k <= i
                for j in idx
            }
            assert small_keys == big_keys, (seed_text, i)


# ---------------------------------------------------------------------------
# block regeneration


def test_block_regeneration_case_b_n4():
    dig, g, _ = case_b_pipeline(4)
    report = verify_block_regeneration(g, partition_k_finite(g), dig)
    assert report.all_passed
    assert report.failures() == []


def test_block_regeneration_case_d_n4():
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    report = verify_block_regeneration(g, partition_k_finite(g), dig)
    assert report.all_passed


def test_block_regeneration_singleton_blocks():
    dig = exchange_digamma(4)
    cf = chain_closed_form(4, 1, "X")
    report = verify_block_regeneration(cf, partition_k_finite(cf), dig)
    assert report.all_passed


def test_paper_cores_regenerate_case_d_n4():
    # the hand-picked cores Z2..Z_{k-1}(X_k or Y_k) lie in their blocks and,
    # like every member, regenerate them
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    paper_cores = {2: "X2", 3: "Z2 Y3", 4: "Z2 Z3 X4"}
    part = partition_k_finite(g)
    for k, idx in part.blocks:
        block_texts = {g.members[i].to_text() for i in idx}
        assert paper_cores[k] in block_texts


def pauli_walk_block_regeneration(g, partition, digamma):
    """Block regeneration walked on PauliString objects, one bracket at a time."""
    checks = []
    for k, indices in partition.blocks:
        block_keys = {
            (g.members[i].x_mask, g.members[i].z_mask): i for i in indices
        }
        dig_k = [nu for nu in digamma if nu.highest_site() <= k]
        for i in indices:
            reached = {(g.members[i].x_mask, g.members[i].z_mask)}
            queue = [g.members[i]]
            while queue:
                tau = queue.pop()
                for nu in dig_k:
                    r = bracket_normalized(tau, nu)
                    if r is None:
                        continue
                    key = (r.x_mask, r.z_mask)
                    if key in block_keys and key not in reached:
                        reached.add(key)
                        queue.append(r)
            checks.append((k, i, len(reached) == len(block_keys)))
    return BlockRegenerationReport(tuple(checks))


def test_block_regeneration_matches_the_pauli_walk():
    for n in (2, 3, 4, 5):
        dig = exchange_digamma(n)
        for name, seed in cases_fitting(n).items():
            g = generate(dig, [seed])
            part = partition_k_finite(g)
            report = verify_block_regeneration(g, part, dig)
            assert report == pauli_walk_block_regeneration(g, part, dig), (n, name)
            assert report.all_passed, (n, name)


@pytest.mark.parametrize("drop", range(8))
def test_block_regeneration_failures_match_the_pauli_walk(drop):
    # case (d) N = 5, checked against digamma with one string removed
    dig = exchange_digamma(5)
    g = generate(dig, [parse_term("Y1 Z2", 5)])
    part = partition_k_finite(g)
    fewer = [nu for j, nu in enumerate(dig) if j != drop]
    report = verify_block_regeneration(g, part, fewer)
    assert report == pauli_walk_block_regeneration(g, part, fewer)
    assert [(k, i) for k, i, _ in report.checks] == [
        (k, i) for k, idx in part.blocks for i in idx
    ]
    assert report.failures() and not report.all_passed


def test_block_regeneration_checks_digamma_width():
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    with pytest.raises(DimensionMismatchError):
        verify_block_regeneration(g, partition_k_finite(g), [*dig, parse_term("X5", 5)])


# ---------------------------------------------------------------------------
# exports


EXPECTED_DOT_B2 = """graph access_set {
  node [shape=box];
  subgraph cluster_0 {
    label="k=1";
    n0 [label="Z1"];
  }
  subgraph cluster_1 {
    label="k=2";
    n1 [label="X1 Y2"];
    n2 [label="Z2"];
    n3 [label="Y1 X2"];
  }
  n0 -- n1 [label="Y1 Y2"];
  n0 -- n3 [label="X1 X2"];
  n1 -- n2 [label="X1 X2"];
  n2 -- n3 [label="Y1 Y2"];
}
"""


def test_export_dot_case_b_n2_golden():
    dig, g, gr = case_b_pipeline(2)
    ordered = order_members(g, gr, partition_k_finite(g))
    dot = export_dot(build_graph(ordered, dig), ordered.partition)
    assert dot == EXPECTED_DOT_B2


def test_export_dot_empty_graph():
    g = AccessibleSet(1, (), ())
    gr = build_graph(g, [])
    assert export_dot(gr) == "graph access_set {\n}\n"


def test_export_dot_case_d_n3_clusters():
    dig = exchange_digamma(3)
    g = generate(dig, [parse_term("Y1 Z2", 3)])
    gr = build_graph(g, dig)
    ordered = order_members(g, gr, partition_k_finite(g))
    dot = export_dot(build_graph(ordered, dig), ordered.partition)
    assert dot.count("[label=") >= 9
    assert dot.count("subgraph cluster_") == 2
    assert len(ordered) == 9


def test_graph_json_shape():
    dig, g, gr = case_b_pipeline(2)
    data = json.loads(graph_to_json(gr))
    assert set(data) == {"schema", "n_qubits", "vertices", "edges", "blocks"}
    assert len(data["vertices"]) == 4
    assert all(set(e) == {"u", "v", "label"} for e in data["edges"])


def reference_order(g, graph, partition):
    """The per-block Python walk that order_members replaced: (order,
    partition, cores, fallback warnings)."""
    n = len(g)
    adj = [[] for _ in range(n)]
    for u, v in graph.ends.tolist():
        adj[u].append(v)
        adj[v].append(u)
    rank = g.table().canonical_ranks()
    for nbrs in adj:
        nbrs.sort(key=lambda v: rank[v])
    comps, seen = [], [False] * n
    for start in range(n):
        if not seen[start]:
            seen[start], stack, comp = True, [start], []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
    comps.sort(key=lambda comp: rank[comp].min())
    depth = g.depths().tolist()
    order, parts, cores, warned = [], [], [], []
    for comp in comps:
        comp_set = set(comp)
        for k, indices in partition.blocks:
            block = [i for i in indices if i in comp_set]
            if not block:
                continue
            core = min(block, key=lambda i: (depth[i], rank[i]))
            walk, reached = [core], {core}
            for u in walk:
                for v in adj[u]:
                    if v in block and v not in reached:
                        reached.add(v)
                        walk.append(v)
            if len(walk) != len(block):
                warned.append(
                    f"induced subgraph of block k={k} is disconnected; "
                    "falling back to generation order"
                )
                walk = block
            parts.append((k, len(order), len(order) + len(walk)))
            cores.append(len(order) + walk.index(core))
            order.extend(walk)
    return order, tuple(parts), tuple(cores), warned


def ordering_cases():
    """Case (d) chains, a two-component set, and the same sets under random
    partitions, whose blocks are often disconnected."""
    rng = np.random.default_rng(12)
    cases = []
    for n in (3, 5, 7):
        dig = exchange_digamma(n)
        g = generate(dig, [parse_term("Y1 Z2", n)])
        cases.append((g, build_graph(g, dig)))
    n = 4
    dig = [
        PauliString.from_cells(n, {1: "X", 2: "X"}),
        PauliString.from_cells(n, {1: "Y", 2: "Y"}),
        PauliString.from_cells(n, {3: "X", 4: "X"}),
        PauliString.from_cells(n, {3: "Y", 4: "Y"}),
    ]
    g = generate(dig, [parse_term("Z1", n), parse_term("Z3", n)])
    cases.append((g, build_graph(g, dig)))
    out = []
    for g, gr in cases:
        out.append((g, gr, partition_k_finite(g)))
        for _ in range(3):
            labels = rng.integers(0, 4, size=len(g))
            blocks = tuple(
                (k, tuple(np.flatnonzero(labels == k).tolist()))
                for k in range(4)
                if (labels == k).any()
            )
            out.append((g, gr, KFinitePartition(blocks)))
    return out


@pytest.mark.parametrize("case", range(16))
def test_order_members_matches_the_per_block_walk(case):
    g, gr, partition = ordering_cases()[case]
    want_order, want_parts, want_cores, want_warned = reference_order(g, gr, partition)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ordered = order_members(g, gr, partition)
    assert [str(w.message) for w in caught] == want_warned
    assert ordered.members == tuple(g.members[i] for i in want_order)
    assert ordered.partition == want_parts and ordered.cores == want_cores
    new = {old: i for i, old in enumerate(want_order)}
    assert ordered.provenance == tuple(
        None if g.provenance[i] is None else (new[g.provenance[i][0]], g.provenance[i][1])
        for i in want_order
    )


@pytest.mark.parametrize("bad", ["missing", "repeated", "past the end", "negative"])
def test_order_members_refuses_a_partition_that_does_not_tile_the_set(bad):
    # a missing member gave a 23-member set with an uninitialised parent,
    # a repeated one a 25-member set with a duplicated row
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    gr = build_graph(g, dig)
    (k, first), *rest = partition_k_finite(g).blocks
    changed = {
        "missing": first[1:],
        "repeated": (*first, first[0]),
        "past the end": (*first[1:], 99),
        "negative": (*first[1:], -1),
    }[bad]
    partition = KFinitePartition(((k, changed), *rest))
    with pytest.raises(ValueError, match="each of the 24 members exactly once"):
        order_members(g, gr, partition)
