"""Labeled access graphs, k-finite partitions, and member ordering.

Vertices are the members of an accessible set; an undirected edge carries
the Hamiltonian-set string whose bracket maps one endpoint to the other.
The k-finite partition groups members by their highest non-identity site,
and the final ordering walks blocks in ascending k, breadth-first from each
block's core operator.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ._fixedwidth import (
    dump_json, index_table, join_rows, json_rows, json_texts, string_table, text_table,
)
from .closure import AccessibleSet, SetMismatchError, _regenerates
from .pauli import (
    PauliString,
    PauliTable,
    check_widths,
    phase_free_product,
)

__all__ = [
    "AccessGraph",
    "KFinitePartition",
    "BlockRegenerationReport",
    "build_graph",
    "adjacency_matrix",
    "is_connected",
    "connected_components",
    "partition_k_finite",
    "order_members",
    "verify_block_regeneration",
    "export_dot",
    "graph_to_json",
]


@dataclass(eq=False)
class AccessGraph:
    """Simple undirected graph over accessible-set members.

    ``table`` holds the members packed, one vertex per row.  Edge e joins
    ``ends[e] = (u, v)``, u < v, and is labeled by its edging string
    ``nu = digamma[label_index[e]]``, with [nu, O_u] = i * sign[e] * O_v
    and sign[e] = +/-2 (None in a graph not from :func:`build_graph`);
    edges are stored once per unordered pair, sorted by (u, v).  The
    ``edges`` triplets and the adjacency matrix are derived on demand.
    """

    n_qubits: int
    table: PauliTable = field(repr=False)
    ends: np.ndarray = field(repr=False)
    label_index: np.ndarray = field(repr=False)
    digamma: tuple[PauliString, ...] = field(repr=False)
    sign: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.table)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, PauliString], ...]:
        """(u, v, label) per edge, sorted by (u, v)."""
        labels = [self.digamma[j] for j in self.label_index.tolist()]
        return tuple(zip(*self.ends.T.tolist(), labels))

    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as CSR arrays: vertex u's neighbors, in canonical
        string order, are ``indices[indptr[u]:indptr[u + 1]]``."""
        src = np.concatenate([self.ends[:, 0], self.ends[:, 1]])
        dst = np.concatenate([self.ends[:, 1], self.ends[:, 0]])
        # one key per (source, neighbor rank) pair: sorted by source, then rank
        order = np.argsort(src * len(self) + self.table.canonical_ranks()[dst])
        return np.searchsorted(src[order], np.arange(len(self) + 1)), dst[order]


@dataclass(frozen=True)
class KFinitePartition:
    """Accessible-set members grouped by highest non-identity site.

    ``blocks`` holds (k, member_indices) in ascending k.  Each block's core
    is chosen when the members are ordered (:func:`order_members`).
    """

    blocks: tuple[tuple[int, tuple[int, ...]], ...]


def build_graph(g: AccessibleSet, digamma: Sequence[PauliString]) -> AccessGraph:
    """Edge (m, n, nu) for every bracket of a member with nu landing on another.

    The one bracket sweep, which the model's A is read off.  Raises
    :class:`~pauliaccess.closure.SetMismatchError` when a bracket leaves the
    member set, i.e. the input was not a fixpoint for this digamma.  A
    repeated nu yields the same edges again and the identity none.
    """
    table = g.table()
    br = table.brackets(PauliTable.from_strings(digamma, g.n_qubits))
    outside = np.flatnonzero(br.target < 0)
    if outside.size:
        om = table.string(br.member[outside[0]])
        nu = digamma[br.string[outside[0]]]
        raise SetMismatchError(
            f"bracket of {om} with {nu} lands outside the set "
            f"({phase_free_product(om, nu)}); input is not a fixpoint"
        )
    # nu is the mask XOR of its two endpoints, so an edge is swept once from
    # each end with the same label: keep the sweeps from the lower end, and
    # of a repeated nu the first
    up = np.flatnonzero(br.member < br.target)
    key = br.member[up] * len(g) + br.target[up]
    order = np.argsort(key, kind="stable")
    pick = up[order[np.diff(key[order], prepend=-1) != 0]]
    ends = np.stack((br.member[pick], br.target[pick]), axis=1)
    return AccessGraph(g.n_qubits, table, ends, br.string[pick], tuple(digamma), br.sign[pick])


def adjacency_matrix(graph: AccessGraph) -> np.ndarray:
    """Symmetric boolean adjacency with zero diagonal."""
    n = len(graph)
    a = np.zeros((n, n), dtype=bool)
    u, v = graph.ends.T
    a[u, v] = a[v, u] = True
    return a


def connected_components(graph: AccessGraph) -> list[list[int]]:
    """Vertex components, each ascending, ordered by smallest vertex."""
    labels = _component_labels(len(graph), *graph.ends.T)
    by_label = np.argsort(labels, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(labels)).tolist()
    return [by_label[a:b] for a, b in zip([0, *bounds], bounds)]


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component number of each of n vertices joined by the edges (u[e], v[e]),
    numbered by smallest vertex."""
    # each vertex points at a smaller or equal one; a root points at itself.
    # Each round hooks the larger root of every edge onto the smaller one,
    # then follows pointers until each vertex points at its root, so every
    # component ends as one tree rooted at its smallest vertex
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while (root[root] != root).any():
            root = root[root]
    # the roots, ascending, numbered 0, 1, ...
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def is_connected(graph: AccessGraph) -> bool:
    return _component_labels(len(graph), *graph.ends.T).max(initial=0) == 0


def partition_k_finite(g: AccessibleSet) -> KFinitePartition:
    """Group members by highest non-identity site, ascending.

    The all-identity string is rejected: it cannot arise from brackets of
    non-commuting pairs and has no defined ending site.
    """
    sites = g.table().highest_sites()
    if (sites == 0).any():
        raise ValueError("the all-identity string has no k-finite block")
    by_site = np.argsort(sites, kind="stable")
    ks, starts = np.unique(sites[by_site], return_index=True)
    bounds = [*starts.tolist(), len(sites)]
    indices = by_site.tolist()
    return KFinitePartition(tuple(
        (k, tuple(indices[a:b])) for k, a, b in zip(ks.tolist(), bounds, bounds[1:])
    ))


def order_members(
    g: AccessibleSet, graph: AccessGraph, partition: KFinitePartition
) -> AccessibleSet:
    """Reorder: components in canonical order, blocks ascending k inside each,
    members breadth-first from the block core inside each block.

    A block whose induced subgraph is disconnected falls back to generation
    order with a warning; the ordering is otherwise independent of the input
    member permutation.
    """
    rank = g.table().canonical_ranks()
    labels = _component_labels(len(graph), *graph.ends.T)
    first = np.full(labels.max(initial=-1) + 1, len(g))
    np.minimum.at(first, labels, rank)
    comp_pos = np.argsort(np.argsort(first))  # components by smallest rank

    # a group is the part of one block inside one component; group ids run
    # in output order, components first, then blocks ascending k.  `slot` is
    # a member's place in the partition, which orders a fallback block.
    blocks = partition.blocks
    sizes = [len(idx) for _, idx in blocks]
    members = np.fromiter(
        chain.from_iterable(idx for _, idx in blocks), dtype=np.int64, count=sum(sizes)
    )
    n_groups = len(first) * len(blocks)
    group = np.full(len(g), -1)
    group[members] = comp_pos[labels[members]] * len(blocks) + np.repeat(
        np.arange(len(blocks)), sizes
    )
    slot = np.zeros(len(g), dtype=np.int64)
    slot[members] = np.arange(members.size)
    size = np.bincount(group[members], minlength=n_groups)

    # each group's core: least provenance depth, then canonical order
    depth = g.depths()
    by_core = members[np.lexsort((rank[members], depth[members], group[members]))]
    cores = by_core[np.flatnonzero(np.diff(group[by_core], prepend=-1))]

    visit = _bfs_within_groups(graph, group, cores)
    broken = np.bincount(group[visit >= 0], minlength=n_groups) != size
    for gid in np.flatnonzero(broken).tolist():
        warnings.warn(
            f"induced subgraph of block k={blocks[gid % len(blocks)][0]} is "
            "disconnected; falling back to generation order",
            stacklevel=2,
        )
    within = np.where(broken[group], slot, visit)
    new_order = members[np.lexsort((within[members], group[members]))]
    new_index = np.empty(len(g), dtype=np.int64)
    new_index[new_order] = np.arange(new_order.size)

    gids = np.flatnonzero(size)
    ends = np.cumsum(size[gids]).tolist()
    new_partition = tuple(
        (blocks[gid % len(blocks)][0], end - n, end)
        for gid, n, end in zip(gids.tolist(), size[gids].tolist(), ends)
    )
    parent, label, labels = g.provenance_arrays()
    # a seed's parent -1 picks the -1 appended to the new indices
    parent = np.append(new_index, -1)[parent[new_order]]
    return AccessibleSet._from_forest(
        g.n_qubits,
        g.table().take(new_order),
        (parent, label[new_order], labels),
        partition=new_partition,
        cores=tuple(new_index[cores].tolist()),
    )


def _bfs_within_groups(graph: AccessGraph, group: np.ndarray, cores: np.ndarray) -> np.ndarray:
    """Breadth-first visit number of each vertex, walking from each core over
    edges inside its group only; -1 where no walk arrives.

    All groups advance one layer per step.  A layer lists the unvisited
    neighbors of the previous layer in its order, each vertex's neighbors in
    canonical order, and keeps each vertex where it first appears: the order
    a queue gives.
    """
    indptr, indices = graph.neighbors()
    src = np.repeat(np.arange(len(graph)), np.diff(indptr))
    inside = (group[src] == group[indices]) & (group[src] >= 0)
    indptr = np.r_[0, np.cumsum(np.bincount(src[inside], minlength=len(graph)))]
    indices = indices[inside]

    visit = np.full(len(graph), -1)
    layer, count = cores, 0
    while layer.size:
        visit[layer] = np.arange(count, count + layer.size)
        count += layer.size
        starts, stops = indptr[layer], indptr[layer + 1]
        offsets = np.repeat(starts - np.r_[0, np.cumsum(stops - starts)[:-1]], stops - starts)
        nxt = indices[offsets + np.arange(offsets.size)]
        nxt = nxt[visit[nxt] < 0]
        _, first = np.unique(nxt, return_index=True)
        layer = nxt[np.sort(first)]
    return visit


@dataclass(frozen=True)
class BlockRegenerationReport:
    """Per-(block, member) outcome of regenerating a block from one member."""

    checks: tuple[tuple[int, int, bool], ...]  # (k, member_index, passed)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, _, ok in self.checks)

    def failures(self) -> list[tuple[int, int]]:
        return [(k, i) for k, i, ok in self.checks if not ok]


def verify_block_regeneration(
    g: AccessibleSet,
    partition: KFinitePartition,
    digamma: Sequence[PauliString],
) -> BlockRegenerationReport:
    """Check that each block regenerates from any of its members.

    Uses the prefix sets digamma_k (strings supported on sites <= k) and
    keeps the walk inside the block, per the block-regeneration assertion
    for chain systems.  Each block takes one walk from its first member
    (:func:`~pauliaccess.closure._regenerates`).  The bracket step is
    symmetric, so every member of a block passes when that walk covers the
    block, and none does otherwise.  The checks are listed per block, in
    member order.
    """
    n = g.n_qubits
    check_widths(digamma, n)
    keys = g.packed_keys()
    checks = []
    for k, indices in partition.blocks:
        dig_k = [nu for nu in digamma if nu.highest_site() <= k]
        _, covered = _regenerates(n, dig_k, [keys[i] for i in indices])
        checks.extend((k, i, covered) for i in indices)
    return BlockRegenerationReport(tuple(checks))


# ---------------------------------------------------------------------------
# exports


def _blocks_as_arrays(
    partition: Optional[Sequence[tuple[int, int, int]]],
) -> Optional[list[tuple[int, np.ndarray]]]:
    """(k, member indices) per ``(k, start, end)`` block, or None without a
    partition."""
    if partition is None:
        return None
    return [(k, np.arange(a, b)) for k, a, b in partition]


def export_dot(
    graph: AccessGraph,
    partition: Optional[Sequence[tuple[int, int, int]]] = None,
) -> str:
    """Deterministic Graphviz text; the ``(k, start, end)`` blocks of an
    ordered set's partition become clusters when given.

    Node and edge lines are rendered from the member texts and the edge
    arrays (:func:`~pauliaccess._fixedwidth.join_rows`).
    """
    ids = index_table(len(graph))
    texts = text_table(graph.table.texts())

    def nodes(indent: bytes, members: np.ndarray) -> bytearray:
        fields = [indent + b"n", (ids, members), b' [label="', (texts, members), b'"];\n']
        return join_rows(fields, len(members))

    text = bytearray(b"graph access_set {\n")
    if len(graph):
        text += b"  node [shape=box];\n"
    blocks = _blocks_as_arrays(partition)
    if blocks is None:
        text += nodes(b"  ", np.arange(len(graph)))
    else:
        for pos, (k, members) in enumerate(blocks):
            text += f'  subgraph cluster_{pos} {{\n    label="k={k}";\n'.encode()
            text += nodes(b"    ", members) + b"  }\n"
    labels = text_table(s.to_text() for s in graph.digamma)
    u, v = graph.ends.T
    fields = [
        b"  n", (ids, u), b" -- n", (ids, v), b' [label="', (labels, graph.label_index), b'"];\n'
    ]
    text += join_rows(fields, len(u)) + b"}\n"
    return text.decode("ascii")


def graph_to_json(
    graph: AccessGraph,
    partition: Optional[Sequence[tuple[int, int, int]]] = None,
) -> str:
    """The graph file's text: ``json.dumps(<the graph as a dict>, indent=2)``
    plus a newline, the vertices rendered from the table
    (:func:`~pauliaccess._fixedwidth.json_texts`) and the edges from the
    edge arrays (:func:`~pauliaccess._fixedwidth.json_rows`)."""
    blocks = _blocks_as_arrays(partition)
    ids = index_table(len(graph))
    u, v = graph.ends.T
    labels = string_table(s.to_text() for s in graph.digamma)
    edges = json_rows(
        [(ids, u), (ids, v), (labels, graph.label_index)], len(u), keys=("u", "v", "label")
    )
    return dump_json({
        "schema": "pauli-access-graph/1",
        "n_qubits": graph.n_qubits,
        "vertices": json_texts(graph.table),
        "edges": edges,
        "blocks": None
        if blocks is None
        else [{"k": k, "members": members.tolist()} for k, members in blocks],
    })
