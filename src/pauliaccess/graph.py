"""Labeled access graphs, k-finite partitions, and member ordering.

Vertices are the members of an accessible set; an undirected edge carries
the Hamiltonian-set string whose bracket maps one endpoint to the other.
The k-finite partition groups members by their highest non-identity site,
and the final ordering walks blocks in ascending k, breadth-first from each
block's core operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .closure import AccessibleSet, ClosureError
from .pauli import (
    PauliString,
    PauliTable,
    bracket_normalized,
    label_texts,
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


@dataclass
class AccessGraph:
    """Simple undirected graph over accessible-set members.

    Edges are stored once per unordered pair (u < v), sorted by (u, v), each
    labeled by its edging string.  The adjacency matrix is derived on demand
    rather than stored.
    """

    n_qubits: int
    members: tuple[PauliString, ...]
    edges: tuple[tuple[int, int, PauliString], ...]
    _table: Optional[PauliTable] = field(default=None, repr=False, compare=False)

    def table(self) -> PauliTable:
        """The members packed as x/z words, built once on demand."""
        if self._table is None:
            self._table = PauliTable.from_strings(self.members, self.n_qubits)
        return self._table

    def neighbor_lists(self) -> list[list[int]]:
        """Adjacency lists with neighbors in canonical string order."""
        ends = np.array([(u, v) for u, v, _ in self.edges], dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((self.table().canonical_ranks()[dst], src))
        bounds = np.searchsorted(src[order], np.arange(len(self.members) + 1)).tolist()
        dst = dst[order].tolist()
        return [dst[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class KFinitePartition:
    """Accessible-set members grouped by highest non-identity site.

    ``blocks`` holds (k, member_indices) in ascending k; ``cores`` the
    per-block core member, chosen as the earliest-generated member
    (minimal provenance depth, canonical tie-break).
    """

    blocks: tuple[tuple[int, tuple[int, ...]], ...]
    cores: tuple[int, ...]


def build_graph(g: AccessibleSet, digamma: Sequence[PauliString]) -> AccessGraph:
    """Edge (m, n, nu) for every bracket of a member with nu landing on another.

    Raises :class:`ClosureError` when a bracket leaves the member set, i.e.
    the input was not a fixpoint for this digamma.  A repeated nu yields the
    same edges again and the identity none, so digamma needs no cleaning.
    """
    table = g.table()
    br = table.brackets(PauliTable.from_strings(digamma, g.n_qubits))
    outside = np.flatnonzero(br.target < 0)
    if outside.size:
        om = g.members[br.member[outside[0]]]
        nu = digamma[br.string[outside[0]]]
        raise ClosureError(
            f"bracket of {om} with {nu} lands outside the set "
            f"({phase_free_product(om, nu)}); input is not a fixpoint"
        )
    # nu is the mask XOR of its two endpoints, so both directions of an edge
    # carry the same label
    size = len(g.members)
    key = np.minimum(br.member, br.target) * size + np.maximum(br.member, br.target)
    key, first = np.unique(key, return_index=True)
    labels = [digamma[j] for j in br.string[first].tolist()]
    edges = tuple(zip((key // size).tolist(), (key % size).tolist(), labels))
    return AccessGraph(g.n_qubits, g.members, edges, table)


def adjacency_matrix(graph: AccessGraph) -> np.ndarray:
    """Symmetric boolean adjacency with zero diagonal."""
    n = len(graph.members)
    a = np.zeros((n, n), dtype=bool)
    for u, v, _ in graph.edges:
        a[u, v] = a[v, u] = True
    return a


def connected_components(graph: AccessGraph) -> list[list[int]]:
    """Vertex components, each ascending, ordered by smallest vertex."""
    return _components(graph.neighbor_lists())


def _components(adj: list[list[int]]) -> list[list[int]]:
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: AccessGraph) -> bool:
    return len(connected_components(graph)) <= 1


def partition_k_finite(g: AccessibleSet) -> KFinitePartition:
    """Group members by highest non-identity site, ascending.

    The all-identity string is rejected: it cannot arise from brackets of
    non-commuting pairs and has no defined ending site.
    """
    by_k: dict[int, list[int]] = {}
    for i, s in enumerate(g.members):
        k = s.highest_site()
        if k == 0:
            raise ValueError("the all-identity string has no k-finite block")
        by_k.setdefault(k, []).append(i)
    blocks = tuple((k, tuple(idx)) for k, idx in sorted(by_k.items()))
    core_key = _core_key(g)
    cores = tuple(min(idx, key=core_key) for _, idx in blocks)
    return KFinitePartition(blocks, cores)


def _core_key(g: AccessibleSet):
    """Sort key of the earliest-generated member: provenance depth, then
    canonical string order."""
    depth = g.depths()
    rank = g.table().canonical_ranks().tolist()
    return lambda i: (depth[i], rank[i])


def _bfs_block(
    core: int, block: Sequence[int], adj: list[list[int]]
) -> Optional[list[int]]:
    """BFS order of the block's induced subgraph from core, or None if it
    does not reach the whole block."""
    block_set = set(block)
    order = [core]
    seen = {core}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adj[u]:
            if v in block_set and v not in seen:
                seen.add(v)
                order.append(v)
    if len(order) != len(block):
        return None
    return order


def order_members(
    g: AccessibleSet, graph: AccessGraph, partition: KFinitePartition
) -> AccessibleSet:
    """Reorder: components in canonical order, blocks ascending k inside each,
    members breadth-first from the block core inside each block.

    A block whose induced subgraph is disconnected falls back to generation
    order with a warning; the ordering is otherwise independent of the input
    member permutation.
    """
    adj = graph.neighbor_lists()
    comps = _components(adj)
    rank = g.table().canonical_ranks()
    comps.sort(key=lambda comp: rank[comp].min())
    core_key = _core_key(g)

    new_order: list[int] = []
    new_partition: list[tuple[int, int, int]] = []
    new_cores: list[int] = []
    for comp in comps:
        comp_set = set(comp)
        for k, indices in partition.blocks:
            block = [i for i in indices if i in comp_set]
            if not block:
                continue
            core = min(block, key=core_key)
            ordered = _bfs_block(core, block, adj)
            if ordered is None:
                warnings.warn(
                    f"induced subgraph of block k={k} is disconnected; "
                    "falling back to generation order",
                    stacklevel=2,
                )
                ordered = list(block)
            start = len(new_order)
            new_partition.append((k, start, start + len(ordered)))
            new_cores.append(start + ordered.index(core))
            new_order.extend(ordered)

    old_to_new = {old: new for new, old in enumerate(new_order)}
    members = tuple(g.members[i] for i in new_order)
    provenance = tuple(
        None
        if g.provenance[i] is None
        else (old_to_new[g.provenance[i][0]], g.provenance[i][1])
        for i in new_order
    )
    return AccessibleSet(
        g.n_qubits,
        members,
        provenance,
        partition=tuple(new_partition),
        cores=tuple(new_cores),
    )


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
    for chain systems.
    """
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


# ---------------------------------------------------------------------------
# exports


def _blocks_as_ranges(
    partition: Union[KFinitePartition, Sequence[tuple[int, int, int]], None],
) -> Optional[list[tuple[int, list[int]]]]:
    if partition is None:
        return None
    if isinstance(partition, KFinitePartition):
        return [(k, list(idx)) for k, idx in partition.blocks]
    return [(k, list(range(a, b))) for k, a, b in partition]


def export_dot(
    graph: AccessGraph,
    partition: Union[KFinitePartition, Sequence[tuple[int, int, int]], None] = None,
) -> str:
    """Deterministic Graphviz text; blocks become clusters when given."""
    lines = ["graph access_set {"]
    if graph.members:
        lines.append("  node [shape=box];")
    texts = graph.table().texts()
    blocks = _blocks_as_ranges(partition)
    if blocks is None:
        for i, text in enumerate(texts):
            lines.append(f'  n{i} [label="{text}"];')
    else:
        for pos, (k, indices) in enumerate(blocks):
            lines.append(f"  subgraph cluster_{pos} {{")
            lines.append(f'    label="k={k}";')
            for i in indices:
                lines.append(f'    n{i} [label="{texts[i]}"];')
            lines.append("  }")
    labels = label_texts(lab for _, _, lab in graph.edges)
    for u, v, lab in graph.edges:
        lines.append(f'  n{u} -- n{v} [label="{labels[lab]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(
    graph: AccessGraph,
    partition: Union[KFinitePartition, Sequence[tuple[int, int, int]], None] = None,
) -> dict:
    blocks = _blocks_as_ranges(partition)
    labels = label_texts(lab for _, _, lab in graph.edges)
    return {
        "schema": "pauli-access-graph/1",
        "n_qubits": graph.n_qubits,
        "vertices": graph.table().texts(),
        "edges": [
            {"u": u, "v": v, "label": labels[lab]} for u, v, lab in graph.edges
        ],
        "blocks": None
        if blocks is None
        else [{"k": k, "members": idx} for k, idx in blocks],
    }
