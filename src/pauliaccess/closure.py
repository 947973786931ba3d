"""Generation of accessible observable sets by commutator closure.

``generate`` is the production rule: breadth-first bracketing of members
against the decomposed Hamiltonian set (digamma), deduplicated on one packed
int key per string, ``x | z << n`` (:attr:`PauliString.key`), so membership
never requires materializing the 4^N basis.  Each member carries its
syndrome: bit j is set when it anticommutes with digamma string nu_j.  The
symplectic form is bilinear over GF(2), so the child t ^ nu_j has syndrome
syn(t) ^ S_j, where row S_j is nu_j's own syndrome against digamma.  A
member therefore costs one step per string it anticommutes with (its
degree), not one per string of digamma.  The resulting set holds one packed
table of the members and the provenance forest as arrays; it builds its
packed keys, their frozenset and its ``PauliString`` members only when
asked.  The private ``_regenerates`` takes the same steps from one key
without leaving a given set of keys.  The step is symmetric, so that one walk tells whether every
key regenerates the set.

``generate_reference`` re-implements the original trace-test rule over the
full 4^N basis, with :meth:`PauliTable.traces`, as a small-width oracle, and
``chain_closed_form`` emits the known alternating ladder for the exchange
chain with a single Z-prefixed seed.  The reference rule deduplicates the
strings themselves, as :class:`PauliString` equality is that of (n, x, z).

A set that is not closed under a given Hamiltonian, or lacks a measured
string, raises :class:`SetMismatchError` in the later stages: the inputs do
not belong together.  Its base :class:`ClosureError` marks an internal
fixpoint violation.
"""

from __future__ import annotations

import functools
import json
import operator
from itertools import compress, repeat
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ._fixedwidth import dump_json, index_table, json_rows, json_texts, string_table
from .pauli import (
    PauliString,
    PauliTable,
    canonical_digamma,
    check_widths,
    parse_term,
    strings_from_keys,
)
from .validation import (
    json_column,
    json_fields,
    json_int,
    json_list,
    json_schema,
    json_width,
    unique_rows,
)

__all__ = [
    "AccessibleSet",
    "ClosureError",
    "SetMismatchError",
    "generate",
    "generate_reference",
    "chain_closed_form",
    "accessible_set_to_json",
    "accessible_set_from_json",
    "load_accessible_set",
    "REFERENCE_CAP",
    "MAX_MEMBERS",
]

#: widest system the dense reference rule will enumerate (4^N candidates)
REFERENCE_CAP = 4

#: most members :func:`generate` builds before it gives up.  Heisenberg XXX
#: with seed Z1 closes to 4^N / 4 members: N = 11 (about 1.05 M) fits, while
#: N = 12 (about 4.2 M) would need several GB of Python objects.
MAX_MEMBERS = 2**21

SET_SCHEMA_ID = "pauli-access-set/1"


class ClosureError(RuntimeError):
    """Internal fixpoint violation; indicates an implementation bug."""


class SetMismatchError(ClosureError):
    """A given set is not closed under the given Hamiltonian, or lacks a
    measured string: the inputs do not belong together."""


class AccessibleSet:
    """Ordered, deduplicated strings closed under bracketing with a set.

    ``provenance[i]`` is ``(parent_index, edging_string)`` for the bracket
    that first produced member i, or None for seeds.  ``partition`` and
    ``cores`` stay None until the graph stage orders the set; partition
    entries are ``(k, start, end)`` with end exclusive.

    A set holds its members as one :class:`PauliTable` (:meth:`table`;
    members given as strings are packed at once) and its provenance as one
    spanning forest of the access graph, the arrays
    :meth:`provenance_arrays` returns (a given ``provenance`` tuple is
    converted at once).  The packed keys, their frozenset, the ``members``
    tuple of strings and the ``provenance`` tuple are views of those two,
    built on first access.
    """

    def __init__(
        self,
        n_qubits: int,
        members: Union[Sequence[PauliString], PauliTable],
        provenance: tuple[Optional[tuple[int, PauliString]], ...],
        partition: Optional[tuple[tuple[int, int, int], ...]] = None,
        cores: Optional[tuple[int, ...]] = None,
    ):
        self.n_qubits = n_qubits
        if not isinstance(members, PauliTable):
            members = PauliTable.from_strings(members, n_qubits)
        self._table = members
        index = {s: i for i, s in enumerate(dict.fromkeys(p[1] for p in provenance if p))}
        # (parent, label, labels): two int64 arrays and a tuple of strings
        self._forest = (
            np.array([-1 if p is None else p[0] for p in provenance], dtype=np.int64),
            np.array([-1 if p is None else index[p[1]] for p in provenance], dtype=np.int64),
            tuple(index),
        )
        self.partition = partition
        self.cores = cores
        self._keys: Optional[list[int]] = None
        self._member_keys: Optional[frozenset[int]] = None
        self._members: Optional[tuple[PauliString, ...]] = None
        self._provenance: Optional[tuple[Optional[tuple[int, PauliString]], ...]] = None
        self._depths: Optional[np.ndarray] = None

    @classmethod
    def _from_forest(
        cls, n_qubits, table, forest, partition=None, cores=None
    ) -> "AccessibleSet":
        """A set whose provenance is ``forest = (parent, label, labels)``, as
        :meth:`provenance_arrays` returns it."""
        g = cls(n_qubits, table, (), partition, cores)
        g._forest = forest
        return g

    @property
    def members(self) -> tuple[PauliString, ...]:
        """The members as strings, decoded once on demand."""
        if self._members is None:
            self._members = strings_from_keys(self.packed_keys(), self.n_qubits)
        return self._members

    @property
    def provenance(self) -> tuple[Optional[tuple[int, PauliString]], ...]:
        """``(parent_index, edging_string)`` per member, None for a seed."""
        if self._provenance is None:
            parent, label, labels = self._forest
            edges = [*labels, None]  # label -1 is a seed's
            self._provenance = tuple([
                None if p < 0 else (p, edges[j])
                for p, j in zip(parent.tolist(), label.tolist())
            ])
        return self._provenance

    def provenance_arrays(self) -> tuple[np.ndarray, np.ndarray, tuple[PauliString, ...]]:
        """``(parent, label, labels)``: the int64 parent index of each member
        and the index of its edging string in ``labels``, both -1 for a
        seed.  Callers only read them."""
        return self._forest

    def packed_keys(self) -> list[int]:
        """One int ``x | z << n_qubits`` per member, in member order."""
        if self._keys is None:
            self._keys = self._table.keys()
        return self._keys

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessibleSet):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.packed_keys() == other.packed_keys()
            and self.provenance == other.provenance
            and self.partition == other.partition
            and self.cores == other.cores
        )

    def __repr__(self) -> str:
        return f"AccessibleSet(n_qubits={self.n_qubits}, {len(self)} members)"

    def table(self) -> PauliTable:
        """The members packed as x/z words."""
        return self._table

    def member_keys(self) -> frozenset[int]:
        """The frozenset of :meth:`packed_keys`, built once on demand."""
        if self._member_keys is None:
            self._member_keys = frozenset(self.packed_keys())
        return self._member_keys

    def __contains__(self, s: PauliString) -> bool:
        return s.n_qubits == self.n_qubits and s.key in self.member_keys()

    def depths(self) -> np.ndarray:
        """Provenance chain length of every member, as int64.

        Computed once by pointer jumping: each round adds the length from a
        member's current ancestor to that ancestor's own and doubles the
        jump, so log2(members) rounds reach every seed.  Callers only read
        the array.  Raises ValueError when the provenance chains form a
        cycle, naming the first member met twice on the chain of the first
        member that reaches no seed.
        """
        if self._depths is None:
            parent = self._forest[0]
            seed = parent < 0
            up = np.where(seed, np.arange(len(parent)), parent)
            depth = (~seed).astype(np.int64)
            # depth[i] is the chain length from i to up[i]; a seed's is 0
            for _ in range(len(parent).bit_length()):
                if seed[up].all():
                    break
                depth += depth[up]
                up = up[up]
            if not seed[up].all():
                self.lineage(int(np.argmin(seed[up])))  # raises
            self._depths = depth
        return self._depths

    def lineage(self, i: int) -> list[int]:
        """Member indices along i's provenance chain, from its seed down to i.

        Raises ValueError when the chain meets a cycle, naming the first
        member it meets twice.
        """
        parent = self._forest[0]
        path, seen = [i], {i}
        while parent[path[-1]] >= 0:
            j = int(parent[path[-1]])
            if j in seen:
                raise ValueError(f"provenance of member {j} forms a cycle")
            seen.add(j)
            path.append(j)
        return path[::-1]

    def to_text(self) -> str:
        """Flat format: one operator per line."""
        return self._table.text_rows(b"", b"\n").decode("ascii")


@functools.lru_cache(maxsize=64)
def _closure_steps(n: int, digamma_keys: tuple[int, ...]):
    """Canonical digamma of width n, prepared for :func:`generate`.

    ``digamma_keys`` are the packed keys of the raw digamma, of width n, so
    a cache lookup hashes ints.  Returns the syndrome terms
    ``(1 << j, dual of nu_j)``, used for the seeds, two maps keyed by the
    lowest syndrome bit ``1 << j``: to the key of nu_j, and to (syndrome row
    S_j, j), and the canonical digamma.  Every call with the same arguments
    gets the same maps, so callers only read them.
    """
    mask = (1 << n) - 1
    dig = canonical_digamma(PauliString(n, key & mask, key >> n) for key in digamma_keys)
    # t anticommutes with nu exactly when key(t) & dual(nu) has odd popcount,
    # where key = x | z << n and dual = z | x << n
    terms = tuple((1 << j, s.z_mask | s.x_mask << n) for j, s in enumerate(dig))
    step_keys, step_rows = {}, {}
    for j, ((bit, _), s) in enumerate(zip(terms, dig)):
        step_keys[bit] = s.key
        step_rows[bit] = (_syndrome(s.key, terms), j)
    return terms, step_keys, step_rows, tuple(dig)


def _syndrome(key: int, terms) -> int:
    return sum(bit for bit, dual in terms if (key & dual).bit_count() & 1)


def generate(
    digamma: Sequence[PauliString], seeds: Sequence[PauliString]
) -> AccessibleSet:
    """Minimal fixpoint containing the seeds under bracketing with digamma.

    Members are ordered by discovery: seeds first, then breadth-first in
    (frontier order x canonical digamma order).  Each member t carries its
    syndrome over canonical digamma; its set bits, low to high, are exactly
    the strings nu_j it anticommutes with, and the child t ^ nu_j inherits
    syn(t) ^ S_j.  Work per member is thus O(degree), not O(|digamma|).
    The steps are prepared once per distinct digamma (see
    :func:`_closure_steps`), so many small calls share them.  A new
    member's provenance is two ints: its parent's index and its edging
    string's index in canonical digamma.

    Raises ValueError when the set would grow past :data:`MAX_MEMBERS`.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    check_widths(seeds, n)
    check_widths(digamma, n)
    terms, step_keys, step_rows, dig = _closure_steps(n, tuple(s.key for s in digamma))

    budget = MAX_MEMBERS
    keys = list(dict.fromkeys(s.key for s in seeds))
    seen = set(keys)
    if len(keys) > budget:
        raise ValueError(_over_budget(budget, len(keys)))
    room = budget - len(keys)
    syns = [_syndrome(key, terms) for key in keys]
    parents, labels = [-1] * len(keys), [-1] * len(keys)

    add, add_key, add_syn = seen.add, keys.append, syns.append
    add_parent, add_label = parents.append, labels.append
    # the loop also visits the members appended while it runs; most children
    # are already members, so only a new one looks up its row and label
    for head, t in enumerate(keys):
        syn = rest = syns[head]
        while rest:
            low = rest & -rest
            rest ^= low
            child = t ^ step_keys[low]
            if child not in seen:
                if not room:
                    raise ValueError(_over_budget(budget, len(keys)))
                room -= 1
                add(child)
                add_key(child)
                row, j = step_rows[low]
                add_syn(syn ^ row)
                add_parent(head)
                add_label(j)

    forest = (np.array(parents, dtype=np.int64), np.array(labels, dtype=np.int64), dig)
    return AccessibleSet._from_forest(n, PauliTable.from_keys(keys, n), forest)


def _regenerates(n: int, digamma: Sequence[PauliString], keys: Sequence[int]):
    """Walk from ``keys[0]`` by the steps of :func:`generate`, never leaving
    the distinct packed ``keys``.

    Returns ``(closed, covered)``: ``closed`` says no key the walk visits
    has a child ``t ^ nu_j`` outside ``keys``, and ``covered`` that the walk
    visits every key.  The step is symmetric, as ``t ^ nu`` anticommutes
    with nu exactly when t does; so when ``covered`` holds every key reaches
    every key, and otherwise none does.  A single key then closes to exactly
    ``keys`` when both hold.  Time is O(len(keys) x |digamma|).
    """
    terms, step_keys, step_rows, _ = _closure_steps(n, tuple(s.key for s in digamma))
    walk = list(keys[:1])
    syns = [_syndrome(t, terms) for t in walk]
    # per key, whether the walk has visited it; a child outside keys gets None
    visited = dict.fromkeys(keys, False) | dict.fromkeys(walk, True)
    closed = True
    for head, t in enumerate(walk):
        syn = rest = syns[head]
        while rest:
            low = rest & -rest
            rest ^= low
            child = t ^ step_keys[low]
            seen = visited.get(child)
            if seen is None:
                closed = False
            elif not seen:
                visited[child] = True
                walk.append(child)
                syns.append(syn ^ step_rows[low][0])
    return closed, len(walk) == len(visited)


def _over_budget(budget: int, reached: int) -> str:
    return (
        f"accessible set exceeds the member budget MAX_MEMBERS = {budget} "
        f"({reached} members reached before closing)"
    )


def generate_reference(
    digamma: Sequence[PauliString],
    seeds: Sequence[PauliString],
) -> AccessibleSet:
    """Original trace-test rule over a full basis enumeration (oracle only).

    Every candidate in the 4^N basis is tested against Tr(O^dag [tau, nu]),
    exactly as the iterative membership rule states: the commutator is a
    dense matrix, and :meth:`PauliTable.traces` takes every candidate's
    trace with it.  Member order may differ from :func:`generate`.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    if n > REFERENCE_CAP:
        raise ValueError(f"reference rule capped at {REFERENCE_CAP} qubits, got {n}")
    check_widths(seeds, n)
    check_widths(digamma, n)
    dig = canonical_digamma(digamma)

    dim = 1 << n
    omega = PauliTable.from_keys([x | z << n for x in range(dim) for z in range(dim)], n)
    candidates = omega.strings()
    dig_dense = [p.to_matrix() for p in dig]

    members = list(dict.fromkeys(seeds))
    member_dense = [p.to_matrix() for p in members]
    seen = set(members)
    prov: list[Optional[tuple[int, PauliString]]] = [None] * len(members)

    head = 0
    while head < len(members):
        tau = member_dense[head]
        for nu_idx, nu in enumerate(dig_dense):
            comm = tau @ nu - nu @ tau
            if not comm.any():
                continue
            # Tr(O^dag comm) = Tr(O comm) of every candidate O at once, as
            # Paulis are Hermitian; walked in order
            traces = omega.traces(comm)
            for c in np.flatnonzero(np.abs(traces) > 1e-9).tolist():
                cand = candidates[c]
                if cand in seen:
                    continue
                seen.add(cand)
                members.append(cand)
                member_dense.append(cand.to_matrix())
                prov.append((head, dig[nu_idx]))
        head += 1

    return AccessibleSet(n, tuple(members), tuple(prov))


def chain_closed_form(n_qubits: int, m: int, axis: str) -> AccessibleSet:
    """Accessible set of the exchange chain for the seed Z^(m-1) X_m or Y_m.

    The set is the N-member alternating ladder O_s = Z^(s-1) L_s for
    s = 1..N, where L flips between X and Y with each site and matches
    ``axis`` at the seed site m.  Bracketing extends the ladder both up and
    down the chain, so sites below m appear as well; the members are ordered
    by ending site.
    """
    axis = axis.upper()
    if axis not in ("X", "Y"):
        raise ValueError(f"axis must be X or Y, got {axis!r}")
    if not 1 <= m <= n_qubits:
        raise ValueError(f"seed site {m} outside 1..{n_qubits}")

    def letter(site: int) -> str:
        flip = (site - m) % 2
        if axis == "X":
            return "X" if flip == 0 else "Y"
        return "Y" if flip == 0 else "X"

    members = []
    for s in range(1, n_qubits + 1):
        cells = {j: "Z" for j in range(1, s)}
        cells[s] = letter(s)
        members.append(PauliString.from_cells(n_qubits, cells))

    # ladder edges: neighbors s, s+1 share Y_sY_{s+1} when O_s ends in X,
    # X_sX_{s+1} when it ends in Y
    def edge(s: int) -> PauliString:
        ax = "Y" if letter(s) == "X" else "X"
        return PauliString.from_cells(n_qubits, {s: ax, s + 1: ax})

    prov: list[Optional[tuple[int, PauliString]]] = [None] * n_qubits
    for s in range(m + 1, n_qubits + 1):
        prov[s - 1] = (s - 2, edge(s - 1))
    for s in range(m - 1, 0, -1):
        prov[s - 1] = (s, edge(s))

    return AccessibleSet(n_qubits, tuple(members), tuple(prov))


# ---------------------------------------------------------------------------
# serialization


def accessible_set_to_json(g: AccessibleSet) -> str:
    """The set file's text: ``json.dumps(<the set as a dict>, indent=2)``
    plus a newline, the member list and the provenance entries rendered
    from the packed members and the provenance arrays
    (:func:`~pauliaccess._fixedwidth.json_rows`)."""
    m = len(g)
    parent, label, labels = g.provenance_arrays()
    # a seed's parent and edge are null: index -1, the last entry of each table
    edges = string_table([*(s.to_text() for s in labels), None])
    provenance = json_rows(
        [(np.append(index_table(m), b"null"), parent), (edges, label)],
        m,
        keys=("parent", "edge"),
    )
    return dump_json({
        "schema": SET_SCHEMA_ID,
        "n_qubits": g.n_qubits,
        "members": json_texts(g.table()),
        "provenance": provenance,
        "partition": None
        if g.partition is None
        else [{"k": k, "start": a, "end": b} for k, a, b in g.partition],
        "cores": None if g.cores is None else list(g.cores),
    })


def accessible_set_from_json(data: dict) -> AccessibleSet:
    """Rebuild a set written by :func:`accessible_set_to_json`.

    Malformed input (wrong types, missing fields, indices out of range,
    repeated members, partition blocks that do not tile the members in order
    or hold a member whose highest site is not their k, cores that are not
    one member of each block) raises ValueError.
    """
    json_schema(data, SET_SCHEMA_ID, "set")
    n_qubits, texts, entries = json_fields(data, ("n_qubits", "members", "provenance"), "set")
    n = json_width(n_qubits)
    table = PauliTable.from_texts(json_list(texts, "members"), n)
    unique_rows(table, "member")
    m = len(table)

    entries = json_list(entries, "provenance", dict)
    if len(entries) != m:
        raise ValueError(f"provenance must have {m} entries, one per member")
    forest = _provenance_columns(entries, n)

    partition = data.get("partition")
    if partition is not None:
        sites, blocks, tiled = table.highest_sites(), [], 0
        for e in json_list(partition, "partition", dict):
            k, start, end = json_fields(e, ("k", "start", "end"), "partition entry")
            k = json_int(k, "partition k", lo=1, hi=n)
            # each block starts where the one before it ends, and is nonempty
            start = json_int(start, "partition start", lo=tiled, hi=tiled)
            tiled = json_int(end, "partition end", lo=start + 1, hi=m)
            if (sites[start:tiled] != k).any():
                raise ValueError(
                    f"partition block k={k} holds members {start}..{tiled - 1}, "
                    f"not all of highest site {k}"
                )
            blocks.append((k, start, tiled))
        if tiled != m:
            raise ValueError(f"partition blocks end at member {tiled}, not at {m}")
        partition = tuple(blocks)
    cores = data.get("cores")
    if cores is not None:
        if not isinstance(cores, list):
            raise ValueError("cores must be a list of member indices")
        if partition is None:
            raise ValueError("cores need a partition, one core per block")
        if len(cores) != len(partition):
            raise ValueError(f"cores must have {len(partition)} entries, one per partition block")
        cores = tuple(json_int(c, "core", lo=a, hi=b - 1) for c, (_, a, b) in zip(cores, partition))
    return AccessibleSet._from_forest(n, table, forest, partition, cores)


def _provenance_columns(entries: list[dict], n: int) -> tuple:
    """``(parent, label, labels)`` of a set file's provenance entries, as
    :meth:`AccessibleSet.provenance_arrays` holds them.

    An entry whose parent is null is a seed, whatever its edge.  Any other
    must have an integer parent in 0..m-1 and an edge that
    :func:`~pauliaccess.pauli.parse_term` reads; the first entry that has
    not is named, its parent checked before its edge.  The columns are
    checked with numpy and C-level passes over them, and each distinct edge
    text is parsed once, by :func:`~pauliaccess.pauli.parse_term`.
    """
    m = len(entries)
    parents = json_column(entries, "parent", "provenance entry")
    edge_texts = json_column(entries, "edge", "provenance entry")
    seed = np.fromiter(map(operator.is_, parents, repeat(None)), bool, m)
    # bool is an int subclass, so the types are matched exactly; the range is
    # compared on the Python ints, which may have any size
    linked = np.fromiter(map(operator.is_, map(type, parents), repeat(int)), bool, m)
    values = np.fromiter(parents, object, m)
    linked[linked] = (values[linked] >= 0) & (values[linked] < m)
    parent = np.full(m, -1, dtype=np.int64)
    parent[linked] = values[linked].astype(np.int64)

    linked &= np.fromiter(map(operator.is_, map(type, edge_texts), repeat(str)), bool, m)
    linked_texts = list(compress(edge_texts, linked.tolist()))
    texts = list(dict.fromkeys(linked_texts))
    labels = []  # None for a text that is no operator: the first entry is named below
    for text in texts:
        try:
            labels.append(parse_term(text, n))
        except ValueError:
            labels.append(None)
    parsed = np.array([s is not None for s in labels], dtype=bool)
    label = np.full(m, -1, dtype=np.int64)
    row = dict(zip(texts, range(len(texts))))
    label[linked] = np.fromiter(map(row.__getitem__, linked_texts), np.int64, len(linked_texts))
    linked[linked] = parsed[label[linked]]

    bad = np.flatnonzero(~(seed | linked))
    if bad.size:
        first, text = parents[bad[0]], edge_texts[bad[0]]
        if type(first) is not int or not 0 <= first < m:
            raise ValueError(
                f"provenance parent must be an integer in 0..{m - 1}, got {first!r}"
            )
        if type(text) is not str:
            raise ValueError("provenance edge must be an operator text")
        parse_term(text, n)  # raises: the text is one that failed above
    return parent, label, tuple(labels)


def load_accessible_set(path: Union[str, Path]) -> AccessibleSet:
    return accessible_set_from_json(json.loads(Path(path).read_text()))
