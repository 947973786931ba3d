"""Generation of accessible observable sets by commutator closure.

``generate`` is the production rule: breadth-first bracketing of members
against the decomposed Hamiltonian set (digamma), deduplicated on one packed
int key per string, ``x | z << n``, so membership never requires
materializing the 4^N basis.  Each member carries its syndrome: bit j is set
when it anticommutes with digamma string nu_j.  The symplectic form is
bilinear over GF(2), so the child t ^ nu_j has syndrome syn(t) ^ S_j, where
row S_j is nu_j's own syndrome against digamma.  A member therefore costs
one step per string it anticommutes with (its degree), not one per string of
digamma.  The resulting set holds the keys and builds its ``PauliString``
members only when asked.  The private ``_regenerates`` takes the same
steps from one key without leaving a given set of keys.  The step is
symmetric, so that one walk tells whether every key regenerates the set.

``generate_reference`` re-implements the original trace-test rule densely as
a small-width oracle, and ``chain_closed_form`` emits the known alternating
ladder for the exchange chain with a single Z-prefixed seed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import AbstractSet, Optional, Sequence, Union

import numpy as np

from ._fixedwidth import index_table, json_rows, string_table
from .pauli import (
    PauliString,
    PauliTable,
    canonical_digamma,
    check_widths,
    parse_term,
    strings_from_keys,
)
from .validation import (
    dump_json,
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


class AccessibleSet:
    """Ordered, deduplicated strings closed under bracketing with a set.

    ``provenance[i]`` is ``(parent_index, edging_string)`` for the bracket
    that first produced member i, or None for seeds.  ``partition`` and
    ``cores`` stay None until the graph stage orders the set; partition
    entries are ``(k, start, end)`` with end exclusive.

    A set holds its members in one of two forms: a :class:`PauliTable`, or
    packed keys ``x | z << n`` (one int per member).  Members given as
    strings are packed into keys at once, and a set made by :func:`generate`
    holds keys too.  The other form, :meth:`table` or :meth:`packed_keys`,
    and the ``members`` tuple of strings are built on first access.
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
        self._table: Optional[PauliTable] = None
        self._keys: Optional[list[int]] = None
        if isinstance(members, PauliTable):
            self._table = members
        else:
            check_widths(members, n_qubits)
            self._keys = [s.x_mask | s.z_mask << n_qubits for s in members]
        self._members: Optional[tuple[PauliString, ...]] = None
        self.provenance = provenance
        self.partition = partition
        self.cores = cores
        self._key_set: Optional[set[int]] = None
        self._depths: Optional[list[int]] = None

    @classmethod
    def _from_keys(cls, n_qubits, keys, key_set, provenance) -> "AccessibleSet":
        g = cls(n_qubits, (), provenance)
        g._keys, g._key_set = keys, key_set
        return g

    @property
    def members(self) -> tuple[PauliString, ...]:
        """The members as strings, decoded once on demand."""
        if self._members is None:
            self._members = strings_from_keys(self.packed_keys(), self.n_qubits)
        return self._members

    def packed_keys(self) -> list[int]:
        """One int ``x | z << n_qubits`` per member, in member order."""
        if self._keys is None:
            self._keys = self._table.keys()
        return self._keys

    def __len__(self) -> int:
        return len(self._table if self._keys is None else self._keys)

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
        """The members packed as x/z words, built once on demand."""
        if self._table is None:
            self._table = PauliTable.from_keys(self._keys, self.n_qubits)
        return self._table

    def key_set(self) -> AbstractSet[int]:
        """The set of :meth:`packed_keys`, built once on demand (a set made
        by :func:`generate` already holds it).  Callers only read it."""
        if self._key_set is None:
            self._key_set = set(self.packed_keys())
        return self._key_set

    def __contains__(self, s: PauliString) -> bool:
        n = self.n_qubits
        if (s.x_mask | s.z_mask) >> n:
            return False
        return s.x_mask | s.z_mask << n in self.key_set()

    def member_keys(self) -> frozenset[tuple[int, int]]:
        """The set of (x_mask, z_mask) pairs of the members."""
        n = self.n_qubits
        full = (1 << n) - 1
        return frozenset((k & full, k >> n) for k in self.packed_keys())

    def depths(self) -> list[int]:
        """Provenance chain length of every member, computed once.

        Raises ValueError when the provenance chains form a cycle.
        """
        if self._depths is None:
            on_path = -1
            depth = [-2] * len(self)
            for start in range(len(depth)):
                path, i = [], start
                while depth[i] < 0:
                    if depth[i] == on_path:
                        raise ValueError(f"provenance of member {i} forms a cycle")
                    if self.provenance[i] is None:
                        depth[i] = 0
                        break
                    depth[i] = on_path
                    path.append(i)
                    i = self.provenance[i][0]
                for d, j in enumerate(reversed(path), depth[i] + 1):
                    depth[j] = d
            self._depths = depth
        return self._depths

    def to_text(self) -> str:
        """Flat format: one operator per line."""
        return "\n".join(self.table().texts()) + "\n"


def _dedupe_seeds(seeds: Sequence[PauliString]) -> list[PauliString]:
    out = {}
    for s in seeds:
        out.setdefault((s.x_mask, s.z_mask), s)
    return list(out.values())


@functools.lru_cache(maxsize=64)
def _closure_steps(n: int, masks: tuple[tuple[int, int], ...]):
    """Canonical digamma of width n, prepared for :func:`generate`.

    ``masks`` lists the raw digamma as (x, z) pairs.  Returns the syndrome
    terms ``(1 << j, dual of nu_j)``, used for the seeds, and two maps keyed
    by the lowest syndrome bit ``1 << j``: to the key of nu_j, and to
    (syndrome row S_j, nu_j).  Every call with the same arguments gets the
    same maps, so callers only read them.
    """
    dig = canonical_digamma(PauliString(n, x, z) for x, z in masks)
    # t anticommutes with nu exactly when key(t) & dual(nu) has odd popcount,
    # where key = x | z << n and dual = z | x << n
    terms = tuple((1 << j, s.z_mask | s.x_mask << n) for j, s in enumerate(dig))
    step_keys, step_rows = {}, {}
    for (bit, _), s in zip(terms, dig):
        key = s.x_mask | s.z_mask << n
        step_keys[bit] = key
        step_rows[bit] = (_syndrome(key, terms), s)
    return terms, step_keys, step_rows


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
    :func:`_closure_steps`), so many small calls share them.

    Raises ValueError when the set would grow past :data:`MAX_MEMBERS`.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    check_widths(seeds, n)
    check_widths(digamma, n)
    terms, step_keys, step_rows = _closure_steps(
        n, tuple((s.x_mask, s.z_mask) for s in digamma)
    )

    budget = MAX_MEMBERS
    keys: list[int] = []
    seen: set[int] = set()
    for s in seeds:
        key = s.x_mask | s.z_mask << n
        if key not in seen:
            seen.add(key)
            keys.append(key)
    if len(keys) > budget:
        raise ValueError(_over_budget(budget, len(keys)))
    room = budget - len(keys)
    syns = [_syndrome(key, terms) for key in keys]
    prov: list[Optional[tuple[int, PauliString]]] = [None] * len(keys)

    add, add_key, add_syn, add_prov = seen.add, keys.append, syns.append, prov.append
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
                row, nu = step_rows[low]
                add_syn(syn ^ row)
                add_prov((head, nu))

    return AccessibleSet._from_keys(n, keys, seen, tuple(prov))


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
    terms, step_keys, step_rows = _closure_steps(n, tuple((s.x_mask, s.z_mask) for s in digamma))
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

    Every candidate in the 4^N basis is tested against Tr(O^dag [tau, nu])
    with dense matrices, exactly as the iterative membership rule states.
    Member order may differ from :func:`generate`.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    if n > REFERENCE_CAP:
        raise ValueError(f"reference rule capped at {REFERENCE_CAP} qubits, got {n}")
    check_widths(seeds, n)
    check_widths(digamma, n)
    dig = canonical_digamma(digamma)

    # candidate c's matrix has one nonzero per row r, at column cols[c, r];
    # the trace test needs only those entries
    dim = 1 << n
    omega = [PauliString(n, x, z) for x in range(dim) for z in range(dim)]
    rows = np.arange(dim)
    cols = np.empty((len(omega), dim), dtype=np.intp)
    conj_vals = np.empty((len(omega), dim), dtype=complex)
    for c, p in enumerate(omega):
        dense = p.to_matrix()
        cols[c] = np.nonzero(dense)[1]
        conj_vals[c] = dense[rows, cols[c]].conj()
    dig_dense = [p.to_matrix() for p in dig]

    members = _dedupe_seeds(seeds)
    member_dense = [p.to_matrix() for p in members]
    seen = {(s.x_mask, s.z_mask) for s in members}
    prov: list[Optional[tuple[int, PauliString]]] = [None] * len(members)

    head = 0
    while head < len(members):
        tau = member_dense[head]
        for nu_idx, nu in enumerate(dig_dense):
            comm = tau @ nu - nu @ tau
            if not comm.any():
                continue
            # Tr(O^dag comm) of every candidate O at once, walked in order
            traces = (conj_vals * comm[rows, cols]).sum(axis=1)
            for c in np.flatnonzero(np.abs(traces) > 1e-9).tolist():
                cand = omega[c]
                key = (cand.x_mask, cand.z_mask)
                if key in seen:
                    continue
                seen.add(key)
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
    plus a newline, the provenance entries rendered from a parent and a
    label index per member (:func:`~pauliaccess._fixedwidth.json_rows`)."""
    m = len(g)
    # a seed's parent and edge are null: parent row m, and the None label
    pairs = [(m, None) if p is None else p for p in g.provenance]
    parents, labels = zip(*pairs) if pairs else ((), ())
    # the labels are a few digamma strings, each shared by the many members it
    # produced: key them by object, as a frozen dataclass hashes in Python,
    # and render each one once
    distinct = dict(zip(map(id, labels), labels))
    row = dict(zip(distinct, range(len(distinct))))
    edges = string_table(None if s is None else s.to_text() for s in distinct.values())
    provenance = json_rows(
        [
            (np.append(index_table(m), b"null"), np.fromiter(parents, np.int64, m)),
            (edges, np.fromiter(map(row.__getitem__, map(id, labels)), np.int64, m)),
        ],
        m,
        keys=("parent", "edge"),
    )
    return dump_json({
        "schema": SET_SCHEMA_ID,
        "n_qubits": g.n_qubits,
        "members": g.table().texts(),
        "provenance": provenance,
        "partition": None
        if g.partition is None
        else [{"k": k, "start": a, "end": b} for k, a, b in g.partition],
        "cores": None if g.cores is None else list(g.cores),
    })


def accessible_set_from_json(data: dict) -> AccessibleSet:
    """Rebuild a set written by :func:`accessible_set_to_json`.

    Malformed input (wrong types, missing fields, indices out of range,
    repeated members) raises ValueError.
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
    parents = json_column(entries, "parent", "provenance entry")
    edge_texts = json_column(entries, "edge", "provenance entry")
    # each distinct edge text is parsed once; the checks are inline, as this
    # loop runs once per member
    edges: dict[str, PauliString] = {}
    provenance = []
    for parent, text in zip(parents, edge_texts):
        if parent is None:
            provenance.append(None)
            continue
        if type(parent) is not int or not 0 <= parent < m:
            raise ValueError(
                f"provenance parent must be an integer in 0..{m - 1}, got {parent!r}"
            )
        if type(text) is not str:
            raise ValueError("provenance edge must be an operator text")
        edge = edges.get(text)
        if edge is None:
            edge = edges[text] = parse_term(text, n)
        provenance.append((parent, edge))

    partition = data.get("partition")
    if partition is not None:
        blocks = []
        for e in json_list(partition, "partition", dict):
            k, start, end = json_fields(e, ("k", "start", "end"), "partition entry")
            k = json_int(k, "partition k", lo=1, hi=n)
            start = json_int(start, "partition start", hi=m)
            blocks.append((k, start, json_int(end, "partition end", lo=start, hi=m)))
        partition = tuple(blocks)
    cores = data.get("cores")
    if cores is not None:
        if not isinstance(cores, list):
            raise ValueError("cores must be a list of member indices")
        cores = tuple(json_int(c, "core", hi=m - 1) for c in cores)
    return AccessibleSet(n, table, tuple(provenance), partition, cores)


def load_accessible_set(path: Union[str, Path]) -> AccessibleSet:
    return accessible_set_from_json(json.loads(Path(path).read_text()))
