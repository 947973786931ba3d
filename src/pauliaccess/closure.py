"""Generation of accessible observable sets by commutator closure.

``generate`` is the production rule: breadth-first bracketing of frontier
strings against the decomposed Hamiltonian set, deduplicated on bit masks so
membership never requires materializing the 4^N basis.  ``generate_reference``
re-implements the original trace-test rule densely as a small-width oracle,
and ``chain_closed_form`` emits the known alternating ladder for the exchange
chain with a single Z-prefixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .pauli import PauliString, PauliTable, parse_term

__all__ = [
    "AccessibleSet",
    "ClosureError",
    "generate",
    "generate_reference",
    "chain_closed_form",
    "accessible_set_to_json",
    "accessible_set_from_json",
    "save_accessible_set",
    "load_accessible_set",
    "REFERENCE_CAP",
]

#: widest system the dense reference rule will enumerate (4^N candidates)
REFERENCE_CAP = 4

SET_SCHEMA_ID = "pauli-access-set/1"


class ClosureError(RuntimeError):
    """Internal fixpoint violation; indicates an implementation bug."""


@dataclass
class AccessibleSet:
    """Ordered, deduplicated strings closed under bracketing with a set.

    ``provenance[i]`` is ``(parent_index, edging_string)`` for the bracket
    that first produced member i, or None for seeds.  ``partition`` and
    ``cores`` stay None until the graph stage orders the set; partition
    entries are ``(k, start, end)`` with end exclusive.
    """

    n_qubits: int
    members: tuple[PauliString, ...]
    provenance: tuple[Optional[tuple[int, PauliString]], ...]
    partition: Optional[tuple[tuple[int, int, int], ...]] = None
    cores: Optional[tuple[int, ...]] = None
    _index: Optional[dict] = field(default=None, repr=False, compare=False)
    _table: Optional[PauliTable] = field(default=None, repr=False, compare=False)
    _depths: Optional[list[int]] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def index_map(self) -> dict[tuple[int, int], int]:
        """Mask-keyed member index, built once on demand."""
        if self._index is None:
            self._index = {
                (s.x_mask, s.z_mask): i for i, s in enumerate(self.members)
            }
        return self._index

    def table(self) -> PauliTable:
        """The members packed as x/z words, built once on demand."""
        if self._table is None:
            self._table = PauliTable.from_strings(self.members, self.n_qubits)
        return self._table

    def index_of(self, s: PauliString) -> int:
        try:
            return self.index_map()[(s.x_mask, s.z_mask)]
        except KeyError:
            raise KeyError(f"{s} is not a member") from None

    def __contains__(self, s: PauliString) -> bool:
        return (s.x_mask, s.z_mask) in self.index_map()

    def member_keys(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.index_map())

    def depth(self, i: int) -> int:
        """Provenance chain length from member i back to a seed."""
        return self.depths()[i]

    def depths(self) -> list[int]:
        """Provenance chain length of every member, computed once.

        Raises ValueError when the provenance chains form a cycle.
        """
        if self._depths is None:
            on_path = -1
            depth = [-2] * len(self.members)
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
        return "\n".join(s.to_text() for s in self.members) + "\n"


def _dedupe_seeds(seeds: Sequence[PauliString]) -> list[PauliString]:
    out = {}
    for s in seeds:
        out.setdefault((s.x_mask, s.z_mask), s)
    return list(out.values())


def _canonical_digamma(digamma: Sequence[PauliString]) -> list[PauliString]:
    """Dedup, drop the inert identity, sort canonically."""
    out = {}
    for s in digamma:
        if not s.is_identity:
            out.setdefault((s.x_mask, s.z_mask), s)
    return sorted(out.values(), key=lambda s: s.sort_key())


def _check_widths(strings: Sequence[PauliString], n: int) -> None:
    for s in strings:
        if s.n_qubits != n:
            raise ValueError(
                f"string {s} acts on {s.n_qubits} qubits, expected {n}"
            )


def generate(
    digamma: Sequence[PauliString],
    seeds: Sequence[PauliString],
    threads: int = 1,
) -> AccessibleSet:
    """Minimal fixpoint containing the seeds under bracketing with digamma.

    Members are ordered by discovery: seeds first, then breadth-first in
    (frontier order x canonical digamma order).  ``threads`` is accepted for
    compatibility and has no effect: the sweep is serial, because a thread
    pool was measured slower than one thread.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    _check_widths(seeds, n)
    _check_widths(digamma, n)
    dig = _canonical_digamma(digamma)
    dig_masks = [(s.x_mask, s.z_mask) for s in dig]

    seed_list = _dedupe_seeds(seeds)
    members: list[tuple[int, int]] = []
    prov: list[Optional[tuple[int, int]]] = []
    seen: dict[tuple[int, int], int] = {}
    for s in seed_list:
        seen[(s.x_mask, s.z_mask)] = len(members)
        members.append((s.x_mask, s.z_mask))
        prov.append(None)

    cap = 1 << (2 * n)

    head = 0
    while head < len(members):
        tx, tz = members[head]
        for j, (vx, vz) in enumerate(dig_masks):
            if ((tx & vz).bit_count() ^ (tz & vx).bit_count()) & 1:
                key = (tx ^ vx, tz ^ vz)
                if key not in seen:
                    seen[key] = len(members)
                    members.append(key)
                    prov.append((head, j))
        head += 1

    if len(members) > cap:
        raise ClosureError(
            f"closure produced {len(members)} members, exceeding |Omega| = {cap}"
        )

    strings = tuple(PauliString(n, x, z) for x, z in members)
    provenance = tuple(
        None if p is None else (p[0], dig[p[1]]) for p in prov
    )
    return AccessibleSet(n, strings, provenance)


def generate_reference(
    digamma: Sequence[PauliString],
    seeds: Sequence[PauliString],
    cap: int = REFERENCE_CAP,
) -> AccessibleSet:
    """Original trace-test rule over a full basis enumeration (oracle only).

    Every candidate in the 4^N basis is tested against Tr(O^dag [tau, nu])
    with dense matrices, exactly as the iterative membership rule states.
    Member order may differ from :func:`generate`.
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    if n > cap:
        raise ValueError(f"reference rule capped at {cap} qubits, got {n}")
    _check_widths(seeds, n)
    _check_widths(digamma, n)
    dig = _canonical_digamma(digamma)

    dim = 1 << n
    omega = []
    for x in range(dim):
        for z in range(dim):
            omega.append(PauliString(n, x, z))
    omega_dense = [p.to_matrix() for p in omega]
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
            for cand, cand_dense in zip(omega, omega_dense):
                key = (cand.x_mask, cand.z_mask)
                if key in seen:
                    continue
                if abs(np.vdot(cand_dense, comm)) > 1e-9:
                    seen.add(key)
                    members.append(cand)
                    member_dense.append(cand_dense)
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


def accessible_set_to_json(g: AccessibleSet) -> dict:
    return {
        "schema": SET_SCHEMA_ID,
        "n_qubits": g.n_qubits,
        "members": [s.to_text() for s in g.members],
        "provenance": [
            {"parent": None, "edge": None}
            if p is None
            else {"parent": p[0], "edge": p[1].to_text()}
            for p in g.provenance
        ],
        "partition": None
        if g.partition is None
        else [{"k": k, "start": a, "end": b} for k, a, b in g.partition],
        "cores": None if g.cores is None else list(g.cores),
    }


def _json_int(value, what: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """An integer read from JSON, checked to lie in lo..hi (inclusive)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        span = f"{lo}..{'' if hi is None else hi}"
        raise ValueError(f"{what} must be an integer in {span}, got {value!r}")
    return value


def _json_texts(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{what} must be a list of operator texts")
    return value


def _unique_index(strings: Sequence[PauliString], what: str) -> dict[tuple[int, int], int]:
    """Mask-keyed index of distinct strings; a repeated string is an input error."""
    index: dict[tuple[int, int], int] = {}
    for i, s in enumerate(strings):
        first = index.setdefault((s.x_mask, s.z_mask), i)
        if first != i:
            raise ValueError(f"{what} {s} is listed twice (entries {first} and {i})")
    return index


def accessible_set_from_json(data: dict) -> AccessibleSet:
    """Rebuild a set written by :func:`accessible_set_to_json`.

    Malformed input (wrong types, indices out of range, repeated members)
    raises ValueError.
    """
    if not isinstance(data, dict) or data.get("schema") != SET_SCHEMA_ID:
        schema = data.get("schema") if isinstance(data, dict) else None
        raise ValueError(
            f"unsupported set schema {schema!r}, expected {SET_SCHEMA_ID!r}"
        )
    n = _json_int(data["n_qubits"], "n_qubits", lo=1)
    members = tuple(parse_term(t, n) for t in _json_texts(data["members"], "members"))
    m = len(members)
    index = _unique_index(members, "member")

    entries = data["provenance"]
    if not isinstance(entries, list) or len(entries) != m:
        raise ValueError(f"provenance must be a list of {m} entries, one per member")
    edges: dict[str, PauliString] = {}
    provenance = []
    for e in entries:
        if not isinstance(e, dict):
            raise ValueError("provenance entries must be objects with parent and edge")
        if e["parent"] is None:
            provenance.append(None)
            continue
        parent = _json_int(e["parent"], "provenance parent", hi=m - 1)
        text = e["edge"]
        if not isinstance(text, str):
            raise ValueError("provenance edge must be an operator text")
        if text not in edges:
            edges[text] = parse_term(text, n)
        provenance.append((parent, edges[text]))

    partition = data.get("partition")
    if partition is not None:
        if not isinstance(partition, list) or not all(isinstance(e, dict) for e in partition):
            raise ValueError("partition must be a list of {k, start, end} objects")
        partition = tuple(
            (
                _json_int(e["k"], "partition k", lo=1, hi=n),
                _json_int(e["start"], "partition start", hi=m),
                _json_int(e["end"], "partition end", lo=e["start"], hi=m),
            )
            for e in partition
        )
    cores = data.get("cores")
    if cores is not None:
        if not isinstance(cores, list):
            raise ValueError("cores must be a list of member indices")
        cores = tuple(_json_int(c, "core", hi=m - 1) for c in cores)
    return AccessibleSet(n, members, tuple(provenance), partition, cores, _index=index)


def save_accessible_set(g: AccessibleSet, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(accessible_set_to_json(g), indent=2) + "\n")


def load_accessible_set(path: Union[str, Path]) -> AccessibleSet:
    return accessible_set_from_json(json.loads(Path(path).read_text()))
