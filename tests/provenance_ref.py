"""Reference provenance code: the per-member Python loops over
``(parent, edging string)`` tuples that the parent and label arrays
replaced.  The set writer's per-entry reference is ``payload_ref.set_dict``.
"""

from pauliaccess.pauli import parse_term


def depths(provenance) -> list[int]:
    """Chain length of every member; ValueError on a cycle, naming the first
    member met twice on the chain of the first member that reaches no seed."""
    on_path = -1
    depth = [-2] * len(provenance)
    for start in range(len(depth)):
        path, i = [], start
        while depth[i] < 0:
            if depth[i] == on_path:
                raise ValueError(f"provenance of member {i} forms a cycle")
            if provenance[i] is None:
                depth[i] = 0
                break
            depth[i] = on_path
            path.append(i)
            i = provenance[i][0]
        for d, j in enumerate(reversed(path), depth[i] + 1):
            depth[j] = d
    return depth


def remap(provenance, new_order) -> tuple:
    """The provenance of the members taken in ``new_order`` (new position ->
    old index), with each parent renumbered to its new position."""
    old_to_new = {old: new for new, old in enumerate(new_order)}
    old = [provenance[i] for i in new_order]
    return tuple(None if p is None else (old_to_new[p[0]], p[1]) for p in old)


def read(entries, m: int, n: int) -> tuple:
    """The provenance tuple of a set file's entries, checked entry by entry."""
    parents = [o["parent"] for o in entries]
    edge_texts = [o["edge"] for o in entries]
    edges = {}
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
    return tuple(provenance)
