"""Reference payloads: each built per entry as Python lists, dicts and
f-strings, then written by ``json.dumps(indent=2)``.

The writers in the package render the same text from arrays; these are the
layouts they must reproduce byte for byte.
"""

import json


def dumps(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def texts(table) -> list[str]:
    """Each row's text, through the per-string ``to_text``."""
    return [s.to_text() for s in table.strings()]


def set_dict(g) -> dict:
    return {
        "schema": "pauli-access-set/1",
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


def blocks(partition):
    """(k, member indices) per (k, start, end) block, or None."""
    if partition is None:
        return None
    return [(k, list(range(a, b))) for k, a, b in partition]


def graph_edges(graph):
    """(u, v, label text) per edge."""
    return [
        (u, v, graph.digamma[j].to_text())
        for (u, v), j in zip(graph.ends.tolist(), graph.label_index.tolist())
    ]


def graph_dict(graph, partition=None) -> dict:
    return {
        "schema": "pauli-access-graph/1",
        "n_qubits": graph.n_qubits,
        "vertices": texts(graph.table),
        "edges": [{"u": u, "v": v, "label": label} for u, v, label in graph_edges(graph)],
        "blocks": None
        if partition is None
        else [{"k": k, "members": idx} for k, idx in blocks(partition)],
    }


def dot_text(graph, partition=None) -> str:
    names = texts(graph.table)
    lines = ["graph access_set {"]
    if len(graph):
        lines.append("  node [shape=box];")
    if partition is None:
        lines += [f'  n{i} [label="{text}"];' for i, text in enumerate(names)]
    else:
        for pos, (k, idx) in enumerate(blocks(partition)):
            lines += [f"  subgraph cluster_{pos} {{", f'    label="k={k}";']
            lines += [f'    n{i} [label="{names[i]}"];' for i in idx]
            lines.append("  }")
    lines += [f'  n{u} -- n{v} [label="{label}"];' for u, v, label in graph_edges(graph)]
    return "\n".join(lines + ["}"]) + "\n"


def model_dict(model) -> dict:
    def triplets(index, values):
        return [[r, c, v] for (r, c), v in zip(index.tolist(), values.tolist())]

    return {
        "schema": "pauli-access-model/1",
        "n_qubits": model.n_qubits,
        "ordering": texts(model.table),
        "A": triplets(model.a_index, model.a_values),
        "B": [],
        "C": triplets(model.c_index, model.c_values),
        "n_outputs": model.n_outputs,
    }
