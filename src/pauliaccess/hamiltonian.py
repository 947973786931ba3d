"""System Hamiltonians and measurement sets, plus their basis decompositions.

The exchange-chain builder covers the workhorse model

    H = sum_k h_k (X_k X_{k+1} + Y_k Y_{k+1})

whose decomposed operator set is {X_k X_{k+1}, Y_k Y_{k+1}}.  Spec files are
JSON with schema id ``pauli-access-spec/1`` mirroring the text grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .pauli import (
    PauliString,
    WeightedPauliSum,
    canonical_digamma,
    decompose,
    format_sum,
    parse_sum,
    parse_term,
)
from .validation import json_float, json_list, json_schema, json_width

__all__ = [
    "HamiltonianSpec",
    "MeasurementSpec",
    "SCHEMA_ID",
    "parse_hamiltonian",
    "build_exchange_chain",
    "decomposed_digamma",
    "exchange_digamma",
    "hamiltonian_to_json",
    "hamiltonian_from_json",
    "measurement_to_json",
    "measurement_from_json",
]

SCHEMA_ID = "pauli-access-spec/1"


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian as a real-weighted sum of Pauli strings.

    Zero coefficients are retained: the operator structure (and with it the
    generated observable set) is independent of the numeric couplings.
    """

    n_qubits: int
    terms: WeightedPauliSum
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.terms.n_qubits != self.n_qubits:
            raise ValueError("terms width disagrees with n_qubits")
        if self.labels is not None and len(self.labels) != len(self.terms.terms):
            raise ValueError("labels length must match the number of terms")

    def format(self) -> str:
        return format_sum(self.terms)


@dataclass(frozen=True)
class MeasurementSpec:
    """Raw measurement operators plus their deduplicated basis strings.

    ``decomposed`` is the union of the operators' basis expansions in first
    appearance order; it seeds the closure.
    """

    n_qubits: int
    operators: tuple[WeightedPauliSum, ...]
    decomposed: tuple[PauliString, ...]

    @classmethod
    def from_operators(
        cls, operators: Sequence[WeightedPauliSum], n_qubits: int
    ) -> "MeasurementSpec":
        if not operators:
            raise ValueError("at least one measurement operator is required")
        if any(op.n_qubits != n_qubits for op in operators):
            raise ValueError("measurement operators disagree on qubit count")
        seen = dict.fromkeys(s for op in operators for _, s in decompose(op).terms)
        return cls(n_qubits, tuple(operators), tuple(seen))

    @classmethod
    def from_texts(cls, texts: Sequence[str], n_qubits: int) -> "MeasurementSpec":
        return cls.from_operators([parse_sum(t, n_qubits) for t in texts], n_qubits)


def parse_hamiltonian(text: str, n_qubits: int) -> HamiltonianSpec:
    """Parse operator-grammar text into a Hamiltonian spec."""
    return HamiltonianSpec(n_qubits, parse_sum(text, n_qubits))


def build_exchange_chain(
    n_qubits: int, couplings: Sequence[float]
) -> HamiltonianSpec:
    """Exchange chain without transverse field: h_k (X_k X_{k+1} + Y_k Y_{k+1})."""
    if n_qubits < 2:
        raise ValueError("a chain needs at least 2 qubits")
    if len(couplings) != n_qubits - 1:
        raise ValueError(
            f"expected {n_qubits - 1} couplings, got {len(couplings)}"
        )
    pairs = []
    labels = []
    for k, h in enumerate(couplings, 1):
        for axis in ("X", "Y"):
            pairs.append(
                (float(h), PauliString.from_cells(n_qubits, {k: axis, k + 1: axis}))
            )
            labels.append(f"h{k}")
    return HamiltonianSpec(
        n_qubits, WeightedPauliSum(n_qubits, tuple(pairs)), tuple(labels)
    )


def exchange_digamma(n_qubits: int) -> list[PauliString]:
    """Decomposed operator set of the exchange chain, canonically ordered."""
    return decomposed_digamma(build_exchange_chain(n_qubits, [1.0] * (n_qubits - 1)))


def decomposed_digamma(spec: HamiltonianSpec) -> list[PauliString]:
    """Distinct non-identity strings of all Hamiltonian terms, canonical order.

    Zero-coefficient terms still contribute their strings; only the numeric
    couplings, not the structure, vanish with them.
    """
    return canonical_digamma(spec.terms.strings())


# ---------------------------------------------------------------------------
# JSON spec files


def hamiltonian_to_json(spec: HamiltonianSpec) -> dict:
    terms = []
    for i, (c, s) in enumerate(spec.terms.terms):
        entry = {"coeff": c, "string": s.to_text()}
        if spec.labels is not None:
            entry["label"] = spec.labels[i]
        terms.append(entry)
    return {"schema": SCHEMA_ID, "n_qubits": spec.n_qubits, "terms": terms}


def hamiltonian_from_json(data: dict) -> HamiltonianSpec:
    """Rebuild a spec written by :func:`hamiltonian_to_json`.

    Malformed input (wrong types, bad operator text) raises ValueError.
    """
    json_schema(data, SCHEMA_ID, "spec")
    n = json_width(data.get("n_qubits"))
    terms = json_list(data.get("terms"), "terms", dict)
    labels = json_list([e.get("label", "") for e in terms], "term labels")
    have_labels = any("label" in e for e in terms)
    return HamiltonianSpec(
        n,
        WeightedPauliSum.merged(_weighted_strings(terms, n), n),
        tuple(labels) if have_labels else None,
    )


def measurement_to_json(meas: MeasurementSpec) -> dict:
    return {
        "schema": SCHEMA_ID,
        "n_qubits": meas.n_qubits,
        "operators": [
            [{"coeff": c, "string": s.to_text()} for c, s in op.terms]
            for op in meas.operators
        ],
    }


def measurement_from_json(data: dict) -> MeasurementSpec:
    """Rebuild a spec written by :func:`measurement_to_json`.

    Malformed input (wrong types, bad operator text) raises ValueError.
    """
    json_schema(data, SCHEMA_ID, "spec")
    n = json_width(data.get("n_qubits"))
    ops = [
        WeightedPauliSum.merged(
            _weighted_strings(json_list(op, "operator terms", dict), n), n
        )
        for op in json_list(data.get("operators"), "operators", list)
    ]
    return MeasurementSpec.from_operators(ops, n)


def _weighted_strings(terms: list[dict], n: int) -> list[tuple[float, PauliString]]:
    """The (coeff, string) pairs of spec term objects."""
    texts = json_list([e.get("string") for e in terms], "term strings")
    return [
        (json_float(e.get("coeff"), "term coeff"), parse_term(t, n))
        for e, t in zip(terms, texts)
    ]
