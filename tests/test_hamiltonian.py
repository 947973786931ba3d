"""Hamiltonian and measurement specs, builders and JSON round-trips."""

import numpy as np
import pytest

import dense_ref
from pauliaccess import (
    MeasurementSpec,
    PauliString,
    build_exchange_chain,
    decomposed_digamma,
    parse_hamiltonian,
)
from pauliaccess.hamiltonian import (
    hamiltonian_from_json,
    hamiltonian_to_json,
    measurement_from_json,
    measurement_to_json,
)


def test_parse_exchange_link():
    spec = parse_hamiltonian("1.0 * X1 X2 + 1.0 * Y1 Y2", 2)
    assert len(spec.terms.terms) == 2
    assert {s.to_text() for s in spec.terms.strings()} == {"X1 X2", "Y1 Y2"}


def test_parse_identity_hamiltonian_has_trivial_digamma():
    spec = parse_hamiltonian("I", 3)
    nontrivial = [s for s in decomposed_digamma(spec) if not s.is_identity]
    assert nontrivial == []


def test_parse_single_weighted_term():
    spec = parse_hamiltonian("2.5 * Z1 Z5", 5)
    assert spec.terms.terms[0][0] == 2.5
    assert spec.terms.terms[0][1].cells() == {1: "Z", 5: "Z"}


def test_exchange_chain_n3():
    spec = build_exchange_chain(3, [1.0, 1.0])
    dig = decomposed_digamma(spec)
    assert {s.to_text() for s in dig} == {"X1 X2", "Y1 Y2", "X2 X3", "Y2 Y3"}


def test_exchange_chain_zero_coupling_keeps_structure():
    spec = build_exchange_chain(2, [0.0])
    assert all(c == 0.0 for c, _ in spec.terms.terms)
    assert len(decomposed_digamma(spec)) == 2


def test_exchange_chain_term_shape():
    rng = np.random.default_rng(11)
    h = rng.uniform(0.5, 2.0, size=5)
    spec = build_exchange_chain(6, h)
    assert len(spec.terms.terms) == 10
    for _, s in spec.terms.terms:
        sites = s.support()
        assert len(sites) == 2 and sites[1] == sites[0] + 1


def test_exchange_chain_rejects_bad_lengths():
    with pytest.raises(ValueError):
        build_exchange_chain(3, [1.0])
    with pytest.raises(ValueError):
        build_exchange_chain(1, [])


def test_digamma_count_and_dedup():
    for n in range(2, 8):
        spec = build_exchange_chain(n, [1.0] * (n - 1))
        assert len(decomposed_digamma(spec)) == 2 * (n - 1)
    spec = parse_hamiltonian("X1 X2 + X1 X2", 2)
    assert len(decomposed_digamma(spec)) == 1


def test_digamma_matches_dense_decomposition():
    # parsed spec agrees with projecting the summed dense matrix on the basis
    spec = parse_hamiltonian("0.7 * X1 X2 + 1.3 * Z2 Z3 + 0.2 * Y1", 3)
    summed = sum(
        c * dense_ref.dense(dense_ref.string_label(s)) for c, s in spec.terms.terms
    )
    via_dense = dense_ref.project(summed, 3)
    assert set(via_dense) == {dense_ref.string_label(s) for s in decomposed_digamma(spec)}
    assert all(abs(c.imag) < 1e-12 for c in via_dense.values())
    assert {(round(c.real, 12), lab) for lab, c in via_dense.items()} == {
        (round(c, 12), dense_ref.string_label(s)) for c, s in spec.terms.terms
    }


def test_parse_format_round_trip():
    spec = parse_hamiltonian("0.5 * X1 X2 + -1.25 * Z3", 3)
    again = parse_hamiltonian(spec.format(), 3)
    assert set(spec.terms.terms) == set(again.terms.terms)


def test_measurement_spec_decomposes_and_dedups():
    meas = MeasurementSpec.from_texts(["0.5 * Z1 + 0.5 * Z2", "Z1"], 2)
    # within one operator the expansion is canonical (Z2 sorts before Z1)
    assert [s.to_text() for s in meas.decomposed] == ["Z2", "Z1"]
    assert len(meas.operators) == 2


def test_hamiltonian_json_round_trip():
    spec = build_exchange_chain(4, [1.0, 0.5, 0.25])
    data = hamiltonian_to_json(spec)
    assert data["schema"] == "pauli-access-spec/1"
    back = hamiltonian_from_json(data)
    assert back.terms.terms == spec.terms.terms


def test_measurement_json_round_trip():
    meas = MeasurementSpec.from_texts(["Y1 Z2", "0.5 * Z1 + 0.5 * Z2"], 3)
    back = measurement_from_json(measurement_to_json(meas))
    assert [s.to_text() for s in back.decomposed] == [
        s.to_text() for s in meas.decomposed
    ]


def test_json_rejects_wrong_schema():
    with pytest.raises(ValueError):
        hamiltonian_from_json({"schema": "nope/9", "n_qubits": 2, "terms": []})
