"""Dense full-space evolution and the truncated commutator series."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import dense_ref
from conftest import cases_fitting
from pauliaccess import (
    HamiltonianSpec,
    MeasurementSpec,
    PauliString,
    WeightedPauliSum,
    build_exchange_chain,
    build_model,
    decompose,
    decomposed_digamma,
    evolve_expectation,
    generate,
    initial_state_vector,
    parse_sum,
    parse_term,
)
from pauliaccess.closure import AccessibleSet
from pauliaccess.oracle import validate_density_matrix
from pauliaccess.pauli import DENSE_CAP


def string_of(label):
    """Package string of a dense_ref label like 'ZYI'."""
    return PauliString.from_cells(len(label), {i + 1: c for i, c in enumerate(label) if c != "I"})


def basis_ket_rho(n, bits):
    dim = 1 << n
    idx = int(bits, 2)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def test_zero_hamiltonian_constant_series():
    spec = build_exchange_chain(2, [0.0])
    meas = parse_sum("Z1", 2)
    rho = basis_ket_rho(2, "01")
    series = evolve_expectation(spec, meas, rho, [0.0, 1.0, 2.0])
    assert np.allclose(series, series[0], atol=1e-12)
    assert series[0] == pytest.approx(1.0)


def test_two_site_exchange_oscillation():
    h1 = 0.8
    spec = build_exchange_chain(2, [h1])
    meas = parse_sum("Z1", 2)
    rho = basis_ket_rho(2, "01")
    times = np.linspace(0.0, 10.0, 41)
    series = evolve_expectation(spec, meas, rho, times)
    assert np.max(np.abs(series - np.cos(4.0 * h1 * times))) < 1e-10


def test_time_zero_matches_initial_state_vector():
    spec = build_exchange_chain(3, [1.0, 0.5])
    meas_sum = parse_sum("0.5 * Z1 + 0.5 * Z2", 3)
    rho = basis_ket_rho(3, "010")
    series = evolve_expectation(spec, meas_sum, rho, [0.0])
    members = tuple(s for _, s in meas_sum.terms)
    g = AccessibleSet(3, members, tuple(None for _ in members))
    x0 = initial_state_vector(rho, g)
    coeffs = np.array([c for c, _ in meas_sum.terms])
    assert series[0] == pytest.approx(float(coeffs @ x0), abs=1e-12)


def test_cap_rejected():
    n = DENSE_CAP + 1
    spec = build_exchange_chain(n, [1.0] * (n - 1))
    with pytest.raises(ValueError):
        evolve_expectation(spec, parse_sum("Z1", n), np.eye(1 << n) / (1 << n), [0.0])


def test_evolve_expectation_matches_expm_route():
    # random Hermitian H (every string, random weight), a non-product mixed
    # rho and a weighted measurement, against Tr(M expm(-iHt) rho expm(iHt))
    n = 3
    rng = np.random.default_rng(17)
    labels = dense_ref.all_labels(n)
    coeffs = rng.normal(scale=0.4, size=len(labels))
    strings = [string_of(lab) for lab in labels]
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple(zip(coeffs.tolist(), strings))))
    h = sum(c * dense_ref.dense(lab) for c, lab in zip(coeffs, labels))
    meas = parse_sum("0.7 * Y1 Z2 + -1.3 * X3 + 0.25 * Z1 Z2 Z3", n)
    m = 0.7 * dense_ref.dense("YZI") - 1.3 * dense_ref.dense("IIX") + 0.25 * dense_ref.dense("ZZZ")
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    times = [0.0, 0.013, 0.4, 1.7, np.pi, 9.25]
    expected = []
    for t in times:
        u = scipy.linalg.expm(-1j * h * t)
        expected.append(np.trace(m @ u @ rho @ u.conj().T).real)
    series = evolve_expectation(spec, meas, rho, times)
    assert np.max(np.abs(series - expected)) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(4), 2)  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]), 2)


def test_propagator_unitary():
    spec = build_exchange_chain(4, [1.0, 0.5, 2.0])
    u = dense_ref.propagator(spec, 0.7)
    assert u.is_unitary(1e-10)
    assert u.n_qubits == 4


# ---------------------------------------------------------------------------
# truncated commutator series


def test_bch_order_zero_is_measurement():
    spec = build_exchange_chain(2, [1.0])
    m = parse_term("Z1", 2)
    op = dense_ref.bch_partial_sum(spec, m, 0, 0.5)
    assert np.array_equal(op.matrix, dense_ref.dense("ZI"))


def test_bch_order_twelve_matches_propagator():
    spec = build_exchange_chain(2, [1.0])
    m = parse_term("Z1", 2)
    t = 0.1
    truncated = dense_ref.bch_partial_sum(spec, m, 12, t).matrix
    u = dense_ref.propagator(spec, t).matrix
    exact = u.conj().T @ dense_ref.dense("ZI") @ u
    # M(t) = e^{iHt} M e^{-iHt} = U(t)^dag M U(t)
    assert np.max(np.abs(truncated - exact)) < 1e-8


def test_bch_is_hermitian_at_all_orders():
    spec = build_exchange_chain(2, [1.3])
    m = parse_term("Y1 X2", 2)
    for order in (1, 2, 5, 9):
        op = dense_ref.bch_partial_sum(spec, m, order, 0.3)
        assert op.is_hermitian(1e-10)


def test_derivatives_stay_inside_accessible_set():
    # decomposing the first 8 time derivatives never leaves the closure
    for n in (2, 3, 4):
        spec = build_exchange_chain(n, [1.0] * (n - 1))
        dig = decomposed_digamma(spec)
        for name, seed in cases_fitting(n).items():
            g = generate(dig, [seed])
            keys = g.member_keys()
            for deriv in dense_ref.derivative_operators(spec, seed, 8):
                if not deriv.any():
                    continue
                for _, s in decompose(deriv).terms:
                    assert (s.x_mask, s.z_mask) in keys, (n, name, s.to_text())


def test_reduced_matches_dense_trajectory_n3():
    # shared fixture shape for the acceptance suite, small instance here
    n = 3
    rng = np.random.default_rng(42)
    couplings = list(rng.uniform(0.5, 2.0, size=n - 1))
    spec = build_exchange_chain(n, couplings)
    dig = decomposed_digamma(spec)
    meas = MeasurementSpec.from_texts(["Z1"], n)
    g = generate(dig, list(meas.decomposed))
    model = build_model(g, spec, meas)

    kets = ["0", "1", "+"]
    from pauliaccess import simulate_reduced

    x0 = initial_state_vector(",".join(kets[:n]), g)
    times = np.linspace(0.0, 10.0, 101)
    reduced = simulate_reduced(model, x0, times).outputs[:, 0]

    ket_vectors = {
        "0": np.array([1.0, 0.0], dtype=complex),
        "1": np.array([0.0, 1.0], dtype=complex),
        "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    }
    psi = np.array([1.0 + 0j])
    for k in kets[:n]:
        psi = np.kron(psi, ket_vectors[k])
    rho = np.outer(psi, psi.conj())
    dense = evolve_expectation(spec, meas.operators[0], rho, times)
    assert np.max(np.abs(reduced - dense)) < 1e-10


# ---------------------------------------------------------------------------
# signed-permutation matrices against the kron route


def test_string_matrix_matches_kron_for_every_string():
    for n in range(1, 5):
        for lab in dense_ref.all_labels(n):
            assert np.array_equal(string_of(lab).to_matrix(), dense_ref.dense(lab)), lab


def strings_at(n):
    full = (1 << n) - 1
    return st.builds(PauliString, st.just(n), st.integers(0, full), st.integers(0, full))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, DENSE_CAP).flatmap(strings_at))
def test_string_matrix_matches_kron_up_to_the_cap(s):
    assert np.array_equal(s.to_matrix(), dense_ref.dense(dense_ref.string_label(s)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.tuples(st.floats(-10, 10), strings_at(n)),
            max_size=12,
            unique_by=lambda t: (t[1].x_mask, t[1].z_mask),
        ).map(lambda terms: WeightedPauliSum(n, tuple(terms)))
    )
)
def test_sum_matrix_matches_kron_sum(wps):
    expected = np.zeros((1 << wps.n_qubits,) * 2, dtype=complex)
    for c, s in wps.terms:
        expected += c * dense_ref.dense(dense_ref.string_label(s))
    assert np.array_equal(wps.to_matrix(), expected)


def test_chain_hamiltonian_matrix_matches_kron_sum_at_the_cap():
    n = DENSE_CAP
    spec = build_exchange_chain(n, list(np.linspace(0.5, 1.5, n - 1)))
    expected = np.zeros((1 << n,) * 2, dtype=complex)
    for c, s in spec.terms.terms:
        expected += c * dense_ref.dense(dense_ref.string_label(s))
    assert np.array_equal(spec.terms.to_matrix(), expected)


@pytest.mark.parametrize("kind", ["string", "sum"])
def test_matrix_over_the_cap_refused_before_allocating(kind):
    n = DENSE_CAP + 1
    s = parse_term("X1 Y2", n)
    op = s if kind == "string" else WeightedPauliSum(n, ((1.0, s),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            op.to_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the matrix would be 64 MB
