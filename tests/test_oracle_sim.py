"""Dense full-space evolution and the truncated commutator series."""

import contextlib
import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import dense_ref
from conftest import cases_fitting, string_of
from pauliaccess import (
    DimensionMismatchError,
    HamiltonianSpec,
    MeasurementSpec,
    PauliString,
    WeightedPauliSum,
    build_exchange_chain,
    build_model,
    decomposed_digamma,
    evolve_expectation,
    generate,
    initial_state_vector,
    parse_hamiltonian,
    parse_sum,
    parse_term,
)
from pauliaccess import oracle
from pauliaccess.cli import main
from pauliaccess.closure import AccessibleSet
from pauliaccess.hamiltonian import hamiltonian_to_json
from pauliaccess.oracle import validate_density_matrix
from pauliaccess.pauli import DENSE_CAP
from pauliaccess.statespace import BLOCH_KETS
from test_statespace import hamiltonians_and_seeds


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


# ---------------------------------------------------------------------------
# the batched oracle against the per-point kron route

SIGMAS = (dense_ref.SX, dense_ref.SY, dense_ref.SZ)


def product_rho(kets):
    """Dense product state of Bloch kets, site 1 leftmost."""
    rho = np.ones((1, 1), dtype=complex)
    for ket in kets:
        site = dense_ref.I2 + sum(b * p for b, p in zip(BLOCH_KETS[ket], SIGMAS))
        rho = np.kron(rho, site / 2)
    return rho


def mixed_rho(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def odd_y(s):
    return (s.x_mask & s.z_mask).bit_count() % 2 == 1


@st.composite
def oracle_cases(draw):
    """(spec, meas, rho, times) at N <= 4; H real (even Y count in every
    term) or complex (one odd-Y term with a nonzero weight)."""
    n = draw(st.integers(1, 4))
    real = draw(st.booleans())
    strings = st.lists(
        strings_at(n).filter(lambda s: not odd_y(s)) if real else strings_at(n),
        min_size=1,
        max_size=8,
        unique_by=lambda s: (s.x_mask, s.z_mask),
    )
    if not real:
        strings = strings.filter(lambda ss: any(map(odd_y, ss)))
    hs = draw(strings)
    weights = st.floats(-2, 2).filter(lambda c: abs(c) > 1e-3)
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple((draw(weights), s) for s in hs)))
    assert spec.terms.to_matrix().imag.any() != real
    ms = draw(st.lists(strings_at(n), min_size=1, max_size=4,
                       unique_by=lambda s: (s.x_mask, s.z_mask)))
    meas = ms[0] if len(ms) == 1 else WeightedPauliSum(
        n, tuple((draw(st.floats(-2, 2)), s) for s in ms)
    )
    if draw(st.booleans()):
        rho = product_rho(draw(st.lists(st.sampled_from(sorted(BLOCH_KETS)),
                                        min_size=n, max_size=n)))
    else:
        rho = mixed_rho(n, draw(st.integers(0, 2**32 - 1)))
    times = draw(st.lists(st.floats(0, 5), max_size=12))
    return spec, meas, rho, times


@settings(max_examples=80, derandomize=True, deadline=None)
@given(oracle_cases())
def test_evolve_expectation_matches_per_point_kron_route(case):
    spec, meas, rho, times = case
    with pytest.MonkeyPatch.context() as mp:
        # chunks of 3 time points, so a grid of 4 or more crosses a boundary
        mp.setattr(oracle, "_CHUNK_CELLS", 3 << spec.n_qubits)
        got = evolve_expectation(spec, meas, rho, times)
    expected = dense_ref.evolve_per_point(spec, meas, rho, times)
    assert got.shape == (len(times),)
    assert np.max(np.abs(got - expected), initial=0.0) < 1e-12


def test_evolve_expectation_grid_across_the_default_chunk():
    n = 4
    spec = build_exchange_chain(n, [0.9, 1.2, 0.7])
    meas = parse_sum("0.5 * Y1 Z2 + 0.5 * X3", n)
    rho = product_rho(["i+", "0", "+", "1"])
    step = oracle._CHUNK_CELLS >> n
    times = np.linspace(0.0, 10.0, step + 5)
    got = evolve_expectation(spec, meas, rho, times)
    expected = dense_ref.evolve_per_point(spec, meas, rho, times)
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("times", [[], [0.7]], ids=["none", "one"])
def test_evolve_expectation_no_or_one_time_point(times):
    spec = build_exchange_chain(3, [1.0, 0.5])
    meas = parse_sum("Y1 Z2", 3)
    rho = product_rho(["i+", "0", "+"])
    got = evolve_expectation(spec, meas, rho, times)
    assert got.shape == (len(times),)
    assert np.allclose(got, dense_ref.evolve_per_point(spec, meas, rho, times), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "terms, dtype",
    [("X1 X2 + Y1 Y2 + 0.3 * Z1", np.float64), ("X1 X2 + 0.4 * Y1 + Y1 Z2", np.complex128)],
    ids=["real", "complex"],
)
def test_evolve_expectation_diagonalises_in_the_dtype_of_h(terms, dtype):
    spec = parse_hamiltonian(terms, 2)
    meas = parse_sum("Z1", 2)
    rho = product_rho(["+", "i-"])
    seen = []
    eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: seen.append(a.dtype) or eigh(a))
        got = evolve_expectation(spec, meas, rho, [0.0, 0.4, 1.3])
    assert seen and all(d == dtype for d in seen)
    expected = dense_ref.evolve_per_point(spec, meas, rho, [0.0, 0.4, 1.3])
    assert np.max(np.abs(got - expected)) < 1e-12


def chain_and_heisenberg_instances():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        spec = build_exchange_chain(n, list(rng.uniform(0.5, 1.5, size=n - 1)))
        for name, seed in cases_fitting(n).items():
            yield f"chain n={n} case {name}", spec, seed
    for n in range(3, 6):
        js = rng.uniform(0.5, 1.5, size=n - 1)
        text = " + ".join(f"{j}*{a}{k} {a}{k + 1}" for k, j in enumerate(js, 1) for a in "XYZ")
        yield f"heisenberg n={n}", parse_hamiltonian(text, n), parse_term("Z1", n)


def test_evolve_expectation_matches_per_point_on_chain_and_heisenberg():
    rng = np.random.default_rng(8)
    times = np.linspace(0.0, 10.0, 101)
    for label, spec, meas in chain_and_heisenberg_instances():
        kets = [str(k) for k in rng.choice(sorted(BLOCH_KETS), size=spec.n_qubits)]
        rho = product_rho(kets)
        got = evolve_expectation(spec, meas, rho, times)
        expected = dense_ref.evolve_per_point(spec, meas, rho, times)
        assert np.max(np.abs(got - expected)) < 1e-12, label


#: Hamiltonians by the blocks of their nonzero pattern: the term on sites
#: k, k + 1 with coupling j, the term on site k with field g, and the
#: expected block sizes at width n
BLOCK_KINDS = {
    # hopping and Z fields keep the excitation number: blocks of C(n, k)
    "exchange with fields": (
        lambda j, k: f"{j}*X{k} X{k + 1} + {j}*Y{k} Y{k + 1}",
        lambda g, k: f"{g}*Z{k}",
        lambda n: [math.comb(n, k) for k in range(n + 1)],
    ),
    # XX and YY of unequal weight keep only the parity: two equal blocks
    "anisotropic XY": (
        lambda j, k: f"{j}*X{k} X{k + 1} + {j / 3}*Y{k} Y{k + 1}",
        lambda g, k: f"{g}*Z{k}",
        lambda n: [1 << (n - 1)] * 2,
    ),
    "diagonal": (
        lambda j, k: f"{j}*Z{k} Z{k + 1}",
        lambda g, k: f"{g}*Z{k}",
        lambda n: [1] * (1 << n),
    ),
    # a transverse field joins every basis state
    "connected": (
        lambda j, k: f"{j}*Z{k} Z{k + 1}",
        lambda g, k: f"{g}*X{k}",
        lambda n: [1 << n],
    ),
    # the antisymmetric exchange X Y - Y X is imaginary and keeps the
    # excitation number
    "complex with blocks": (
        lambda j, k: f"{j}*X{k} Y{k + 1} + {-j}*Y{k} X{k + 1}",
        lambda g, k: f"{g}*Z{k}",
        lambda n: [math.comb(n, k) for k in range(n + 1)],
    ),
}


@st.composite
def block_cases(draw):
    """(kind, spec, meas, rho, times) at N <= 5 on a Hamiltonian of each
    block structure.  The measurement's matrix is real (no odd-Y string),
    imaginary (odd-Y strings only) or both, and spans several blocks; rho is
    real or complex (a density matrix has a real diagonal, so the part that
    may be all zero is its imaginary one)."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(sorted(BLOCK_KINDS)))
    weights = st.floats(0.2, 1.5)
    pair, site, _ = BLOCK_KINDS[kind]
    terms = [pair(draw(weights), k) for k in range(1, n)]
    terms += [site(draw(weights), k) for k in range(1, n + 1)]
    spec = parse_hamiltonian(" + ".join(terms), n)
    part = draw(st.sampled_from(["real", "imaginary", "both"]))
    picked = {"real": lambda s: not odd_y(s), "imaginary": odd_y, "both": lambda s: True}[part]
    ms = draw(st.lists(strings_at(n).filter(picked), min_size=1, max_size=3,
                       unique_by=lambda s: (s.x_mask, s.z_mask)))
    if part == "both":
        ms = [PauliString.from_text("Y1", n), PauliString.from_text("X1", n), *ms[:1]]
        ms = list(dict.fromkeys(ms))
    meas = WeightedPauliSum(n, tuple((draw(weights), s) for s in ms))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rho = mixed_rho(n, seed)
    else:
        a = np.random.default_rng(seed).normal(size=(1 << n, 1 << n))
        rho = a @ a.T / np.trace(a @ a.T)
    times = draw(st.lists(st.floats(0, 5), max_size=12))
    return kind, spec, meas, rho, times


@settings(max_examples=80, derandomize=True, deadline=None)
@given(block_cases())
def test_block_oracle_matches_per_point_kron_route(case):
    kind, spec, meas, rho, times = case
    h = spec.terms.to_matrix()
    _, runs = oracle._blocks(h.real if not h.imag.any() else h)
    sizes = [size for size, count in runs for _ in range(count)]
    assert sorted(sizes) == sorted(BLOCK_KINDS[kind][2](spec.n_qubits))
    got = evolve_expectation(spec, meas, rho, times)
    expected = dense_ref.evolve_per_point(spec, meas, rho, times)
    assert got.shape == (len(times),)
    assert np.max(np.abs(got - expected), initial=0.0) < 1e-12


def test_block_oracle_all_z_closed_form():
    # every basis state is its own block; <X1>(t) from |+>|0...> precesses
    # at twice the field on site 1
    n, field = 6, 0.7
    spec = parse_hamiltonian(" + ".join([f"{field}*Z1"] + [f"0.3*Z{k}" for k in range(2, n + 1)]), n)
    rho = product_rho(["+"] + ["0"] * (n - 1))
    times = np.linspace(0.0, 10.0, 51)
    got = evolve_expectation(spec, parse_sum("X1", n), rho, times)
    assert np.max(np.abs(got - np.cos(2 * field * times))) < 1e-12


def test_evolve_expectation_refuses_a_measurement_of_another_width():
    spec = build_exchange_chain(3, [1.0, 0.5])
    rho = basis_ket_rho(3, "010")
    with pytest.raises(DimensionMismatchError, match="2 qubits.*3"):
        evolve_expectation(spec, parse_sum("Z1", 2), rho, [0.0])


@pytest.mark.parametrize(
    "times",
    [[0.0, float("nan")], [float("inf")], [[0.0, 1.0], [2.0, 3.0]], 1.0, ["a"], [1j]],
    ids=["nan", "inf", "2-d", "scalar", "text", "complex"],
)
def test_evolve_expectation_refuses_bad_times(times):
    spec = build_exchange_chain(2, [1.0])
    with pytest.raises(ValueError, match="1-D sequence of finite numbers"):
        evolve_expectation(spec, parse_sum("Z1", 2), basis_ket_rho(2, "01"), times)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace is not 1"):
        validate_density_matrix(np.eye(4), 2)  # trace 2
    with pytest.raises(ValueError, match="not positive semidefinite"):
        validate_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]), 2)
    with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(4, 4\)"):
        validate_density_matrix(np.eye(2) / 2, 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix([[0.5, 0.5j], [0.5j, 0.5]], 1)
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix([[0.5, 0.1], [0.2, 0.5]], 1)


@pytest.mark.parametrize(
    "rho",
    [
        [[0.5, np.inf], [np.inf, 0.5]],
        [[np.inf, 0.0], [0.0, -np.inf]],
        [[0.5, 0.5], [0.5, np.nan]],
        [[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]],
    ],
    ids=["inf off the diagonal", "inf on the diagonal", "nan", "imaginary inf"],
)
def test_density_matrix_with_a_non_finite_entry_refused(rho):
    with pytest.raises(ValueError, match="not a finite number"):
        validate_density_matrix(np.array(rho), 1)


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.full((2, 2), 1e308), "trace is not 1"),  # the trace overflows
        ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian"),  # rho - rho^T overflows
        ([[0.5, 1e308j], [-1e308j, 0.5]], "not positive semidefinite"),
    ],
    ids=["trace", "hermitian", "psd"],
)
def test_density_matrix_near_the_float_limit_refused_without_warning(rho, message):
    # RuntimeWarning is an error in this suite, so an overflow would fail here
    with pytest.raises(ValueError, match=message):
        validate_density_matrix(np.array(rho), 1)


def random_unitary(rng, dim, real):
    """A random orthogonal (real) or unitary matrix, by QR of a Gaussian one."""
    g = rng.normal(size=(dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def density_with_spectrum(rng, eigenvalues, real):
    u = random_unitary(rng, len(eigenvalues), real)
    rho = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (rho + rho.conj().T) / 2


def pure_rho(psi):
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize(
    "rho",
    [
        pure_rho([1, 0, 0, 0]),
        pure_rho([1, 1, 1, -1]),
        pure_rho([1, 1j, -1j, 2]),
        product_rho(["i+", "1"]),
        np.eye(4) / 4,
        np.diag([0.7, 0.3, 0.0, 0.0]),
        density_with_spectrum(np.random.default_rng(3), [0.5, 0.3, 0.2, 0.0], real=True),
        density_with_spectrum(np.random.default_rng(4), [0.4, 0.3, 0.2, 0.1], real=False),
        density_with_spectrum(np.random.default_rng(5), [1.0, 0.0, 0.0, 0.0], real=False),
    ],
    ids=[
        "pure basis", "pure real", "pure complex", "pure product", "maximally mixed",
        "mixed diagonal", "mixed real rank 3", "mixed complex", "pure rotated complex",
    ],
)
def test_density_matrix_states_accepted(rho):
    got = validate_density_matrix(rho, 2)
    assert got.dtype == np.complex128
    assert np.array_equal(got, np.asarray(rho, dtype=complex))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [2, 16, 256])
def test_density_matrix_psd_threshold(real, dim):
    rng = np.random.default_rng(dim)
    for lam_min, accepted in ((-2e-10, False), (-5e-11, True)):
        rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - lam_min)
        rho = density_with_spectrum(rng, [lam_min, *rest], real)
        assert np.linalg.eigvalsh(rho).min() == pytest.approx(lam_min, abs=1e-13)
        if accepted:
            validate_density_matrix(rho, dim.bit_length() - 1)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                validate_density_matrix(rho, dim.bit_length() - 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    offset=st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0)),
)
def test_density_matrix_psd_rule_agrees_with_eigenvalues(n, seed, real, offset):
    # the rule before the Cholesky test: lambda_min >= -1e-10 by eigvalsh;
    # the two may differ only at rounding distance from the threshold
    rng = np.random.default_rng(seed)
    dim = 1 << n
    lam_min = min(-1e-10 + offset, 1.0 / dim)
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - lam_min)
    rho = density_with_spectrum(rng, [lam_min, *rest], real)
    lam = np.linalg.eigvalsh(rho).min()
    assume(abs(lam + 1e-10) > 1e-12)
    try:
        validate_density_matrix(rho, n)
        accepted = True
    except ValueError as exc:
        assert "not positive semidefinite" in str(exc)
        accepted = False
    assert accepted == (lam >= -1e-10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    offset=st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0)),
)
def test_density_matrix_psd_check_agrees_with_numpy_cholesky(n, seed, real, offset):
    # the reference is the rule as numpy states it: a Cholesky factor of
    # rho + 1e-10 I exists; the check must give its verdict at dims 2-1024
    rng = np.random.default_rng(seed)
    dim = 1 << n
    lam_min = min(-1e-10 + offset, 1.0 / dim)
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - lam_min)
    rho = density_with_spectrum(rng, [lam_min, *rest], real)
    assume(abs(np.linalg.eigvalsh(rho).min() + 1e-10) >= 1e-12)
    try:
        np.linalg.cholesky((rho.real if real else rho) + 1e-10 * np.eye(dim))
        expected = True
    except np.linalg.LinAlgError:
        expected = False
    try:
        validate_density_matrix(rho, n)
        accepted = True
    except ValueError as exc:
        assert "not positive semidefinite" in str(exc)
        accepted = False
    assert accepted == expected


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_density_matrix_hermitian_up_to_the_tolerance(real):
    # an inexactly Hermitian rho is judged by np.allclose(rho, rho^dag,
    # atol=1e-10) and its default rtol of 1e-5
    rho = density_with_spectrum(np.random.default_rng(6), [0.4, 0.3, 0.2, 0.1], real)
    for skew, accepted in ((1e-12, True), (1e-4, False)):
        bent = rho.copy()
        bent[0, 1] += skew
        assert not np.array_equal(bent, bent.conj().T)
        if accepted:
            assert np.array_equal(validate_density_matrix(bent, 2), bent.astype(complex))
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                validate_density_matrix(bent, 2)


#: (size, count) runs of a block-diagonal V on 9 basis states
ROTATION_RUNS = ((1, 2), (2, 2), (3, 1))


def block_stacks(rng, real):
    return [
        np.stack([random_unitary(rng, size, real) for _ in range(count)])
        for size, count in ROTATION_RUNS
    ]


@pytest.mark.parametrize("part", ["real", "imaginary", "complex", "zero"])
def test_rotate_real_matches_the_full_product(part):
    rng = np.random.default_rng(11)
    order = rng.permutation(9)
    vs = block_stacks(rng, real=True)
    v = scipy.linalg.block_diag(*(block for stack in vs for block in stack))
    re, im = rng.normal(size=(2, 9, 9))
    a = {"real": re + 0j, "imaginary": 1j * im, "complex": re + 1j * im, "zero": 0j * re}[part]
    got = oracle._rotate(order, vs, a)
    assert np.allclose(got, v.T @ a[np.ix_(order, order)] @ v, rtol=0, atol=1e-12)
    assert got.dtype == (np.float64 if part in ("real", "zero") else np.complex128)


def test_rotate_complex_blocks_matches_the_full_product():
    rng = np.random.default_rng(12)
    order = rng.permutation(9)
    vs = block_stacks(rng, real=False)
    v = scipy.linalg.block_diag(*(block for stack in vs for block in stack))
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    got = oracle._rotate(order, vs, a)
    assert np.allclose(got, v.conj().T @ a[np.ix_(order, order)] @ v, rtol=0, atol=1e-12)


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
    # projecting the first 8 time derivatives never leaves the closure
    for n in (2, 3, 4):
        spec = build_exchange_chain(n, [1.0] * (n - 1))
        dig = decomposed_digamma(spec)
        for name, seed in cases_fitting(n).items():
            g = generate(dig, [seed])
            labels = {dense_ref.string_label(s) for s in g.members}
            for deriv in dense_ref.derivative_operators(spec, seed, 8):
                for lab in dense_ref.project(deriv, n):
                    assert lab in labels, (n, name, lab)


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


# ---------------------------------------------------------------------------
# the CLI pipeline against the dense oracle on random Hamiltonians


@pytest.mark.filterwarnings("ignore:induced subgraph")  # a random H may leave a block apart
@settings(max_examples=100, deadline=None)
@given(hamiltonians_and_seeds(max_n=5), st.data())
def test_cli_trajectory_matches_dense_oracle_on_random_hamiltonians(case, data):
    # gen, model and simulate --integrator expm, in process, against full
    # Hilbert-space evolution to criterion 6's bound
    terms, seed = case
    assume(set(seed) != {"I"})
    n = len(seed)
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple((c, string_of(lab)) for c, lab in terms)))
    meas = string_of(seed)
    kets = data.draw(st.lists(st.sampled_from(sorted(BLOCH_KETS)), min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, set_path, model_path, csv_path = (
            str(Path(tmp) / name) for name in ("spec.json", "set.json", "model.json", "traj.csv")
        )
        Path(spec_path).write_text(json.dumps(hamiltonian_to_json(spec)))
        source = ("--hamiltonian", spec_path, "--measurement", meas.to_text())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *source, "--out", set_path]) == 0
            assert main(["model", "--set", set_path, *source, "--out", model_path]) == 0
            # the kets in the plain --rho0 VALUE form, "-" first included
            assert main([
                "simulate", "--model", model_path, "--rho0", ",".join(kets),
                "--integrator", "expm", "--times", "0:10:0.1", "--out", csv_path,
            ]) == 0
        with open(csv_path) as f:
            rows = list(csv.DictReader(f))
    times = [float(row["t"]) for row in rows]
    got = np.array([float(row["y_1"]) for row in rows])
    expected = evolve_expectation(spec, meas, product_rho(kets), times)
    assert len(times) == 101
    assert np.max(np.abs(got - expected)) < 1e-8
