"""Case (d) on the exchange chain against the free-fermion oracle
(:mod:`ff_ref`), which reaches the sizes the dense oracle cannot."""

import numpy as np
import pytest

from ff_ref import KET_VECTORS, case_d_expectation
from pauliaccess import (
    MeasurementSpec,
    build_exchange_chain,
    build_graph,
    build_model,
    decomposed_digamma,
    evolve_expectation,
    generate,
    initial_state_vector,
    order_members,
    partition_k_finite,
    simulate_reduced,
)

LONG = np.linspace(0.0, 10.0, 101)
SHORT = np.linspace(0.0, 1.0, 101)


def chain_instance(n: int, seed: int):
    """Couplings in [0.5, 1.5] and one random ket per site."""
    rng = np.random.default_rng(seed)
    kets = list(KET_VECTORS)
    return list(rng.uniform(0.5, 1.5, size=n - 1)), [kets[i] for i in rng.integers(6, size=n)]


def test_oracle_matches_dense_evolution_at_n6():
    couplings, kets = chain_instance(6, 6)
    psi = np.array([1.0 + 0j])
    for ket in kets:
        psi = np.kron(psi, KET_VECTORS[ket])
    meas = MeasurementSpec.from_texts(["Y1 Z2"], 6)
    dense = evolve_expectation(
        build_exchange_chain(6, couplings), meas.operators[0], np.outer(psi, psi.conj()), LONG
    )
    assert np.abs(case_d_expectation(couplings, kets, LONG) - dense).max() <= 1e-12


@pytest.mark.parametrize("n, times", [(20, LONG), (30, SHORT)])
def test_reduced_paths_match_the_oracle(n, times):
    couplings, kets = chain_instance(n, n)
    spec = build_exchange_chain(n, couplings)
    digamma = decomposed_digamma(spec)
    meas = MeasurementSpec.from_texts(["Y1 Z2"], n)
    g = generate(digamma, list(meas.decomposed))
    ordered = order_members(g, build_graph(g, digamma), partition_k_finite(g))
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector(",".join(kets), ordered)
    want = case_d_expectation(couplings, kets, times)
    y_expm = simulate_reduced(model, x0, times, integrator="expm").outputs[:, 0]
    assert np.abs(y_expm - want).max() <= 1e-12
    # criterion 6's bound on the reduced trajectory
    y_rk4 = simulate_reduced(model, x0, times, integrator="rk4", step=1e-3).outputs[:, 0]
    assert np.abs(y_rk4 - want).max() <= 1e-8
