"""State-space extraction and reduced integration."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import dense_ref
from conftest import string_of
from pauliaccess import (
    AccessibleSet,
    HamiltonianSpec,
    MeasurementSpec,
    PauliString,
    WeightedPauliSum,
    adjacency_matrix,
    bracket,
    build_exchange_chain,
    build_graph,
    build_model,
    decomposed_digamma,
    exchange_digamma,
    generate,
    initial_state_vector,
    order_members,
    parse_term,
    partition_k_finite,
    simulate_reduced,
)
from pauliaccess import statespace
from pauliaccess.closure import ClosureError
from pauliaccess.statespace import (
    DENSE_DIM,
    NormDriftError,
    SimulationResult,
    SimulationUnstableError,
    model_from_json,
    model_to_json,
    trajectory_to_csv,
)

SPEC_ORDER_B2 = ("Z1", "Y1 X2", "X1 Y2", "Z2")


def set_with_order(texts, n):
    members = tuple(parse_term(t, n) for t in texts)
    return AccessibleSet(n, members, tuple(None for _ in members))


def model_case_b2(h=1.0):
    g = set_with_order(SPEC_ORDER_B2, 2)
    spec = build_exchange_chain(2, [h])
    meas = MeasurementSpec.from_texts(["Z1"], 2)
    return build_model(g, spec, meas), g


def entries(index, values):
    """(row, col, value) per nonzero of a model's index and value arrays."""
    return tuple(zip(*index.T.tolist(), values.tolist()))


def ordered_pipeline(n, seed_text, couplings=None, meas_texts=None):
    spec = build_exchange_chain(
        n, [1.0] * (n - 1) if couplings is None else couplings
    )
    dig = decomposed_digamma(spec)
    meas = MeasurementSpec.from_texts(meas_texts or [seed_text], n)
    g = generate(dig, list(meas.decomposed))
    gr = build_graph(g, dig)
    ordered = order_members(g, gr, partition_k_finite(g))
    return ordered, spec, meas, dig


def test_model_case_b2_row_entries():
    model, _ = model_case_b2()
    a = model.a_dense()
    # frozen from dense commutators i[H, O_j] expanded in the string basis
    want = np.array(
        [
            [0.0, 2.0, -2.0, 0.0],
            [-2.0, 0.0, 0.0, 2.0],
            [2.0, 0.0, 0.0, -2.0],
            [0.0, -2.0, 2.0, 0.0],
        ]
    )
    assert np.array_equal(a, want)
    assert np.array_equal(a, -a.T)


@st.composite
def hamiltonians_and_seeds(draw, max_n=4):
    """Up to five distinct terms on N <= max_n qubits, as (coeff, label)
    pairs, and a seed label.  A term is a string of any weight with Y twice
    as likely as X or Z (an odd Y count makes H complex), a long-range pair
    on the end sites, or a single-site field."""
    n = draw(st.integers(1, max_n))
    cells = st.lists(st.sampled_from("IXYYZ"), min_size=n, max_size=n).map("".join)
    field = st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")).map(
        lambda t: "I" * t[0] + t[1] + "I" * (n - 1 - t[0])
    )
    ends = st.tuples(*[st.sampled_from("XYZ")] * 2).map(lambda t: t[0] + "I" * (n - 2) + t[1])
    label = st.one_of(cells, field, ends) if n > 1 else st.one_of(cells, field)
    # far from zero, so that no bracket of H falls under project's cut-off
    coeff = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)
    terms = draw(st.lists(st.tuples(coeff, label), min_size=1, max_size=5, unique_by=lambda t: t[1]))
    return terms, draw(cells)


@settings(max_examples=100, deadline=None)
@given(hamiltonians_and_seeds())
@example(([(0.7, "XX"), (0.7, "YY")], "ZI"))  # case (b) at N = 2
def test_model_a_matches_dense_commutators(case):
    # independent route: project i[H, O_j] on the Kronecker basis and read off row j
    terms, seed = case
    n = len(seed)
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple((c, string_of(lab)) for c, lab in terms)))
    meas = MeasurementSpec.from_texts([string_of(seed).to_text()], n)
    g = generate(decomposed_digamma(spec), list(meas.decomposed))
    a = build_model(g, spec, meas).a_dense()
    h_dense = sum(c * dense_ref.dense(lab) for c, lab in terms)
    labels = [dense_ref.string_label(s) for s in g.members]
    for j, lj in enumerate(labels):
        oj = dense_ref.dense(lj)
        row = dense_ref.project(1j * (h_dense @ oj - oj @ h_dense), n)
        assert all(abs(c.imag) <= 1e-12 for c in row.values())
        got = {labels[l]: a[j, l] for l in np.flatnonzero(a[j]).tolist()}
        assert got == {
            lab: pytest.approx(c.real, abs=1e-12) for lab, c in row.items()
        }


def band_and_width(model, terms):
    """max |k(row) - k(col)| over A's nonzeros, with k a member's highest
    site, and w - 1 for w the widest term span of H."""
    sites = model.table.highest_sites()
    rows, cols = model.a_index.T
    band = int(np.abs(sites[rows] - sites[cols]).max(initial=0))
    spans = [max(s.support()) - min(s.support()) + 1 for _, s in terms if s.support()]
    return band, max(spans, default=0) - 1


@settings(max_examples=100, deadline=None)
@given(hamiltonians_and_seeds(max_n=6))
@example(([(0.4, "XIIIIZ"), (1.1, "IYYIII")], "ZIIIII"))  # a long-range pair
def test_model_a_stays_inside_the_block_band(case):
    terms, seed = case
    n = len(seed)
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple((c, string_of(lab)) for c, lab in terms)))
    meas = MeasurementSpec.from_texts([string_of(seed).to_text()], n)
    g = generate(decomposed_digamma(spec), list(meas.decomposed))
    model = build_model(g, spec, meas)
    band, bound = band_and_width(model, spec.terms.terms)
    assert band <= bound or not len(model.a_values)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "f"])
def test_chain_a_is_block_tridiagonal(n, case, chain_cases):
    # w = 2 on the chain: every block touches its neighbours, and no further
    spec = build_exchange_chain(n, [0.5 + 0.1 * j for j in range(n - 1)])
    meas = MeasurementSpec.from_texts([chain_cases[case][0]], n)
    g = generate(decomposed_digamma(spec), list(meas.decomposed))
    ordered = order_members(g, build_graph(g, decomposed_digamma(spec)), partition_k_finite(g))
    assert band_and_width(build_model(ordered, spec, meas), spec.terms.terms) == (1, 1)


def test_a_outside_the_block_band_is_an_internal_error():
    model, g = model_case_b2()
    table = g.table()  # highest sites 1, 2, 2, 2
    terms = [PauliString.from_text("X1", 2)]  # w = 1: no entry may join two blocks
    with pytest.raises(ClosureError, match="widest term span 1"):
        statespace._check_band(table, model.a_index, terms)


def test_model_zero_couplings_give_zero_a():
    model, _ = model_case_b2(h=0.0)
    assert model.a_entries == ()
    assert entries(model.c_index, model.c_values) == ((0, 0, 1.0),)


def test_model_c_places_decomposition_coefficients():
    g = set_with_order(SPEC_ORDER_B2, 2)
    spec = build_exchange_chain(2, [1.0])
    meas = MeasurementSpec.from_texts(["0.5 * Z1 + 0.5 * Z2"], 2)
    model = build_model(g, spec, meas)
    c = np.zeros((model.n_outputs, model.dim))
    c[model.c_index[:, 0], model.c_index[:, 1]] = model.c_values
    assert np.array_equal(c, np.array([[0.5, 0.0, 0.0, 0.5]]))


def test_model_rejects_measurement_outside_set():
    g = set_with_order(("Z1",), 2)
    spec = build_exchange_chain(2, [0.0])
    meas = MeasurementSpec.from_texts(["X1"], 2)
    with pytest.raises(ClosureError):
        build_model(g, spec, meas)


def test_model_rejects_non_fixpoint():
    g = set_with_order(("Z1",), 2)
    spec = build_exchange_chain(2, [1.0])
    meas = MeasurementSpec.from_texts(["Z1"], 2)
    with pytest.raises(ClosureError):
        build_model(g, spec, meas)


def test_antisymmetry_exact_for_integer_couplings():
    for n in (3, 5, 8):
        rng = np.random.default_rng(n)
        couplings = [float(c) for c in rng.integers(1, 5, size=n - 1)]
        ordered, spec, meas, _ = ordered_pipeline(n, "Z1", couplings)
        model = build_model(ordered, spec, meas)
        a = model.a_dense()
        assert np.array_equal(a, -a.T)


def test_a_pattern_equals_adjacency_for_nonzero_couplings():
    for n in (3, 5, 8):
        rng = np.random.default_rng(100 + n)
        couplings = list(rng.uniform(0.5, 2.0, size=n - 1))
        ordered, spec, meas, dig = ordered_pipeline(n, "Y1 Z2", couplings)
        model = build_model(ordered, spec, meas)
        gr = build_graph(ordered, dig)
        assert np.array_equal(model.a_dense() != 0.0, adjacency_matrix(gr))


def test_scaling_linearity_and_permutation_similarity():
    ordered, spec, meas, _ = ordered_pipeline(4, "Z1", [1.0, 0.5, 0.25])
    base = build_model(ordered, spec, meas).a_dense()
    doubled_spec = build_exchange_chain(4, [2.0, 1.0, 0.5])
    doubled = build_model(ordered, doubled_spec, meas).a_dense()
    assert np.array_equal(doubled, 2.0 * base)

    perm = np.random.default_rng(2).permutation(len(ordered.members))
    permuted_set = AccessibleSet(
        4,
        tuple(ordered.members[i] for i in perm),
        tuple(None for _ in perm),
    )
    permuted = build_model(permuted_set, spec, meas).a_dense()
    p = np.zeros_like(base)
    for new, old in enumerate(perm):
        p[new, old] = 1.0
    assert np.array_equal(permuted, p @ base @ p.T)


def test_coupling_provenance_tracks_terms():
    model, g = model_case_b2()
    spec = build_exchange_chain(2, [1.0])
    graph = build_graph(g, decomposed_digamma(spec))
    label = {(u, v): nu for u, v, nu in graph.edges}
    for j, l in model.a_index.tolist():
        assert model.a_dense()[j, l] != 0.0
        assert bracket(label[min(j, l), max(j, l)], g.members[j]) is not None


# ---------------------------------------------------------------------------
# initial state


def test_x0_all_zeros_product():
    g = set_with_order(("Z1 Z2", "X1", "Z2"), 2)
    x0 = initial_state_vector("0,0", g)
    assert x0.tolist() == [1.0, 0.0, 1.0]


def test_x0_maximally_mixed():
    g = set_with_order(SPEC_ORDER_B2, 2)
    x0 = initial_state_vector(np.eye(4) / 4.0, g)
    assert np.allclose(x0, 0.0, atol=1e-14)


def test_x0_dense_matches_trace_oracle():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    g = set_with_order(SPEC_ORDER_B2, 2)
    x0 = initial_state_vector(rho, g)
    for val, s in zip(x0, g.members):
        want = np.trace(dense_ref.dense(dense_ref.string_label(s)) @ rho).real
        assert val == pytest.approx(want, abs=1e-12)


def test_x0_product_matches_dense_kets():
    # |0> tensor |+> as a dense matrix vs the Bloch product path
    ket0 = np.array([1.0, 0.0])
    ketp = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = np.kron(ket0, ketp)
    rho = np.outer(psi, psi.conj())
    g = set_with_order(("Z1", "X2", "Z1 X2", "Y2"), 2)
    assert np.allclose(
        initial_state_vector("0,+", g),
        initial_state_vector(rho, g),
        atol=1e-12,
    )


def test_x0_rejects_bad_density_matrices():
    g = set_with_order(("Z1",), 1)
    with pytest.raises(ValueError):
        initial_state_vector(np.eye(2), g)  # trace 2
    with pytest.raises(ValueError):
        initial_state_vector(np.array([[1.5, 0.0], [0.0, -0.5]]), g)  # not PSD
    with pytest.raises(ValueError):
        initial_state_vector("0,1", g)  # wrong site count
    with pytest.raises(ValueError):
        initial_state_vector("q", g)  # unknown ket


# ---------------------------------------------------------------------------
# reduced simulation


def test_simulate_zero_generator_is_constant():
    model, g = model_case_b2(h=0.0)
    x0 = initial_state_vector("0,1", g)
    times = np.linspace(0.0, 5.0, 11)
    for integrator in ("expm", "rk4"):
        res = simulate_reduced(model, x0, times, integrator=integrator)
        assert np.allclose(res.states, x0[None, :], atol=1e-12)


def test_simulate_two_site_exchange_cosine():
    model, g = model_case_b2(h=1.0)
    x0 = initial_state_vector("0,1", g)
    times = np.linspace(0.0, 10.0, 101)
    res = simulate_reduced(model, x0, times)
    assert np.max(np.abs(res.outputs[:, 0] - np.cos(4.0 * times))) < 1e-10


def test_simulate_norm_preserved():
    ordered, spec, meas, _ = ordered_pipeline(3, "Z1")
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector("0,1,+", ordered)
    times = np.linspace(0.0, 10.0, 51)
    res = simulate_reduced(model, x0, times)
    norms = np.linalg.norm(res.states, axis=1)
    assert np.allclose(norms, np.linalg.norm(x0), atol=1e-10)


@pytest.mark.parametrize("chunk_cells", [None, 7], ids=["one-chunk", "chunks-of-one-term"])
def test_simulate_outputs_sum_c_terms_in_index_order(chunk_cells):
    meas_texts = ["0.3 * Z1 + -1.7 * Z2 + 0.9 * Z3", "Z1", "0.25 * Y1 Z2 + 2.5 * X1 Y2"]
    ordered, spec, meas, _ = ordered_pipeline(3, "Z1", [1.3, 0.8], meas_texts)
    model = build_model(ordered, spec, meas)
    # a loaded model keeps C in file order: reverse it
    model.c_index, model.c_values = model.c_index[::-1], model.c_values[::-1]
    x0 = initial_state_vector("0,i+,+", ordered)
    times = np.linspace(0.0, 3.0, 7)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_cells is not None:
            mp.setattr(statespace, "_CHUNK_CELLS", chunk_cells)
        res = simulate_reduced(model, x0, times)
    expected = np.zeros((len(times), 3))
    for (r, col), v in zip(model.c_index.tolist(), model.c_values.tolist()):
        expected[:, r] += v * res.states[:, col]
    assert np.array_equal(res.outputs, expected)
    c = np.zeros((3, model.dim))
    c[model.c_index[:, 0], model.c_index[:, 1]] = model.c_values
    assert np.allclose(res.outputs, res.states @ c.T, rtol=0, atol=1e-14)


def test_simulate_integrators_agree():
    ordered, spec, meas, _ = ordered_pipeline(3, "Y1 Z2", [1.3, 0.8])
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector("0,1,0", ordered)
    times = np.linspace(0.0, 10.0, 21)
    via_expm = simulate_reduced(model, x0, times, integrator="expm")
    via_rk4 = simulate_reduced(model, x0, times, integrator="rk4", step=1e-3)
    assert np.max(np.abs(via_expm.states - via_rk4.states)) < 1e-6


def chain_f(n):
    """Chain case f, a unit x0 and a cache of dense expm(A t)."""
    rng = np.random.default_rng(n)
    ordered, spec, meas, _ = ordered_pipeline(n, "X1 Y2 Z3", list(rng.uniform(0.5, 1.5, n - 1)))
    model = build_model(ordered, spec, meas)
    x0 = rng.standard_normal(model.dim)
    return model, x0 / np.linalg.norm(x0), {}


def assert_matches_dense_expm(model, x0, props, times, tol=1e-12):
    """simulate_reduced's expm states against dense expm(A t) x0 per point."""
    got = simulate_reduced(model, x0, times).states
    for t, x in zip(times, got):
        if t not in props:
            props[t] = scipy.linalg.expm(model.a_dense() * t)
        assert np.max(np.abs(x - props[t] @ x0)) <= tol


@pytest.fixture(scope="module")
def chain_f_n7():
    return chain_f(7)  # dim 441


@pytest.fixture(scope="module")
def chain_f_n8():
    return chain_f(8)  # dim 784


@pytest.mark.parametrize(
    "times",
    [
        [0.0, 0.5, 1.0],  # uniform from t = 0
        [0.5, 1.0, 1.5],  # uniform from t0 > 0
        [0.0, 0.5, 0.5, 1.5],  # non-uniform, with a repeated point
        [1.0],  # one point
        [10.0, 10.5, 11.0],  # uniform from t0 well above the span
        [1.0, 1.0, 1.0],  # uniform with zero span
    ],
)
def test_expm_above_dense_dim_matches_dense_route(chain_f_n8, times):
    model, x0, props = chain_f_n8
    assert model.dim > DENSE_DIM  # the Chebyshev sweep on the sparse A
    assert_matches_dense_expm(model, x0, props, times)


@pytest.mark.parametrize(
    "times",
    [
        [0.0, 0.3, 0.3, 1.7, 4.0, 10.0],  # non-uniform, with a repeated point
        [2.0, 2.5],  # two points count as non-uniform
        [1.0],  # one point
    ],
)
def test_expm_on_non_uniform_grid_below_dense_dim(chain_f_n7, times):
    model, x0, props = chain_f_n7
    assert model.dim <= DENSE_DIM  # the Chebyshev sweep all the same
    assert_matches_dense_expm(model, x0, props, times)


INF = float("inf")


@pytest.mark.parametrize(
    "times",
    [
        [0.0, 0.5, 1.0, 1.5],
        [0.0, 0.1, 0.2, 0.30000000000000004],  # steps equal up to rounding
        [0.0, 1.0, 2.0 + 1e-12, 3.0],  # a step off by the tolerance
        [0.0, 1.0, 2.0 + 3e-12, 3.0],  # and past it
        [0.0, 1.0, 2.0 - 3e-12, 3.0],
        [0.0, 1.0, 1.5, 2.0],  # the first step is the longest
        [0.0, 1.0, 2.0 - 3e-12, 3.0 - 6e-12],  # and by just past the tolerance
        [1.0, 1.0, 1.0],  # zero steps
        [0.0, 1e-300, 2e-300],
        [5.0, 4.0, 3.0],  # negative steps
        [-1.5e308, 1.5e308, 1.5e308],  # the first step overflows to inf
        [0.0, 1.0, 1.5e308, -1.5e308],  # the last step overflows to -inf
        [-1.5e308, 1.5e308, -1.5e308, 1.5e308],  # inf, -inf, inf
        [-1.5e308, 1.5e308, INF],  # two inf steps
        [-INF, 0.0, INF],
        [0.0, 1e308, INF],  # a finite step, then inf
        [0.0, 1.0, INF, INF],  # an inf step, then nan
    ],
)
def test_uniform_grid_test_gives_the_allclose_verdict(times):
    # _run_expm's test for one step across the grid, against the rule it
    # replaces, on grids simulate_reduced would refuse as well
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(np.array(times))
        expected = bool(np.allclose(steps, steps[0], rtol=0, atol=1e-12))
    assert statespace._is_uniform(steps) == expected


def test_expm_to_a_far_time_above_dense_dim(chain_f_n8):
    # rho t = 2e4 at t = 1000: one sweep of about 27 000 terms
    model, x0, props = chain_f_n8
    assert_matches_dense_expm(model, x0, props, [0.0, 1.0, 250.0, 999.0, 1000.0], tol=1e-9)


def test_expm_of_an_all_zero_a_is_x0():
    # Z1 Z2 commutes with the chain's every term: dim 1, A = 0, rho = 0
    ordered, spec, meas, _ = ordered_pipeline(2, "Z1 Z2")
    model = build_model(ordered, spec, meas)
    assert model.dim == 1 and len(model.a_values) == 0
    x0 = np.array([0.75])
    times = [0.0, 0.3, 2.0, 1e9]  # non-uniform; no term count to cap
    assert np.array_equal(simulate_reduced(model, x0, times).states, np.full((4, 1), 0.75))


def test_expm_far_horizon_refused_before_it_runs():
    model, g = model_case_b2()  # rho = 4
    x0 = initial_state_vector("0,1", g)
    with pytest.raises(ValueError, match=r"needs \d+ Chebyshev terms.* past the cap of 4000000"):
        simulate_reduced(model, x0, [0.0, 1e6])
    with pytest.raises(ValueError, match=r"needs at least 4e\+09 Chebyshev terms"):
        simulate_reduced(model, x0, [0.0, 1e9])


@pytest.mark.parametrize("chunk_cells", [64, 600], ids=["stops-between-points", "runs"])
def test_expm_in_runs_and_stops_matches_one_sweep(chain_f_n7, chunk_cells):
    # small budgets cut the grid into runs of points and, where one point's
    # weights do not fit, reach it by stops between points
    model, x0, props = chain_f_n7
    times = [0.0, 0.1, 0.5, 3.0, 3.0, 10.0, 10.5, 12.0]
    want = simulate_reduced(model, x0, times).states
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "_CHUNK_CELLS", chunk_cells)
        got = simulate_reduced(model, x0, times).states
    assert np.abs(got - want).max() <= 1e-12
    assert_matches_dense_expm(model, x0, props, times)


def test_expm_sweep_holds_no_terms_by_dim_buffer():
    # case (d) at N = 30: dim 13 050, rho = 12 and 195 terms to t = 10; the
    # 195 x dim terms alone would take 20 MB
    ordered, spec, meas, _ = ordered_pipeline(30, "Y1 Z2")
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector(",".join("+" * 30), ordered)
    times = np.linspace(0.0, 10.0, 101)
    tracemalloc.start()
    try:
        result = simulate_reduced(model, x0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.states.nbytes + (8 << 20)


def test_simulate_rejects_bad_times():
    model, g = model_case_b2()
    x0 = initial_state_vector("0,1", g)
    with pytest.raises(ValueError):
        simulate_reduced(model, x0, [1.0, 0.5])
    with pytest.raises(ValueError):
        simulate_reduced(model, x0, [-1.0, 0.5])


@pytest.mark.parametrize("integrator", ["expm", "rk4"])
@pytest.mark.parametrize("last", [math.nan, math.inf])
def test_simulate_rejects_non_finite_times(integrator, last):
    # rk4 failed converting NaN to an int, or with an OverflowError on inf;
    # expm asked for "at least nan Chebyshev terms"
    ordered, spec, meas, _ = ordered_pipeline(3, "Y1 Z2")
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector("0,1,0", ordered)
    with pytest.raises(ValueError, match="times must be finite"):
        simulate_reduced(model, x0, [0.0, last], integrator=integrator, step=0.01)


def test_rk4_step_cap_holds_in_the_library(monkeypatch):
    # only the CLI checked the cap: the library ran all 100 steps
    ordered, spec, meas, _ = ordered_pipeline(3, "Y1 Z2")
    model = build_model(ordered, spec, meas)
    x0 = initial_state_vector("0,1,0", ordered)
    monkeypatch.setattr(statespace, "MAX_RK4_STEPS", 10)
    message = r"--step 0\.01 asks for more than 10 rk4 steps to reach t = 1\.0"
    with pytest.raises(ValueError, match=message):
        simulate_reduced(model, x0, [0.0, 1.0], "rk4", step=0.01)


def test_simulate_flags_unstable_step():
    model, g = model_case_b2(h=50.0)
    x0 = initial_state_vector("0,1", g)
    with pytest.raises(SimulationUnstableError):
        simulate_reduced(model, x0, [0.0, 50.0], integrator="rk4", step=0.049)


def not_antisymmetric(model):
    """The model with every A entry made positive: A is then symmetric, and
    exp(A t) stretches the state.  Built in process, as the loader refuses it."""
    return dataclasses.replace(model, a_values=np.abs(model.a_values))


@pytest.mark.parametrize("times", [
    [0.0, 0.25, 0.5],  # uniform: dense expm
    [0.0, 0.1, 0.5],  # non-uniform: the Chebyshev sweep
])
def test_expm_refuses_a_drifting_norm(times):
    model, _ = model_case_b2()
    x0 = np.array([1.0, 0.0, 0.0, 0.0])  # not in the kernel of the symmetric A
    bad = not_antisymmetric(model)
    with pytest.raises(NormDriftError, match=r"past the bound 1e-10 \* \(1 \+ 3 points\)"):
        simulate_reduced(bad, x0, times)
    # rk4 keeps only its 10x guard: A's largest eigenvalue is 4, so the norm
    # grows by at most e^2 by t = 0.5
    simulate_reduced(bad, x0, times, integrator="rk4", step=0.01)


def test_expm_norm_bound_scales_with_points_and_norm():
    model, _ = model_case_b2()
    x0 = np.array([1e6, 0.0, 0.0, 0.0])
    # a large x0 and many points: the rounding drift stays inside the bound
    result = simulate_reduced(model, x0, np.linspace(0.0, 10.0, 1001))
    norms = np.linalg.norm(result.states, axis=1)
    assert np.abs(norms - 1e6).max() <= 1e-10 * 1002 * 1e6
    # a drift far below any bound still fails when A is not antisymmetric
    with pytest.raises(NormDriftError):
        simulate_reduced(not_antisymmetric(model), x0, [0.0, 1e-3])


# ---------------------------------------------------------------------------
# exports


def test_model_json_round_trip():
    model, _ = model_case_b2(h=0.75)
    back = model_from_json(json.loads(model_to_json(model)))
    assert back.a_entries == model.a_entries
    assert entries(back.c_index, back.c_values) == entries(model.c_index, model.c_values)
    assert back.table.texts() == model.table.texts()


def test_model_json_validates_antisymmetry():
    model, _ = model_case_b2()
    data = json.loads(model_to_json(model))
    data["A"][0][2] = 99.0
    with pytest.raises(ValueError):
        model_from_json(data)


def test_model_json_rejects_repeated_entries():
    model, _ = model_case_b2()
    data = json.loads(model_to_json(model))
    # the dense A kept the last value and the sparse A summed them
    data["A"] = [[0, 1, 1.0], [0, 1, 2.0], [1, 0, -2.0]]
    with pytest.raises(ValueError, match=r"A entry \[0, 1, 2.0\] repeats .* \(0, 1\)"):
        model_from_json(data)
    # the first repeat in file order is named, not the first in key order
    data["A"] = [[1, 0, -2.0], [1, 0, -2.0], [0, 1, 2.0], [0, 1, 2.0]]
    with pytest.raises(ValueError, match=r"A entry \[1, 0, -2.0\] repeats .* \(1, 0\)"):
        model_from_json(data)


def reference_triplet_error(raw, name, rows, cols):
    """The message of the per-triplet checks that ``_triplets`` replaced, or
    None: ``np.array`` of the list, then a set of per-triplet type tuples."""
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:
        return f"{name} holds an integer past the float range"
    except (TypeError, ValueError):
        arr = None
    if not isinstance(raw, list) or arr is None or arr.shape not in ((0,), (len(raw), 3)):
        return f"{name} must be a list of [row, col, value] triplets"
    kinds = {(int, int, int), (int, int, float)}
    bad = next((e for e in raw if tuple(map(type, e)) not in kinds), None)
    if bad is not None:
        return f"{name} entry {bad!r} must be [integer, integer, number]"
    arr = arr.reshape(-1, 3)
    for e, (r, c, v) in zip(raw, arr.tolist()):
        inside = 0 <= r < rows and 0 <= c < cols
        if not (r == int(r) and c == int(c) and math.isfinite(v) and inside):
            return f"{name} entry {e!r} is not a finite value inside {rows} x {cols}"
    return None


#: the values of drawn triplets, of every JSON type and a few shapes
TRIPLET_VALUES = st.one_of(
    st.integers(-1, 4), st.sampled_from([0.0, 1.5, -2.0, True, None, "1", "x", [1], 10**400])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.lists(TRIPLET_VALUES, min_size=3, max_size=3), max_size=4),
    st.lists(st.lists(TRIPLET_VALUES, max_size=4) | TRIPLET_VALUES, max_size=3),
    TRIPLET_VALUES,
))
def test_triplet_checks_match_the_per_triplet_reference(raw):
    want = reference_triplet_error(raw, "A", 3, 3)
    try:
        statespace._triplets(raw, "A", 3, 3)
        got = None
    except ValueError as exc:
        got = str(exc)
    # a repeated position is checked after these, by both
    assert got == want or (want is None and "repeats an earlier entry" in got)


def reference_antisymmetry_error(entries):
    """The per-entry dict walk: the first entry whose transpose is not -v."""
    a = {(r, c): v for r, c, v in entries}
    for (r, c), v in a.items():
        if a.get((c, r), 0.0) != -v:
            return f"A is not antisymmetric at ({r}, {c})"
    return None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
        max_size=10,
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_antisymmetry_check_names_the_first_failing_entry(a, mirror, rnd):
    entries = [[r, c, v] for (r, c), v in a.items()]
    if mirror:  # antisymmetric except where both (r, c) and (c, r) were drawn
        entries += [[c, r, -v] for (r, c), v in a.items() if (c, r) not in a]
    rnd.shuffle(entries)
    data = json.loads(model_to_json(model_case_b2()[0]))
    data["ordering"] += ["X1"]  # dim 5
    data["A"] = entries
    want = reference_antisymmetry_error(entries)
    if want is None:
        assert model_from_json(data).a_entries == tuple(map(tuple, entries))
    else:
        with pytest.raises(ValueError) as err:
            model_from_json(data)
        assert str(err.value) == want


def test_trajectory_csv_peaks_at_two_copies():
    # the N = 30 chain trajectory's 101 rows, about a sixth as wide
    rng = np.random.default_rng(5)
    states = rng.standard_normal((101, 2000))
    res = SimulationResult(np.linspace(0.0, 1.0, 101), states, states[:, :1] * 0.5)
    tracemalloc.start()
    try:
        text = trajectory_to_csv(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row strings and their join; a third full-size copy reads 3.0
    assert peak <= 2.3 * len(text)


def test_trajectory_csv_peaks_at_one_copy():
    # the chain-d-cli trajectory's shape: 101 rows of t, 13 050 states and y
    rng = np.random.default_rng(6)
    states = rng.standard_normal((101, 13_050))
    res = SimulationResult(np.linspace(0.0, 1.0, 101), states, states[:, :1] * 0.5)
    tracemalloc.start()
    try:
        text = trajectory_to_csv(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one buffer that the blocks are appended to, with its spare capacity,
    # plus about 2 MB of temporaries; a str copy of the text reads 2.0
    assert peak <= 1.3 * len(text)


def test_trajectory_csv_header_and_rows():
    model, g = model_case_b2()
    x0 = initial_state_vector("0,1", g)
    res = simulate_reduced(model, x0, [0.0, 0.25])
    csv = trajectory_to_csv(res)
    lines = csv.decode("ascii").strip().split("\n")
    assert lines[0] == "t,x_1,x_2,x_3,x_4,y_1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "1.0"
