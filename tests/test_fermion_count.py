"""Accessible sets, graphs and models of quadratic Hamiltonians against the
exact counts of :mod:`fermion_count`, at one, two and three 64-bit words."""

from hypothesis import assume, given, settings, strategies as st

from fermion_count import MajoranaGraph, majorana_subset, subset_string
from pauliaccess import (
    HamiltonianSpec,
    MeasurementSpec,
    WeightedPauliSum,
    build_exchange_chain,
    build_graph,
    build_model,
    decomposed_digamma,
    generate,
    parse_term,
    partition_k_finite,
)

#: widths inside one word and on both sides of the first and second word edges
WIDTHS = (2, 3, 5, 9, 63, 64, 65, 66, 100, 127, 128, 129, 130)

#: most members a draw may predict
MAX_MEMBERS = 10**5

#: sets at most this large have every member's token vector checked
CHECKED_MEMBERS = 2000


@st.composite
def quadratic_cases(draw):
    """Majorana pairs with couplings, some 0.0, and one to three seeds of one
    to three Majoranas.  The Majoranas come from the ends, the 64-bit word
    edges (sites 64-65 and 128-129) and anywhere.  The pairs are a path of
    up to 40 neighbouring Majoranas around one of them, so that one
    component reaches across a word edge, and up to 12 more pairs, each of
    any two or of two at most three apart."""
    n = draw(st.sampled_from(WIDTHS))
    word_edges = (1, 2, 3, 4, 125, 126, 127, 128, 129, 130, 131, 132)
    word_edges += (253, 254, 255, 256, 257, 258)
    pool = sorted({a for a in (*word_edges, 2 * n - 1, 2 * n) if a <= 2 * n})
    majorana = st.sampled_from(pool) | st.integers(1, 2 * n)
    middle, length = draw(majorana), draw(st.integers(0, 40))
    lo, hi = max(1, middle - length // 2), min(2 * n, middle + length // 2)
    path = [(a, a + 1) for a in range(lo, hi)]
    any_pair = st.lists(majorana, min_size=2, max_size=2, unique=True)
    near_pair = st.tuples(majorana, st.integers(1, 3)).map(lambda t: [t[0] - t[1], t[0]])
    pair = (any_pair | near_pair.filter(lambda p: p[0] >= 1)).map(lambda p: tuple(sorted(p)))
    extra = draw(st.lists(pair, max_size=12))
    pairs = list(dict.fromkeys(path + extra)) or [(1, 2)]
    coeff = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1) | st.just(0.0)
    coeffs = draw(st.lists(coeff, min_size=len(pairs), max_size=len(pairs)))
    token = st.integers(lo, hi) | majorana
    seed = st.frozensets(token, min_size=1, max_size=3)
    seeds = draw(st.lists(seed, min_size=1, max_size=3, unique=True))
    return n, pairs, coeffs, seeds


@settings(max_examples=60, deadline=None)
@given(quadratic_cases())
def test_sets_graphs_and_models_of_quadratic_hamiltonians_match_the_counts(case):
    n, pairs, coeffs, seeds = case
    fermions = MajoranaGraph(n, pairs)
    predicted = fermions.member_count(seeds)
    assume(predicted <= MAX_MEMBERS)
    strings = [subset_string(p, n) for p in pairs]
    assert [majorana_subset(s) for s in strings] == [frozenset(p) for p in pairs]
    spec = HamiltonianSpec(n, WeightedPauliSum(n, tuple(zip(coeffs, strings))))
    digamma = decomposed_digamma(spec)
    meas = MeasurementSpec.from_texts([subset_string(s, n).to_text() for s in seeds], n)

    g = generate(digamma, list(meas.decomposed))
    assert len(g) == predicted
    if len(g) <= CHECKED_MEMBERS:
        # distinct strings are distinct subsets, so with the count this makes
        # the members exactly the seeds' placements
        vectors = fermions.vectors(seeds)
        assert all(fermions.vectors([majorana_subset(m)]) <= vectors for m in g.members)
    assert len(build_graph(g, digamma).ends) == fermions.edge_count(seeds)
    blocks = {k: len(members) for k, members in partition_k_finite(g).blocks}
    assert blocks == fermions.block_sizes(seeds)
    nonzero = [p for p, c in zip(pairs, coeffs) if c != 0.0]
    nnz = len(build_model(g, spec, meas).a_values)
    assert nnz == 2 * fermions.edge_count(seeds, nonzero)
    if len(nonzero) == len(pairs):
        assert nnz == 2 * fermions.edge_count(seeds)


def case_d(n):
    """The exchange chain's Majorana pairs and the case (d) seed Y1 Z2."""
    spec = build_exchange_chain(n, [1.0] * (n - 1))
    pairs = [sorted(majorana_subset(s)) for s in decomposed_digamma(spec)]
    return MajoranaGraph(n, pairs), [majorana_subset(parse_term("Y1 Z2", n))]


def test_counts_give_the_case_d_closed_forms():
    for n in range(2, 101):
        fermions, seeds = case_d(n)
        assert fermions.member_count(seeds) == n * n * (n - 1) // 2
        assert fermions.edge_count(seeds) == n * (n - 1) * (3 * n - 5) // 2
        assert sum(fermions.block_sizes(seeds).values()) == n * n * (n - 1) // 2


def test_majorana_subset_inverts_subset_string():
    for n in (1, 2, 5, 64, 65, 130):
        for subset in ({1}, {2 * n}, {1, 2}, set(range(1, 2 * n + 1, 3)), set(range(1, 2 * n + 1))):
            assert majorana_subset(subset_string(subset, n)) == subset
    assert majorana_subset(parse_term("Y1 Z2", 2)) == {2, 3, 4}
