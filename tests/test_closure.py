"""Accessible-set generation: fast rule, reference rule, closed forms."""

import json
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cases_fitting
from pauliaccess import (
    AccessibleSet,
    PauliString,
    bracket_normalized,
    chain_closed_form,
    exchange_digamma,
    generate,
    generate_reference,
    parse_term,
)
from pauliaccess import closure
from pauliaccess.closure import (
    _dedupe_seeds,
    accessible_set_from_json,
    accessible_set_to_json,
)
from pauliaccess.pauli import canonical_digamma, check_widths


def texts(g: AccessibleSet):
    return [s.to_text() for s in g.members]


def test_generate_case_a_n3():
    g = generate(exchange_digamma(3), [parse_term("X1", 3)])
    assert texts(g) == ["X1", "Z1 Y2", "Z1 Z2 X3"]


def test_generate_case_b_n2():
    g = generate(exchange_digamma(2), [parse_term("Z1", 2)])
    assert texts(g) == ["Z1", "Y1 X2", "X1 Y2", "Z2"]


def test_generate_fixpoint_is_returned_unchanged():
    dig = exchange_digamma(2)
    fix = generate(dig, [parse_term("Z1", 2)])
    again = generate(dig, list(fix.members))
    assert texts(again) == texts(fix)


def test_generate_provenance_parents_precede():
    g = generate(exchange_digamma(5), [parse_term("Y1 Z2", 5)])
    for i, p in enumerate(g.provenance):
        if p is None:
            continue
        parent, edge = p
        assert parent < i
        assert not edge.is_identity


def test_generate_rejects_empty_seeds():
    with pytest.raises(ValueError):
        generate(exchange_digamma(2), [])


def test_generate_rejects_mixed_widths():
    with pytest.raises(ValueError):
        generate(exchange_digamma(2), [parse_term("X1", 3)])


def test_generate_deterministic_across_runs():
    dig = exchange_digamma(5)
    seed = [parse_term("X1 Y2 Z3", 5)]
    a, b = generate(dig, seed), generate(dig, seed)
    assert texts(a) == texts(b)


# ---------------------------------------------------------------------------
# reference oracle


def test_reference_matches_fast_n2_case_b():
    dig = exchange_digamma(2)
    seed = [parse_term("Z1", 2)]
    assert generate(dig, seed).member_keys() == generate_reference(
        dig, seed
    ).member_keys()


def test_reference_trivial_width_one():
    g = generate_reference([], [parse_term("X1", 1)])
    assert texts(g) == ["X1"]


def test_reference_matches_fast_n3_seed_y1z2():
    dig = exchange_digamma(3)
    seed = [parse_term("Y1 Z2", 3)]
    assert generate(dig, seed).member_keys() == generate_reference(
        dig, seed
    ).member_keys()


def test_reference_refuses_large_width():
    with pytest.raises(ValueError):
        generate_reference(exchange_digamma(5), [parse_term("Z1", 5)])


def test_reference_equivalence_all_cases_small_n():
    for n in (2, 3):
        dig = exchange_digamma(n)
        for name, seed in cases_fitting(n).items():
            fast = generate(dig, [seed])
            ref = generate_reference(dig, [seed])
            assert fast.member_keys() == ref.member_keys(), (n, name)


def per_candidate_reference(
    digamma: Sequence[PauliString], seeds: Sequence[PauliString]
) -> AccessibleSet:
    """The trace-test rule one candidate at a time, as the reference rule
    first stated it: each candidate O of the 4^N basis joins when
    |Tr(O^dag [tau, nu])| > 1e-9, tested in basis order."""
    n = seeds[0].n_qubits
    dig = canonical_digamma(digamma)
    dim = 1 << n
    omega = [PauliString(n, x, z) for x in range(dim) for z in range(dim)]
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


def test_reference_matches_per_candidate_loop():
    for n in (1, 2, 3):
        dig = exchange_digamma(n) if n >= 2 else []
        cases = cases_fitting(n)
        seed_lists = [[seed] for seed in cases.values()]
        # several seeds, a repeated one and the identity
        seed_lists.append([*cases.values(), PauliString.identity(n), cases["a"]])
        for seeds in seed_lists:
            ref = generate_reference(dig, seeds)
            loop = per_candidate_reference(dig, seeds)
            assert ref.members == loop.members, (n, seeds)
            assert ref.provenance == loop.provenance, (n, seeds)


# ---------------------------------------------------------------------------
# chain closed forms


def test_closed_form_n3_m1_x():
    cf = chain_closed_form(3, 1, "X")
    assert texts(cf) == ["X1", "Z1 Y2", "Z1 Z2 X3"]


def test_closed_form_extends_down_the_chain():
    # bracketing also walks below the seed site, so the ladder spans 1..N
    cf = chain_closed_form(4, 3, "X")
    assert texts(cf) == ["X1", "Z1 Y2", "Z1 Z2 X3", "Z1 Z2 Z3 Y4"]


def test_closed_form_alternation_and_seed_site():
    cf = chain_closed_form(6, 2, "Y")
    assert texts(cf)[1] == "Z1 Y2"
    for s, member in enumerate(cf.members, 1):
        assert member.highest_site() == s
        letter = member.cell(s)
        assert letter == ("Y" if (s - 2) % 2 == 0 else "X")


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chain_closed_form(3, 0, "X")
    with pytest.raises(ValueError):
        chain_closed_form(3, 4, "X")
    with pytest.raises(ValueError):
        chain_closed_form(3, 1, "Q")


def test_closed_form_equals_generate_sweep():
    for n in range(2, 13):
        dig = exchange_digamma(n)
        for m in range(1, n + 1):
            for axis in ("X", "Y"):
                seed = PauliString.from_cells(
                    n, {**{j: "Z" for j in range(1, m)}, m: axis}
                )
                cf = chain_closed_form(n, m, axis)
                g = generate(dig, [seed])
                assert cf.member_keys() == g.member_keys(), (n, m, axis)


# ---------------------------------------------------------------------------
# structural properties


def test_monotone_in_digamma_prefixes():
    # closing with a longer chain prefix can only add members
    n = 6
    seed = [parse_term("Z1", n)]
    dig = exchange_digamma(n)
    prev = set()
    for links in range(1, n):
        prefix = [nu for nu in dig if nu.highest_site() <= links + 1]
        cur = set(generate(prefix, seed).member_keys())
        assert prev <= cur
        prev = cur


def test_single_member_regeneration_case_d_n5():
    dig = exchange_digamma(5)
    g = generate(dig, [parse_term("Y1 Z2", 5)])
    keys = g.member_keys()
    for member in g.members:
        assert generate(dig, [member]).member_keys() == keys


def test_case_d_counts():
    for n in range(2, 11):
        g = generate(exchange_digamma(n), [parse_term("Y1 Z2", n)])
        assert len(g) == (n**3 - n**2) // 2, n


def test_case_b_counts_are_squares():
    for n in range(2, 9):
        g = generate(exchange_digamma(n), [parse_term("Z1", n)])
        assert len(g) == n * n


# ---------------------------------------------------------------------------
# serialization


def test_set_json_round_trip():
    g = generate(exchange_digamma(3), [parse_term("Z1", 3)])
    back = accessible_set_from_json(json.loads(accessible_set_to_json(g)))
    assert texts(back) == texts(g)
    assert back.provenance == g.provenance


def test_set_text_format():
    g = generate(exchange_digamma(2), [parse_term("Z1", 2)])
    assert g.to_text() == "Z1\nY1 X2\nX1 Y2\nZ2\n"


# ---------------------------------------------------------------------------
# syndrome BFS against the all-pairs loop it replaced


def all_pairs_generate(
    digamma: Sequence[PauliString], seeds: Sequence[PauliString]
) -> AccessibleSet:
    """Minimal fixpoint containing the seeds under bracketing with digamma.

    Members are ordered by discovery: seeds first, then breadth-first in
    (frontier order x canonical digamma order).
    """
    if not seeds:
        raise ValueError("seed set must be nonempty")
    n = seeds[0].n_qubits
    check_widths(seeds, n)
    check_widths(digamma, n)
    dig = canonical_digamma(digamma)
    dig_masks = [(s.x_mask, s.z_mask) for s in dig]

    seed_list = _dedupe_seeds(seeds)
    members: list[tuple[int, int]] = []
    prov: list[Optional[tuple[int, int]]] = []
    seen: dict[tuple[int, int], int] = {}
    for s in seed_list:
        seen[(s.x_mask, s.z_mask)] = len(members)
        members.append((s.x_mask, s.z_mask))
        prov.append(None)

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

    strings = tuple(PauliString(n, x, z) for x, z in members)
    provenance = tuple(
        None if p is None else (p[0], dig[p[1]]) for p in prov
    )
    return AccessibleSet(n, strings, provenance)


def assert_same_closure(digamma, seeds):
    fast = generate(digamma, seeds)
    ref = all_pairs_generate(digamma, seeds)
    assert fast.members == ref.members
    assert fast.provenance == ref.provenance


@st.composite
def closure_inputs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 66]))
    masks = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.builds(PauliString, st.just(n), masks, masks), min_size=1, max_size=8))
    pick = st.sampled_from(pool + [PauliString.identity(n)])
    digamma = draw(st.lists(pick, max_size=8))
    seeds = draw(st.lists(pick, min_size=1, max_size=3))
    return digamma, seeds


@settings(max_examples=150, deadline=None)
@given(closure_inputs())
def test_generate_matches_all_pairs_loop(inputs):
    assert_same_closure(*inputs)


def test_generate_matches_all_pairs_case_d_n70():
    # two 64-bit words per mask, about 169 000 members
    assert_same_closure(exchange_digamma(70), [parse_term("Y1 Z2", 70)])


def test_generate_matches_all_pairs_heisenberg_n6():
    n = 6
    digamma = [
        PauliString.from_cells(n, {k: a, k + 1: a})
        for k in range(1, n)
        for a in "XYZ"
    ]
    g = generate(digamma, [parse_term("Z1", n)])
    assert len(g) == 4**n // 4
    assert_same_closure(digamma, [parse_term("Z1", n)])


# ---------------------------------------------------------------------------
# lazy members


CASE_D_N6 = (exchange_digamma(6), [parse_term("Y1 Z2", 6)])


def test_lazy_set_answers_from_keys(string_count):
    g = generate(*CASE_D_N6)
    outside = parse_term("X1 X2 X3", 6)
    member = parse_term("Y1 Z2", 6)
    wider = PauliString(7, 1 << 6, 0)
    string_count[0] = 0
    assert len(g) == (6**3 - 6**2) // 2
    assert len(g.member_keys()) == len(g)
    assert g.packed_keys().index(member.x_mask | member.z_mask << 6) == 0
    assert member in g and outside not in g and wider not in g
    assert string_count[0] == 0


def test_key_set_is_the_set_of_packed_keys():
    lazy = generate(*CASE_D_N6)
    want = set(lazy.packed_keys())
    assert lazy.key_set() == want
    assert lazy.key_set() is lazy.key_set()  # generate's own set, not a copy per call
    for eager in (
        AccessibleSet(6, lazy.members, lazy.provenance),
        AccessibleSet(6, lazy.table(), lazy.provenance),
    ):
        assert eager.key_set() == want
        assert eager.key_set() is eager.key_set()


def test_lazy_members_decode_keys():
    g = generate(*CASE_D_N6)
    n, full = g.n_qubits, (1 << g.n_qubits) - 1
    decoded = tuple(PauliString(n, k & full, k >> n) for k in g.packed_keys())
    assert g.members == decoded
    assert g.members is g.members


def test_lazy_set_equals_eager_copy(string_count):
    lazy = generate(*CASE_D_N6)
    eager = all_pairs_generate(*CASE_D_N6)
    string_count[0] = 0
    assert lazy == eager and eager == lazy
    assert string_count[0] == 0
    assert lazy != AccessibleSet(eager.n_qubits, eager.members[::-1], eager.provenance)
    assert lazy.depths() == eager.depths()
    for a, b in ((lazy.table().x, eager.table().x), (lazy.table().z, eager.table().z)):
        np.testing.assert_array_equal(a, b)
    assert lazy.to_text() == eager.to_text()


# ---------------------------------------------------------------------------
# member budget


def test_member_budget_counts_seeds(monkeypatch):
    monkeypatch.setattr(closure, "MAX_MEMBERS", 1)
    seeds = [parse_term("X1", 2), parse_term("Z2", 2)]
    with pytest.raises(ValueError, match="MAX_MEMBERS = 1"):
        generate([], seeds)


# ---------------------------------------------------------------------------
# steps prepared once per digamma


def variants_of_case_d_n5():
    dig = list(exchange_digamma(5))
    return {
        "reordered": dig[::-1],
        "duplicates": dig + dig[:3],
        "identity": [PauliString.identity(5), *dig, PauliString.identity(5)],
    }


def test_cached_steps_match_a_cold_cache():
    seed = [parse_term("Y1 Z2", 5)]
    closure._closure_steps.cache_clear()
    base = generate(exchange_digamma(5), seed)
    for name, digamma in variants_of_case_d_n5().items():
        closure._closure_steps.cache_clear()
        cold = generate(digamma, seed)
        warm = generate(digamma, seed)
        assert closure._closure_steps.cache_info().hits >= 1
        for g in (cold, warm):
            assert g.packed_keys() == base.packed_keys(), name
            assert g.provenance == base.provenance, name
        assert cold == warm == all_pairs_generate(digamma, seed), name


def test_cached_steps_keep_widths_apart():
    # the same masks at another width are another digamma
    closure._closure_steps.cache_clear()
    small = generate([parse_term("X1 X2", 2)], [parse_term("Z1", 2)])
    wide = generate([parse_term("X1 X2", 3)], [parse_term("Z1", 3)])
    assert small.n_qubits == 2 and wide.n_qubits == 3
    assert {s.n_qubits for _, s in filter(None, wide.provenance)} == {3}
    with pytest.raises(ValueError):
        generate([parse_term("X1 X2", 3)], [parse_term("Z1", 2)])


def test_warm_cache_reads_the_member_budget_at_call_time(monkeypatch):
    # case (d) at N = 5 closes to exactly 50 members
    args = (exchange_digamma(5), [parse_term("Y1 Z2", 5)])
    assert len(generate(*args)) == 50
    monkeypatch.setattr(closure, "MAX_MEMBERS", 49)
    with pytest.raises(ValueError, match=r"MAX_MEMBERS = 49 \(49 members reached"):
        generate(*args)
    monkeypatch.setattr(closure, "MAX_MEMBERS", 50)
    assert len(generate(*args)) == 50


# ---------------------------------------------------------------------------
# regeneration: one walk tells whether every member reaches all of a set


def walk_within(digamma, start: PauliString, within) -> set[int]:
    """Keys one start reaches, bracket by bracket, never leaving ``within``."""
    n = start.n_qubits
    reached = {start.x_mask | start.z_mask << n}
    queue = [start]
    while queue:
        tau = queue.pop()
        for nu in digamma:
            r = bracket_normalized(tau, nu)
            if r is None:
                continue
            key = r.x_mask | r.z_mask << n
            if key in within and key not in reached:
                reached.add(key)
                queue.append(r)
    return reached


@st.composite
def regeneration_inputs(draw):
    n = draw(st.integers(1, 5))
    masks = st.integers(0, (1 << n) - 1)
    string = st.builds(PauliString, st.just(n), masks, masks)
    digamma = draw(st.lists(string, min_size=1, max_size=5))
    # seeds from one component or several, the identity included
    seeds = draw(st.lists(string, min_size=1, max_size=4))
    # the share of their closure left out: the set may be closed or not
    drop = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return n, digamma, seeds, drop


@settings(max_examples=150, deadline=None)
@given(regeneration_inputs(), st.randoms(use_true_random=False))
def test_one_walk_decides_regeneration_from_every_member(inputs, rnd):
    # the walk starts at keys[0] only; since the bracket step is symmetric,
    # its answer must hold for every sampled start
    n, digamma, seeds, drop = inputs
    keys = [key for key in generate(digamma, seeds).packed_keys() if rnd.random() >= drop]
    rnd.shuffle(keys)
    closed, covered = closure._regenerates(n, digamma, keys)
    full = (1 << n) - 1
    for i in rnd.sample(range(len(keys)), min(8, len(keys))):
        start = PauliString(n, keys[i] & full, keys[i] >> n)
        # the closure of member i alone is exactly the set
        assert (closed and covered) == (generate(digamma, [start]).key_set() == set(keys))
        # member i reaches every member without leaving the set
        assert covered == (walk_within(digamma, start, set(keys)) == set(keys))


def test_regenerators_on_no_keys():
    assert closure._regenerates(2, exchange_digamma(2), []) == (True, True)
