"""Core string algebra: products, brackets, decomposition, grammar."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_ref
from pauliaccess import (
    DimensionMismatchError,
    GrammarError,
    PauliString,
    WeightedPauliSum,
    bracket,
    bracket_normalized,
    check_bilinear_decomposition,
    decompose,
    format_sum,
    multiply,
    parse_sum,
    parse_term,
    phase_free_product,
)


def ps(text, n):
    return PauliString.from_text(text, n)


@st.composite
def string_pairs(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1
    a = PauliString(n, draw(st.integers(0, full)), draw(st.integers(0, full)))
    b = PauliString(n, draw(st.integers(0, full)), draw(st.integers(0, full)))
    return a, b


# ---------------------------------------------------------------------------
# multiply


def test_multiply_square_is_identity():
    r = multiply(ps("X1", 1), ps("X1", 1))
    assert r.phase_exponent == 0
    assert r.string.is_identity


def test_multiply_xy_gives_iz():
    r = multiply(ps("X1", 1), ps("Y1", 1))
    assert r.phase_exponent == 1
    assert r.string == ps("Z1", 1)


def test_multiply_two_site():
    # (Y tensor X)(Y tensor Y) = I tensor iZ, frozen from the dense route
    r = multiply(ps("Y1 X2", 2), ps("Y1 Y2", 2))
    assert r.phase_exponent == 1
    assert r.string == ps("Z2", 2)


def test_multiply_self_always_phase_zero():
    for text, n in (("Y1 Z2", 2), ("X1 Y2 Z3", 3), ("I", 2)):
        r = multiply(ps(text, n), ps(text, n))
        assert r.phase_exponent == 0 and r.string.is_identity


def test_multiply_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(ps("X1", 1), ps("X1", 2))


@settings(max_examples=300, derandomize=True)
@given(string_pairs())
def test_multiply_matches_dense(pair):
    a, b = pair
    phi, lab = dense_ref.product_phase(
        dense_ref.string_label(a), dense_ref.string_label(b)
    )
    r = multiply(a, b)
    assert r.phase_exponent == phi
    assert dense_ref.string_label(r.string) == lab


# ---------------------------------------------------------------------------
# bracket


def test_bracket_paper_chain_rule():
    c, r = bracket(ps("Z1", 2), ps("X1 X2", 2))
    assert c == 2.0
    assert r == ps("Y1 X2", 2)


def test_bracket_commuting_is_empty():
    assert bracket(ps("Y1", 2), ps("Y1 Y2", 2)) is None


def test_bracket_prefix_pattern():
    # [Z_k Y_{k+1}, X_{k+1} X_{k+2}] = -2i Z_k Z_{k+1} X_{k+2} at k=1
    c, r = bracket(ps("Z1 Y2", 3), ps("X2 X3", 3))
    assert c == -2.0
    assert r == ps("Z1 Z2 X3", 3)


def test_bracket_normalized_examples():
    assert bracket_normalized(ps("X1", 2), ps("Y1 Y2", 2)) == ps("Z1 Y2", 2)
    assert bracket_normalized(ps("Z1", 1), ps("Z1", 1)) is None
    assert bracket_normalized(ps("Y1 Z2", 2), ps("Y1 Y2", 2)) == ps("X2", 2)


@settings(max_examples=300, derandomize=True)
@given(string_pairs())
def test_bracket_matches_dense(pair):
    a, b = pair
    want = dense_ref.commutator(
        dense_ref.string_label(a), dense_ref.string_label(b)
    )
    got = bracket(a, b)
    if want is None:
        assert got is None
    else:
        c, lab = want
        assert got is not None
        assert got[0] == pytest.approx(c, abs=1e-12)
        assert dense_ref.string_label(got[1]) == lab


@settings(max_examples=300, derandomize=True)
@given(string_pairs())
def test_bracket_antisymmetry_and_coefficient(pair):
    a, b = pair
    fwd = bracket(a, b)
    rev = bracket(b, a)
    if fwd is None:
        assert rev is None
        assert bracket_normalized(a, b) is None
    else:
        # same basis string both ways, opposite coefficient, always +/-2
        assert rev is not None
        assert fwd[1] == rev[1] == bracket_normalized(a, b) == bracket_normalized(b, a)
        assert fwd[0] == -rev[0]
        assert abs(fwd[0]) == 2.0
        # closure: the result stays a width-n basis string
        assert fwd[1].n_qubits == a.n_qubits


@settings(max_examples=200, derandomize=True)
@given(string_pairs(max_n=3), st.integers(0, (1 << 3) - 1), st.integers(0, (1 << 3) - 1))
def test_unique_edging_operator(pair, x, z):
    # distinct nu != u cannot bracket one string onto the same target
    a, nu = pair
    u = PauliString(a.n_qubits, x & ((1 << a.n_qubits) - 1), z & ((1 << a.n_qubits) - 1))
    if nu == u:
        return
    rn = bracket_normalized(a, nu)
    ru = bracket_normalized(a, u)
    if rn is not None and ru is not None:
        assert rn != ru


def test_phase_free_product_is_mask_xor():
    a, b = ps("X1 Y2", 2), ps("Z1 Y2", 2)
    r = phase_free_product(a, b)
    assert r == multiply(a, b).string


# ---------------------------------------------------------------------------
# decompose


def test_decompose_sum_merges_and_prunes():
    a = ps("X1 X2", 2)
    raw = WeightedPauliSum.merged(
        [(1.0, a), (1.0, a), (1e-14, ps("Z1", 2))], 2
    )
    out = decompose(raw)
    assert [(c, s.to_text()) for c, s in out.terms] == [(2.0, "X1 X2")]


# ---------------------------------------------------------------------------
# bilinear block identity


def test_bilinear_identity_basic():
    assert check_bilinear_decomposition(
        ps("Y1", 2), ps("X2", 2), ps("Y1", 2), ps("Y2", 2)
    )


def test_bilinear_identity_identities():
    i2 = PauliString.identity(2)
    assert check_bilinear_decomposition(i2, i2, i2, i2)


def test_bilinear_identity_random():
    rng = np.random.default_rng(3)
    letters = "IXYZ"
    for _ in range(100):
        a, b = (
            PauliString.from_cells(2, {1: letters[rng.integers(4)]})
            for _ in range(2)
        )
        d, e = (
            PauliString.from_cells(2, {2: letters[rng.integers(4)]})
            for _ in range(2)
        )
        assert check_bilinear_decomposition(a, d, b, e)


def test_bilinear_identity_rejects_overlap():
    with pytest.raises(ValueError):
        check_bilinear_decomposition(
            ps("X1", 2), ps("Y1", 2), ps("X1", 2), ps("Y2", 2)
        )


# ---------------------------------------------------------------------------
# canonical order and basic structure


def test_sort_key_order():
    n = 2
    ordered = sorted(
        (ps(t, n) for t in ("Z1", "X1", "Y1", "X2", "I")),
        key=lambda s: s.sort_key(),
    )
    assert [s.to_text() for s in ordered] == ["I", "X2", "X1", "Y1", "Z1"]


def test_string_accessors():
    s = ps("Y1 Z3", 4)
    assert s.cell(1) == "Y" and s.cell(2) == "I" and s.cell(3) == "Z"
    assert s.support() == (1, 3)
    assert s.highest_site() == 3
    assert PauliString.identity(4).highest_site() == 0


def test_wide_strings_stay_cheap():
    n = 300
    a = PauliString.from_cells(n, {1: "X", n: "Z"})
    b = PauliString.from_cells(n, {n: "X"})
    r = bracket_normalized(a, b)
    assert r is not None and r.cell(n) == "Y"


def test_weighted_sum_rejects_duplicates():
    a = ps("X1", 1)
    with pytest.raises(ValueError):
        WeightedPauliSum(1, ((1.0, a), (2.0, a)))


# ---------------------------------------------------------------------------
# grammar


def test_parse_term_basic():
    s = parse_term("Z1 Z2 X3", 5)
    assert s.cells() == {1: "Z", 2: "Z", 3: "X"}


def test_parse_term_star_separator_and_case():
    assert parse_term("z1*z2 * x3", 3) == parse_term("Z1 Z2 X3", 3)


def test_parse_identity():
    assert parse_term("I", 3).is_identity
    assert parse_term("i", 3).is_identity


def test_parse_sum_exchange():
    w = parse_sum("0.5 * X1 X2 + 0.5 * Y1 Y2", 2)
    assert {(c, s.to_text()) for c, s in w.terms} == {
        (0.5, "X1 X2"),
        (0.5, "Y1 Y2"),
    }


def test_parse_sum_merges_duplicates():
    w = parse_sum("1.0 * X1 X2 + 1.0 * X1 X2", 2)
    assert [(c, s.to_text()) for c, s in w.terms] == [(2.0, "X1 X2")]


def test_parse_sum_bare_and_negative():
    w = parse_sum("X1 + -2.5 * Z2", 2)
    assert {(c, s.to_text()) for c, s in w.terms} == {(1.0, "X1"), (-2.5, "Z2")}


@pytest.mark.parametrize(
    "text,pos",
    [
        ("X0", 1),          # site below range
        ("X4", 1),          # site above range
        ("X1 X1", 3),       # duplicate site
        ("X1 & X2", 3),     # stray character
        ("X", 0),           # missing index
        ("2.0 X1", 4),      # coefficient without '*'
        ("X1 +", 3),        # dangling plus
        ("I2", 0),          # indexed identity
        ("* X1", 0),        # unexpected '*'
        ("X1 2.0 * Y2", 3), # expected '+' between terms
        ("", 0),            # empty operator text
    ],
)
def test_grammar_errors_carry_positions(text, pos):
    with pytest.raises(GrammarError) as err:
        parse_sum(text, 3)
    assert err.value.position == pos


def test_a_term_takes_no_coefficient():
    with pytest.raises(GrammarError, match="coefficient not allowed here") as err:
        parse_term("2.0 * X1", 3)
    assert err.value.position == 0


def test_format_empty_sum():
    assert format_sum(WeightedPauliSum(2, ())) == "0 * I"
    assert format_sum(parse_sum("X1 + -1 * X1", 2).normalized()) == "0 * I"


def test_format_round_trip():
    for text in ("0.5 * X1 X2 + 0.5 * Y1 Y2", "2.5 * Z1 Z5", "I", "X1 + Y2"):
        w = parse_sum(text, 5)
        again = parse_sum(format_sum(w), 5)
        assert set(w.terms) == set(again.terms)
