"""The vectorised float text of the trajectory CSV, against ``repr``."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from pauliaccess._reprtext import CELLS, rows_text
from pauliaccess.statespace import SimulationResult, trajectory_to_csv


def reference(block: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def assert_same(values, cols: int = 1) -> None:
    """rows_text equals repr on ``values`` laid out ``cols`` to a row,
    naming the first value that differs."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    block = values.reshape(-1, cols)
    got, want = rows_text(block), reference(block)
    if got != want:
        pairs = zip(got.replace("\n", ",").split(","), want.replace("\n", ",").split(","))
        bad = next((g, w) for g, w in pairs if g != w)
        raise AssertionError(f"wrote {bad[0]!r} where repr gives {bad[1]!r}")


def ties() -> list[float]:
    """Values whose shortest digits need a tie or an interval edge decided.

    Rounding ties: the exact value has one digit more than the 17 it is cut
    to, and that digit is 5 (odd multiples of 2^-2 and 2^-3 around 1e15).
    Interval edges: T = c * 10^j with c * 5^j in [2^53, 2^54) is exactly
    half an ulp from the doubles T +/- 2^j, as 1e23 is from its double.
    """
    rng = np.random.default_rng(7)
    values = []
    for shift, lo in ((2, 2**50), (3, 2**49)):
        m = rng.integers(lo, 2 * lo, size=200) * 2**shift + rng.integers(0, 2**shift, size=200)
        values += [math.ldexp(int(v) | 1, -shift) for v in m]
    for j in range(1, 23):
        for c in range(2**53 // 5**j + 1, 2**54 // 5**j, max(1, 2**53 // 5**j // 40)):
            if c % 2 == 0 or not 2**53 <= c * 5**j < 2**54:
                continue
            t = c * 10**j
            for v in (t - 2**j, t + 2**j):
                assert Fraction(float(v)) == v  # exactly representable
                values.append(float(v))
    values.append(1e23)
    return values


def edges() -> list[float]:
    """Powers of ten +/- 1 ulp at every decimal exponent, powers of two, the
    extremes, the switches between fixed and exponent notation, and the ends
    of the fast path's exponent table."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [math.nan, math.inf, -math.inf, 1.0, 0.1, 0.5, 1e-4, 1e16, 1e22, 9.5, 0.3]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
        values += [float(f"9.999999999999999e{k}") if k < 308 else p]
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    for switch in (1e-4, 1e16, 1e-291, 1e-292, 1e298, 1e299, 1e300):
        x = switch
        for _ in range(3):
            x = math.nextafter(x, 0.0)
        for _ in range(7):
            values.append(x)
            x = math.nextafter(x, math.inf)
    values += [9999999999999998.0, 1234567890123456.0, 123456789012345.67, 0.00012345]
    return values + [-v for v in values]


def test_edge_values_match_repr():
    assert_same(edges(), cols=7)


def test_ties_and_interval_edges_match_repr():
    assert_same(ties(), cols=5)


def test_a_million_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20181)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_same(from_bits(bits), cols=1000)


def test_trajectory_like_values_match_repr():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200_000) * 10.0 ** rng.integers(-80, 3, size=200_000)
    x[rng.random(x.size) < 0.05] = 0.0
    assert_same(x, cols=313)


floats_any = st.one_of(
    st.floats(),  # nan, +/-inf, +/-0.0 and subnormals included
    st.integers(0, 2**64 - 1).map(lambda b: float(from_bits([b])[0])),
    st.sampled_from(edges()),
    st.integers(-(10**17), 10**17).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda cols: st.tuples(
    st.just(cols), st.lists(floats_any, min_size=1, max_size=60)
)))
def test_rows_of_arbitrary_floats_match_repr(case):
    cols, values = case
    assert_same(values, cols)


def test_blocks_wider_than_a_slice_keep_their_rows():
    # slices of CELLS values end mid-row; the newlines must still close rows
    rng = np.random.default_rng(11)
    block = rng.standard_normal((3, CELLS + 17))
    assert rows_text(block) == reference(block)


def test_trajectory_csv_is_repr_joined():
    rng = np.random.default_rng(4)
    states = rng.standard_normal((7, CELLS // 3)) * 1e-3
    states[0] = np.sign(states[0])  # x0 of a product state: +/-1
    states[1, ::5] = 0.0
    times = np.linspace(0.0, 0.6, 7)
    res = SimulationResult(times, states, states[:, :2] * 0.5)
    dim = states.shape[1]
    header = ",".join(["t", *(f"x_{i}" for i in range(1, dim + 1)), "y_1", "y_2"]) + "\n"
    want = header + reference(np.column_stack((times, states, res.outputs)))
    assert trajectory_to_csv(res) == want
