"""Bit-packed N-qubit Pauli strings and their exact, phase-tracked algebra.

A Pauli string (a tensor product of I, X, Y, Z over sites 1..n) is stored as
two integer bit masks: bit j-1 of ``x_mask`` is set when site j carries X or
Y, bit j-1 of ``z_mask`` when it carries Z or Y.  Python integers act as
growable bitsets, so strings over hundreds of sites stay cheap while small
widths ride on machine words.

Writing each cell as i^(x*z) X^x Z^z, the product of two strings equals
i^phi times a third string, with

    phi = pc(xa & za) + pc(xb & zb) + 2*pc(za & xb) - pc(xc & zc)   (mod 4)

where pc is popcount and (xc, zc) = (xa ^ xb, za ^ zb).  Two strings
anticommute exactly when pc(xa & zb) + pc(za & xb) is odd, in which case
[a, b] = 2ab; commutators therefore never leave the string basis.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "PauliString",
    "PhasedString",
    "PauliTable",
    "BracketTable",
    "WeightedPauliSum",
    "DimensionMismatchError",
    "GrammarError",
    "multiply",
    "phase_free_product",
    "bracket",
    "bracket_normalized",
    "apply_sequence",
    "decompose",
    "check_bilinear_decomposition",
    "parse_term",
    "parse_sum",
    "format_sum",
]

CELL_LETTERS = "IXYZ"

# canonical cell codes: I=0 < X=1 < Y=2 < Z=3
_CODE_FROM_BITS = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
_LETTER_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FROM_LETTER = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: largest width for which dense 2^n matrices are built
DENSE_CAP = 12

#: decomposition coefficients below this magnitude are dropped
DECOMPOSE_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class GrammarError(ValueError):
    """Operator text failed to parse; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _require_same_width(a: "PauliString", b: "PauliString") -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"operands act on {a.n_qubits} and {b.n_qubits} qubits"
        )


@dataclass(frozen=True)
class PauliString:
    """Phase-free tensor product of single-site Pauli operators.

    Equality is bitwise on the masks; no coefficient or phase is carried.
    Site indices are 1-based throughout the public API.
    """

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask has bits outside the qubit range")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_cells(cls, n_qubits: int, cells: Mapping[int, str]) -> "PauliString":
        """Build from a {site: letter} mapping; omitted sites are identity."""
        x = z = 0
        for site, letter in cells.items():
            if not 1 <= site <= n_qubits:
                raise ValueError(f"site {site} outside 1..{n_qubits}")
            xb, zb = _BITS_FROM_LETTER[letter.upper()]
            bit = 1 << (site - 1)
            x |= xb * bit
            z |= zb * bit
        return cls(n_qubits, x, z)

    @classmethod
    def from_text(cls, text: str, n_qubits: int) -> "PauliString":
        """Parse a single operator term, e.g. ``"Z1 Z2 X3"`` or ``"I"``."""
        return parse_term(text, n_qubits)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def cell(self, site: int) -> str:
        """Letter at 1-based ``site``."""
        if not 1 <= site <= self.n_qubits:
            raise ValueError(f"site {site} outside 1..{self.n_qubits}")
        bit = site - 1
        return _LETTER_FROM_BITS[(self.x_mask >> bit) & 1, (self.z_mask >> bit) & 1]

    def cells(self) -> dict[int, str]:
        """Non-identity sites as {site: letter}."""
        out = {}
        occ = self.x_mask | self.z_mask
        site = 1
        while occ:
            if occ & 1:
                out[site] = self.cell(site)
            occ >>= 1
            site += 1
        return out

    def support(self) -> tuple[int, ...]:
        return tuple(self.cells())

    def highest_site(self) -> int:
        """Highest non-identity site; 0 for the identity string."""
        return (self.x_mask | self.z_mask).bit_length()

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def commutes_with(self, other: "PauliString") -> bool:
        _require_same_width(self, other)
        return not (
            ((self.x_mask & other.z_mask).bit_count()
             ^ (self.z_mask & other.x_mask).bit_count()) & 1
        )

    def sort_key(self) -> bytes:
        """Canonical total order: per-site codes, site 1 first, I<X<Y<Z."""
        return bytes(
            _CODE_FROM_BITS[(self.x_mask >> b) & 1, (self.z_mask >> b) & 1]
            for b in range(self.n_qubits)
        )

    def to_text(self) -> str:
        if self.is_identity:
            return "I"
        return " ".join(f"{letter}{site}" for site, letter in self.cells().items())

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (site 1 is the leftmost tensor factor)."""
        if self.n_qubits > DENSE_CAP:
            raise ValueError(
                f"dense matrix for {self.n_qubits} qubits exceeds cap {DENSE_CAP}"
            )
        m = np.array([[1.0 + 0j]])
        for site in range(1, self.n_qubits + 1):
            m = np.kron(m, _SIGMA[self.cell(site)])
        return m

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class PhasedString:
    """A Pauli string together with an i^phase_exponent prefactor."""

    phase_exponent: int  # mod 4
    string: PauliString

    @property
    def phase(self) -> complex:
        return 1j ** (self.phase_exponent % 4)


@dataclass(frozen=True)
class WeightedPauliSum:
    """Real linear combination of Pauli strings (Hermitian by construction).

    Duplicate strings are rejected; use :meth:`merged` to combine raw
    (coefficient, string) pairs.  Zero coefficients are allowed so that
    structure survives vanishing couplings; :meth:`normalized` drops them.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        seen = set()
        for _, s in self.terms:
            if s.n_qubits != self.n_qubits:
                raise DimensionMismatchError(
                    f"term on {s.n_qubits} qubits in a {self.n_qubits}-qubit sum"
                )
            key = (s.x_mask, s.z_mask)
            if key in seen:
                raise ValueError(f"duplicate string {s} in sum")
            seen.add(key)

    @classmethod
    def merged(
        cls, pairs: Iterable[tuple[float, PauliString]], n_qubits: int
    ) -> "WeightedPauliSum":
        """Sum duplicate strings; keeps zero coefficients."""
        acc: dict[tuple[int, int], list] = {}
        for c, s in pairs:
            key = (s.x_mask, s.z_mask)
            if key in acc:
                acc[key][0] += c
            else:
                acc[key] = [float(c), s]
        return cls(n_qubits, tuple((c, s) for c, s in acc.values()))

    def strings(self) -> tuple[PauliString, ...]:
        return tuple(s for _, s in self.terms)

    def normalized(self, tol: float = DECOMPOSE_TOL) -> "WeightedPauliSum":
        """Drop |coeff| < tol and order terms canonically."""
        kept = [(c, s) for c, s in self.terms if abs(c) >= tol]
        kept.sort(key=lambda t: t[1].sort_key())
        return WeightedPauliSum(self.n_qubits, tuple(kept))

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((2 ** self.n_qubits,) * 2, dtype=complex)
        for c, s in self.terms:
            m += c * s.to_matrix()
        return m

    def __str__(self) -> str:
        return format_sum(self)


# ---------------------------------------------------------------------------
# products and commutators


def multiply(a: PauliString, b: PauliString) -> PhasedString:
    """Exact product: a*b = i^phi * r with r phase-free."""
    _require_same_width(a, b)
    xc = a.x_mask ^ b.x_mask
    zc = a.z_mask ^ b.z_mask
    phi = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (xc & zc).bit_count()
    ) % 4
    return PhasedString(phi, PauliString(a.n_qubits, xc, zc))


def phase_free_product(a: PauliString, b: PauliString) -> PauliString:
    """Product with the phase discarded (the string part of :func:`multiply`)."""
    _require_same_width(a, b)
    return PauliString(a.n_qubits, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)


def bracket(a: PauliString, b: PauliString) -> Optional[tuple[float, PauliString]]:
    """Commutator [a, b] = i*c*r with real c, or None when a and b commute.

    For anticommuting strings [a, b] = 2ab, so c is always +2 or -2.
    """
    _require_same_width(a, b)
    if (((a.x_mask & b.z_mask).bit_count()
         ^ (a.z_mask & b.x_mask).bit_count()) & 1) == 0:
        return None
    prod = multiply(a, b)
    # anticommuting Hermitian strings have an anti-Hermitian product: phi is odd
    assert prod.phase_exponent % 2 == 1, "internal phase bookkeeping error"
    c = 2.0 if prod.phase_exponent == 1 else -2.0
    return c, prod.string


def bracket_normalized(a: PauliString, b: PauliString) -> Optional[PauliString]:
    """The unique basis string proportional to [a, b], or None if commuting."""
    _require_same_width(a, b)
    if (((a.x_mask & b.z_mask).bit_count()
         ^ (a.z_mask & b.x_mask).bit_count()) & 1) == 0:
        return None
    return PauliString(a.n_qubits, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)


def apply_sequence(
    start: PauliString, sequence: Sequence[PauliString]
) -> Optional[PauliString]:
    """Fold :func:`bracket_normalized` along an edging sequence.

    Returns None as soon as any step commutes (the path breaks).
    """
    cur = start
    for nu in sequence:
        nxt = bracket_normalized(cur, nu)
        if nxt is None:
            return None
        cur = nxt
    return cur


# ---------------------------------------------------------------------------
# packed tables
#
# A PauliTable holds M strings of one width as the x|z tableau of Aaronson
# and Gottesman (quant-ph/0406196): uint64[M, ceil(N/64)] words per mask,
# bit b of word w standing for site 64*w + b + 1 as in PauliString.

_WORD = (1 << 64) - 1


def _cell_code_table() -> np.ndarray:
    """Canonical codes of 8 sites at once, indexed by (z byte << 8) | (x^z byte).

    A cell's code I=0 < X=1 < Y=2 < Z=3 is 2*z + (x^z).  The result packs the
    eight codes into 16 bits with the lowest site most significant, so a row
    of big-endian codes compares bytewise exactly like :meth:`PauliString.sort_key`.
    """
    site = np.arange(8, dtype=np.uint16)
    bits = (np.arange(256, dtype=np.uint16)[:, None] >> site) & 1
    spread = (bits << (14 - 2 * site)).sum(axis=1, dtype=np.uint16)
    return ((spread[:, None] << 1) | spread).reshape(-1)


_CELL_CODES = _cell_code_table()

#: (member, string, word) cells per bracket-table chunk: 2 MB per uint64 temporary
_CHUNK_CELLS = 1 << 18


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class BracketTable:
    """Anticommuting (member, string) pairs of a packed set, member-major.

    For pair p, [strings[string[p]], members[member[p]]] equals
    i * sign[p] * members[target[p]], with sign[p] = +/-2.  ``target[p]`` is
    -1 when the bracket's string is not a member.
    """

    member: np.ndarray
    string: np.ndarray
    target: np.ndarray
    sign: np.ndarray


class PauliTable:
    """Strings of one width packed as x/z words, with a canonical rank.

    ``canonical_ranks()[i]`` is the position of string i in
    :meth:`PauliString.sort_key` order; it and the member lookup behind
    :meth:`brackets` are built once, on first use.
    """

    def __init__(self, n_qubits: int, x: np.ndarray, z: np.ndarray):
        self.n_qubits = n_qubits
        self.x = x
        self.z = z
        self._keys: Optional[np.ndarray] = None
        self._sorted: Optional[np.ndarray] = None

    @classmethod
    def from_strings(cls, strings: Sequence[PauliString], n_qubits: int) -> "PauliTable":
        for s in strings:
            if s.n_qubits != n_qubits:
                raise DimensionMismatchError(
                    f"string {s} acts on {s.n_qubits} qubits, expected {n_qubits}"
                )
        m = len(strings)
        words = (n_qubits + 63) // 64
        x = np.empty((m, words), dtype=np.uint64)
        z = np.empty((m, words), dtype=np.uint64)
        for w in range(words):
            shift = 64 * w
            x[:, w] = np.fromiter(((s.x_mask >> shift) & _WORD for s in strings), np.uint64, m)
            z[:, w] = np.fromiter(((s.z_mask >> shift) & _WORD for s in strings), np.uint64, m)
        return cls(n_qubits, x, z)

    def __len__(self) -> int:
        return self.x.shape[0]

    def _canonical(self) -> None:
        keys = _canonical_keys(self.x, self.z)
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        dup = np.flatnonzero(ranked[1:] == ranked[:-1])
        if dup.size:
            i = int(order[dup[0]])
            raise ValueError(f"duplicate string at rows {i} and {int(order[dup[0] + 1])}")
        self._keys = ranked
        self._sorted = order

    def canonical_ranks(self) -> np.ndarray:
        """Rank of each row in canonical string order; rows must be distinct."""
        if self._sorted is None:
            self._canonical()
        ranks = np.empty(len(self), dtype=np.int64)
        ranks[self._sorted] = np.arange(len(self))
        return ranks

    def _lookup(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row index of each queried (x, z) row, -1 when it is not in the table."""
        if self._sorted is None:
            self._canonical()
        if len(self) == 0:
            return np.full(x.shape[0], -1, dtype=np.int64)
        query = _canonical_keys(x, z)
        pos = np.minimum(np.searchsorted(self._keys, query), len(self) - 1)
        return np.where(self._keys[pos] == query, self._sorted[pos], -1)

    def brackets(self, strings: "PauliTable") -> BracketTable:
        """Every anticommuting (row, string) pair with its bracket's sign and target.

        Works in row chunks so the temporaries stay at a few MB.
        """
        if strings.n_qubits != self.n_qubits:
            raise DimensionMismatchError(
                f"tables act on {self.n_qubits} and {strings.n_qubits} qubits"
            )
        vx, vz = strings.x, strings.z
        v_y = _popcount_rows(vx & vz)
        step = max(1, _CHUNK_CELLS // max(1, vx.size))
        parts = []
        for lo in range(0, len(self), step):
            mx, mz = self.x[lo : lo + step], self.z[lo : lo + step]
            odd = _popcount_rows((mx[:, None] & vz) ^ (mz[:, None] & vx)) & 1
            rows, cols = np.nonzero(odd)
            bx, bz = mx[rows], mz[rows]
            ax, az = vx[cols], vz[cols]
            tx, tz = ax ^ bx, az ^ bz
            # phase of the product a*b (multiply), a = string, b = member
            phi = (
                v_y[cols]
                + _popcount_rows(bx & bz)
                + 2 * _popcount_rows(az & bx)
                - _popcount_rows(tx & tz)
            ) & 3
            parts.append((rows + lo, cols, self._lookup(tx, tz), np.where(phi == 1, 2, -2)))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return BracketTable(empty, empty, empty, empty.astype(np.int8))
        member, string, target, sign = (np.concatenate(p) for p in zip(*parts))
        return BracketTable(member, string, target, sign.astype(np.int8))


def _canonical_keys(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One opaque key per row whose bytewise order is the canonical string order."""
    high = z.astype("<u8").view(np.uint8).astype(np.uint16)
    low = (x ^ z).astype("<u8").view(np.uint8)
    codes = _CELL_CODES[(high << 8) | low].astype(">u2")
    return codes.view(np.dtype((np.void, codes.shape[1] * 2))).reshape(-1)


# ---------------------------------------------------------------------------
# basis decomposition

#: widths above this are refused by matrix-input decompose
DECOMPOSE_CAP = 8


def _parity_table(n: int) -> np.ndarray:
    t = np.arange(1 << n, dtype=np.int64)
    p = np.zeros(1 << n, dtype=np.int64)
    while True:
        p ^= t & 1
        t >>= 1
        if not t.any():
            break
    return p


def _reverse_bits(v: int, n: int) -> int:
    # masks put site 1 at bit 0; dense indices put site 1 at the high bit
    r = 0
    for _ in range(n):
        r = (r << 1) | (v & 1)
        v >>= 1
    return r


def decompose(
    operator: Union[np.ndarray, WeightedPauliSum],
    n_qubits: Optional[int] = None,
    tol: float = DECOMPOSE_TOL,
) -> WeightedPauliSum:
    """Minimal Pauli-basis expansion of a Hermitian operator.

    Accepts either a dense Hermitian matrix (dimension 2^n, n <= 8) or an
    existing sum, which is merged, pruned of |coeff| < tol and canonically
    ordered.  Matrix coefficients come from the normalized trace inner
    product Tr(P M) / 2^n.
    """
    if isinstance(operator, WeightedPauliSum):
        return WeightedPauliSum.merged(operator.terms, operator.n_qubits).normalized(tol)

    mat = np.asarray(operator, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or dim < 2:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n_qubits is not None and n_qubits != n:
        raise DimensionMismatchError(f"matrix is {n} qubits, expected {n_qubits}")
    if n > DECOMPOSE_CAP:
        raise ValueError(f"decompose cap is {DECOMPOSE_CAP} qubits, got {n}")
    if not np.allclose(mat, mat.conj().T, atol=1e-10):
        raise ValueError("operator is not Hermitian")

    # Tr(P M) = sum_c i^pc(x&z) * (-1)^pc(z&c) * M[c, c^x], with x, z in
    # dense-index bit order
    cols = np.arange(dim)
    parity = _parity_table(n)
    terms = []
    for x in range(dim):
        col_vals = mat[cols, cols ^ x]
        for z in range(dim):
            signs = 1.0 - 2.0 * parity[cols & z]
            c = (1j ** ((x & z).bit_count() % 4)) * np.dot(signs, col_vals) / dim
            if abs(c) < tol:
                continue
            assert abs(c.imag) < 1e-9, "Hermitian input must give real coefficients"
            terms.append(
                (float(c.real), PauliString(n, _reverse_bits(x, n), _reverse_bits(z, n)))
            )
    terms.sort(key=lambda t: t[1].sort_key())
    return WeightedPauliSum(n, tuple(terms))


def check_bilinear_decomposition(
    a: PauliString, d: PauliString, b: PauliString, e: PauliString
) -> bool:
    """Dense check of the block commutator identity.

    With a, b supported on one site block and d, e on a disjoint one,
    [a*d, b*e] must equal [a,b]*(d*e) + (b*a)*[d,e].  Used only as a
    property-test oracle.
    """
    for other in (d, b, e):
        _require_same_width(a, other)
    left = set(a.support()) | set(b.support())
    right = set(d.support()) | set(e.support())
    if left & right:
        raise ValueError(f"site blocks overlap: {sorted(left & right)}")

    am, dm, bm, em = (p.to_matrix() for p in (a, d, b, e))

    def comm(u, v):
        return u @ v - v @ u

    lhs = comm(am @ dm, bm @ em)
    rhs = comm(am, bm) @ (dm @ em) + (bm @ am) @ comm(dm, em)
    return np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# operator text grammar
#
# term: cell tokens X<k>/Y<k>/Z<k> (1-based sites) separated by whitespace or
# '*'; bare 'I' is the identity.  Sums: real coefficients attach with '*' and
# terms join with '+', e.g. "0.5 * X1 X2 + 0.5 * Y1 Y2".  Case-insensitive.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<cell>[IXYZixyz]\d*)"
    r"|(?P<star>\*)"
    r"|(?P<plus>\+)"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GrammarError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


def _parse_cell(token: str, pos: int, n_qubits: int) -> tuple[str, int]:
    letter = token[0].upper()
    index = token[1:]
    if letter == "I":
        if index:
            raise GrammarError("identity token takes no site index", pos)
        return letter, 0
    if not index:
        raise GrammarError(f"cell {letter} is missing its site index", pos)
    site = int(index)
    if not 1 <= site <= n_qubits:
        raise GrammarError(
            f"site index {site} outside 1..{n_qubits}", pos + 1
        )
    return letter, site


def _parse_one_term(tokens, i, n_qubits: int, allow_coeff: bool):
    """Parse [number '*'] cell+ starting at token i; returns (coeff, string, i)."""
    coeff = 1.0
    if i < len(tokens) and tokens[i][0] == "number":
        if not allow_coeff:
            raise GrammarError("coefficient not allowed here", tokens[i][2])
        coeff = float(tokens[i][1])
        i += 1
        if i >= len(tokens) or tokens[i][0] != "star":
            pos = tokens[i][2] if i < len(tokens) else tokens[i - 1][2]
            raise GrammarError("coefficient must be followed by '*'", pos)
        i += 1
    cells: dict[int, str] = {}
    saw_identity = False
    saw_cell = False
    while i < len(tokens) and tokens[i][0] in ("cell", "star"):
        kind, tok, pos = tokens[i]
        if kind == "star":
            if not saw_cell:
                raise GrammarError("unexpected '*'", pos)
            i += 1
            if i >= len(tokens) or tokens[i][0] != "cell":
                raise GrammarError("expected an operator after '*'", pos)
            continue
        letter, site = _parse_cell(tok, pos, n_qubits)
        if letter == "I":
            saw_identity = True
        else:
            if site in cells:
                raise GrammarError(f"duplicate site index {site} in term", pos)
            cells[site] = letter
        saw_cell = True
        i += 1
    if not saw_cell:
        pos = tokens[i][2] if i < len(tokens) else 0
        raise GrammarError("expected an operator term", pos)
    if saw_identity and cells:
        raise GrammarError("identity cannot be combined with other cells", tokens[i - 1][2])
    return coeff, PauliString.from_cells(n_qubits, cells), i


#: highest site the canonical-text table covers; higher sites take the tokenizer
_CANONICAL_SITES = 4096


@functools.lru_cache(maxsize=8)
def _canonical_cells(n_qubits: int) -> dict[str, tuple[int, int, int]]:
    """The cell tokens ``to_text`` emits at this width: token -> (site, x, z)."""
    cells = {}
    for site in range(1, min(n_qubits, _CANONICAL_SITES) + 1):
        bit = 1 << (site - 1)
        for letter in "XYZ":
            xb, zb = _BITS_FROM_LETTER[letter]
            cells[f"{letter}{site}"] = (site, xb * bit, zb * bit)
    return cells


def _parse_canonical(text: str, n_qubits: int) -> Optional[PauliString]:
    """The string of canonical text (``to_text`` output), else None."""
    if text == "I":
        return PauliString(n_qubits, 0, 0)
    cells = _canonical_cells(n_qubits)
    x = z = last = 0
    for token in text.split(" "):
        cell = cells.get(token)
        if cell is None or cell[0] <= last:
            return None
        last = cell[0]
        x |= cell[1]
        z |= cell[2]
    return PauliString(n_qubits, x, z)


def parse_term(text: str, n_qubits: int) -> PauliString:
    """Parse a single coefficient-free term such as ``"Y1 Z2"``.

    Canonical text (sites strictly ascending, one space apart, or bare ``I``)
    is read through a table of cell tokens; anything else goes through the
    full grammar.
    """
    if isinstance(text, str):
        fast = _parse_canonical(text, n_qubits)
        if fast is not None:
            return fast
    tokens = _tokenize(text)
    if not tokens:
        raise GrammarError("empty operator text", 0)
    coeff, string, i = _parse_one_term(tokens, 0, n_qubits, allow_coeff=False)
    if i != len(tokens):
        raise GrammarError("trailing input after term", tokens[i][2])
    return string


def parse_sum(text: str, n_qubits: int) -> WeightedPauliSum:
    """Parse a sum of weighted terms; duplicate strings are merged."""
    tokens = _tokenize(text)
    if not tokens:
        raise GrammarError("empty operator text", 0)
    pairs = []
    i = 0
    while True:
        coeff, string, i = _parse_one_term(tokens, i, n_qubits, allow_coeff=True)
        pairs.append((coeff, string))
        if i == len(tokens):
            break
        if tokens[i][0] != "plus":
            raise GrammarError("expected '+' between terms", tokens[i][2])
        i += 1
        if i == len(tokens):
            raise GrammarError("dangling '+' at end of input", tokens[i - 1][2])
    return WeightedPauliSum.merged(pairs, n_qubits)


def format_sum(wps: WeightedPauliSum) -> str:
    """Canonical text for a sum; round-trips through :func:`parse_sum`."""
    if not wps.terms:
        return "0 * I"
    return " + ".join(f"{c!r} * {s.to_text()}" for c, s in wps.terms)
