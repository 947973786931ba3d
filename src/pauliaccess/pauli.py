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
    "canonical_digamma",
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

#: i^k for k = 0..3, exact
_I_POWERS = np.array([1, 1j, -1, -1j], dtype=complex)

#: largest width for which dense 2^n matrices are built, here and in the
#: dense oracle and density-matrix initial states
DENSE_CAP = 10

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


def check_widths(strings: Iterable["PauliString"], n_qubits: int) -> None:
    for s in strings:
        if s.n_qubits != n_qubits:
            raise DimensionMismatchError(
                f"string {s} acts on {s.n_qubits} qubits, expected {n_qubits}"
            )


def _check_dense(n_qubits: int) -> None:
    if n_qubits > DENSE_CAP:
        raise ValueError(f"dense matrix for {n_qubits} qubits exceeds cap {DENSE_CAP}")


def _reverse_bits(v: int, n: int) -> int:
    # masks put site 1 at bit 0; dense indices put site 1 at the high bit
    r = 0
    for _ in range(n):
        r = (r << 1) | (v & 1)
        v >>= 1
    return r


def _signed_permutation(s: "PauliString") -> tuple[np.ndarray, np.ndarray]:
    """Column and value of the one nonzero in each row of ``s.to_matrix()``."""
    # with x, z in dense-index bit order, row r holds
    # i^pc(x&z) * (-1)^pc(z & (r^x)) at column r^x
    x, z = (_reverse_bits(mask, s.n_qubits) for mask in (s.x_mask, s.z_mask))
    cols = np.arange(1 << s.n_qubits) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    return cols, _I_POWERS[(x & z).bit_count() % 4] * signs


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
        _check_dense(self.n_qubits)
        dim = 1 << self.n_qubits
        cols, vals = _signed_permutation(self)
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(dim), cols] = vals
        return m

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class PhasedString:
    """A Pauli string together with an i^phase_exponent prefactor."""

    phase_exponent: int  # mod 4
    string: PauliString


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
        check_widths(self.strings(), self.n_qubits)
        seen = set()
        for _, s in self.terms:
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

    def normalized(self) -> "WeightedPauliSum":
        """Drop |coeff| < DECOMPOSE_TOL and order terms canonically."""
        kept = [(c, s) for c, s in self.terms if abs(c) >= DECOMPOSE_TOL]
        kept.sort(key=lambda t: t[1].sort_key())
        return WeightedPauliSum(self.n_qubits, tuple(kept))

    def to_matrix(self) -> np.ndarray:
        _check_dense(self.n_qubits)
        dim = 1 << self.n_qubits
        rows = np.arange(dim)
        m = np.zeros((dim, dim), dtype=complex)
        for c, s in self.terms:
            cols, vals = _signed_permutation(s)
            m[rows, cols] += c * vals
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

    The product ab = i^phi r of Hermitian strings is Hermitian, phi even,
    exactly when they commute.  Otherwise [a, b] = 2ab, so c is +2 or -2.
    """
    prod = multiply(a, b)
    if prod.phase_exponent % 2 == 0:
        return None
    c = 2.0 if prod.phase_exponent == 1 else -2.0
    return c, prod.string


def bracket_normalized(a: PauliString, b: PauliString) -> Optional[PauliString]:
    """The unique basis string proportional to [a, b], or None if commuting."""
    _require_same_width(a, b)
    if (((a.x_mask & b.z_mask).bit_count()
         ^ (a.z_mask & b.x_mask).bit_count()) & 1) == 0:
        return None
    return PauliString(a.n_qubits, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)


def canonical_digamma(strings: Iterable[PauliString]) -> list[PauliString]:
    """The decomposed Hamiltonian set: distinct non-identity strings, canonical order.

    The identity commutes with everything, so it never edges two members.
    """
    out = {}
    for s in strings:
        if not s.is_identity:
            out.setdefault((s.x_mask, s.z_mask), s)
    return sorted(out.values(), key=lambda s: s.sort_key())


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


@functools.lru_cache(maxsize=8)
def _cell_tokens(n_qubits: int) -> np.ndarray:
    """The ``to_text`` token of code c at site s + 1, at index 4*s + c."""
    return np.array(
        [f"{letter}{site}" for site in range(1, n_qubits + 1) for letter in CELL_LETTERS],
        dtype=object,
    )


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
        check_widths(strings, n_qubits)
        m = len(strings)
        words = (n_qubits + 63) // 64
        x = np.empty((m, words), dtype=np.uint64)
        z = np.empty((m, words), dtype=np.uint64)
        for w in range(words):
            shift = 64 * w
            x[:, w] = np.fromiter(((s.x_mask >> shift) & _WORD for s in strings), np.uint64, m)
            z[:, w] = np.fromiter(((s.z_mask >> shift) & _WORD for s in strings), np.uint64, m)
        return cls(n_qubits, x, z)

    @classmethod
    def from_keys(cls, keys: Sequence[int], n_qubits: int) -> "PauliTable":
        """Rows from packed ints ``x | z << n_qubits``, as :meth:`keys` gives."""
        m = len(keys)
        words = (n_qubits + 63) // 64
        full = (1 << n_qubits) - 1
        x = np.empty((m, words), dtype=np.uint64)
        z = np.empty((m, words), dtype=np.uint64)
        for w in range(words):
            shift, low = 64 * w, (full >> 64 * w) & _WORD
            x[:, w] = np.fromiter(((k >> shift) & low for k in keys), np.uint64, m)
            z[:, w] = np.fromiter(((k >> n_qubits + shift) & _WORD for k in keys), np.uint64, m)
        return cls(n_qubits, x, z)

    @classmethod
    def from_texts(cls, texts: Sequence[str], n_qubits: int) -> "PauliTable":
        """:func:`parse_term` of every text, with canonical text read in bulk.

        A row is canonical when it is ``to_text`` output: bare ``I``, or
        tokens X/Y/Z followed by a site of up to 4 digits without a leading
        zero, sites strictly ascending inside 1..n_qubits, one space apart.
        Those rows are parsed together with numpy on the joined ASCII bytes;
        every other row (all of them, when the text is not ASCII) goes
        through :func:`parse_term`, in row order, so its errors are the same.
        """
        m = len(texts)
        words = (n_qubits + 63) // 64
        x = np.zeros((m, words), dtype=np.uint64)
        z = np.zeros((m, words), dtype=np.uint64)
        try:
            ok = _parse_canonical_rows(texts, n_qubits, x, z)
        except UnicodeEncodeError:
            ok = np.zeros(m, dtype=bool)
        for i in np.flatnonzero(~ok).tolist():
            s = parse_term(texts[i], n_qubits)
            for w in range(words):
                x[i, w] = (s.x_mask >> 64 * w) & _WORD
                z[i, w] = (s.z_mask >> 64 * w) & _WORD
        return cls(n_qubits, x, z)

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, rows) -> "PauliTable":
        """The table of the given rows, in the given order."""
        return PauliTable(self.n_qubits, self.x[rows], self.z[rows])

    def strings(self) -> tuple[PauliString, ...]:
        """Every row as a :class:`PauliString`."""
        return strings_from_keys(self.keys(), self.n_qubits)

    def string(self, i: int) -> PauliString:
        """Row i as a :class:`PauliString`."""
        return self.take([i]).strings()[0]

    def keys(self) -> list[int]:
        """One int ``x | z << n_qubits`` per row, as :meth:`from_keys` reads."""
        n = self.n_qubits
        return [x | z << n for x, z in zip(_row_ints(self.x), _row_ints(self.z))]

    def highest_sites(self) -> np.ndarray:
        """:meth:`PauliString.highest_site` of every row; 0 for the identity."""
        occ = self.x | self.z
        for shift in (1, 2, 4, 8, 16, 32):
            occ |= occ >> np.uint64(shift)
        # each word is now ones up to its highest set bit
        lengths = np.bitwise_count(occ).astype(np.int64)
        offsets = 64 * np.arange(occ.shape[1], dtype=np.int64)
        return np.where(lengths > 0, lengths + offsets, 0).max(axis=1, initial=0)

    def cell_codes(self) -> np.ndarray:
        """uint8[M, N] cell codes, site 1 first: I=0 < X=1 < Y=2 < Z=3 as in
        :meth:`PauliString.sort_key`."""
        n = self.n_qubits
        x, z = (
            np.unpackbits(w.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :n]
            for w in (self.x, self.z)
        )
        return (z << 1) | (x ^ z)

    def texts(self) -> list[str]:
        """:meth:`PauliString.to_text` of every row, rendered in one pass."""
        codes = self.cell_codes()
        rows, sites = np.nonzero(codes)
        cells = _cell_tokens(self.n_qubits)[4 * sites + codes[rows, sites]].tolist()
        ends = np.bincount(rows, minlength=len(self)).cumsum().tolist()
        out, start = [], 0
        for end in ends:
            out.append(" ".join(cells[start:end]) if end > start else "I")
            start = end
        return out

    def traces(self, mat: np.ndarray) -> np.ndarray:
        """Tr(P M) of every row P for a dense 2^n x 2^n matrix M.

        The formula of :func:`pauli_trace`, evaluated in row chunks so the
        temporaries stay at a few MB.
        """
        dim = 1 << self.n_qubits
        if mat.shape != (dim, dim):
            raise DimensionMismatchError(f"matrix shape {mat.shape}, expected {(dim, dim)}")
        codes = self.cell_codes()
        zbits = codes >> 1
        xbits = (codes & 1) ^ zbits
        # dense indices put site 1 at the high bit
        weights = 1 << np.arange(self.n_qubits - 1, -1, -1, dtype=np.int64)
        x, z = xbits @ weights, zbits @ weights
        cols = np.arange(dim)
        sums = np.empty(len(self), dtype=complex)
        step = max(1, _CHUNK_CELLS // dim)
        for lo in range(0, len(self), step):
            xs, zs = x[lo : lo + step, None], z[lo : lo + step, None]
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & zs) & 1)
            sums[lo : lo + step] = (signs * mat[cols, cols ^ xs]).sum(axis=1)
        return _I_POWERS[np.bitwise_count(x & z) % 4] * sums

    def _canonical(self) -> None:
        keys = _canonical_keys(self.x, self.z)
        # stable, so equal rows stay in row order
        self._sorted = np.argsort(keys, kind="stable")
        self._keys = keys[self._sorted]

    def repeat(self) -> Optional[tuple[int, int]]:
        """``(j, i)`` for the first row i, in row order, equal to an earlier
        row j (its first occurrence); None when the rows are distinct."""
        if self._sorted is None:
            self._canonical()
        later = np.flatnonzero(self._keys[1:] == self._keys[:-1]) + 1
        if not later.size:
            return None
        pos = later[np.argmin(self._sorted[later])]
        first = np.searchsorted(self._keys, self._keys[pos : pos + 1])[0]
        return int(self._sorted[first]), int(self._sorted[pos])

    def _distinct(self) -> None:
        pair = self.repeat()
        if pair is not None:
            raise ValueError(f"duplicate string at rows {pair[0]} and {pair[1]}")

    def canonical_ranks(self) -> np.ndarray:
        """Rank of each row in canonical string order; rows must be distinct."""
        self._distinct()
        ranks = np.empty(len(self), dtype=np.int64)
        ranks[self._sorted] = np.arange(len(self))
        return ranks

    def find(self, other: "PauliTable") -> np.ndarray:
        """Row index of each row of ``other`` in this table, -1 where absent."""
        self._distinct()
        return self._lookup(other.x, other.z)

    def _lookup(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row index of each queried (x, z) row, -1 when it is not in the table."""
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
        self._distinct()
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


def strings_from_keys(keys: Iterable[int], n_qubits: int) -> tuple[PauliString, ...]:
    """The strings of packed ints ``x | z << n_qubits``."""
    full = (1 << n_qubits) - 1
    return tuple(PauliString(n_qubits, k & full, k >> n_qubits) for k in keys)


def _row_ints(words: np.ndarray) -> list[int]:
    """Each row of a uint64[M, W] word array as one Python int."""
    out = words[:, 0].tolist() if words.shape[1] else [0] * len(words)
    for w in range(1, words.shape[1]):
        out = [a | b << 64 * w for a, b in zip(out, words[:, w].tolist())]
    return out


#: longest site number a canonical row may carry; longer ones take parse_term
_SITE_DIGITS = 4

#: byte classes of canonical text: other, X/Y/Z, digit, space
_OTHER, _LETTER, _DIGIT, _SPACE = range(4)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[ord(c) for c in "XYZ"]] = _LETTER
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord(" ")] = _SPACE


def _parse_canonical_rows(
    texts: Sequence[str], n_qubits: int, x: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Pack the canonical rows of ``texts`` into the zeroed x, z words.

    Returns which rows were canonical; the others are left zero.  Raises
    UnicodeEncodeError when the texts are not ASCII.
    """
    m = len(texts)
    lengths = np.fromiter(map(len, texts), np.int64, m)
    b = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    ends = np.cumsum(lengths)
    full = lengths > 0
    kind = _BYTE_CLASS[b]
    # the classes of each byte's neighbours inside its row, _OTHER past its ends
    before = np.concatenate((np.zeros(1, np.uint8), kind[:-1]))
    before[(ends - lengths)[full]] = _OTHER
    after = np.concatenate((kind[1:], np.zeros(1, np.uint8)))
    after[ends[full] - 1] = _OTHER
    # a letter opens the row or follows a space; a digit follows a letter or
    # a digit; a space sits between a digit and a letter
    good = (kind == _LETTER) & ((before == _OTHER) | (before == _SPACE))
    good |= (kind == _DIGIT) & ((before == _LETTER) | (before == _DIGIT))
    good |= (kind == _SPACE) & (before == _DIGIT) & (after == _LETTER)
    row = np.repeat(np.arange(m, dtype=np.int32), lengths)
    ok = full.copy()
    ok[row[~good]] = False
    identity = lengths == 1
    identity[identity] = b[ends[identity] - 1] == ord("I")
    ok |= identity

    # each letter opens a token whose site digits run to the next space or
    # the row's end; a canonical row has 1 to _SITE_DIGITS of them, the
    # first nonzero, and ascending sites up to n_qubits
    tok = np.flatnonzero(kind == _LETTER)
    tok_row = row[tok]
    same_row = tok_row[1:] == tok_row[:-1]
    stop = ends[tok_row]
    stop[:-1][same_row] = tok[1:][same_row] - 1
    width = stop - tok - 1
    padded = np.concatenate((b, np.zeros(_SITE_DIGITS, np.uint8)))
    site = np.zeros(len(tok), dtype=np.int32)
    for k in range(min(_SITE_DIGITS, width.max(initial=0))):
        digit = padded[tok + 1 + k].astype(np.int32) - ord("0")
        site = np.where(width > k, 10 * site + digit, site)
    bad = (width < 1) | (width > _SITE_DIGITS) | (padded[tok + 1] == ord("0"))
    bad |= site > n_qubits
    bad[1:] |= same_row & (site[1:] <= site[:-1])
    ok[tok_row[bad]] = False

    keep = ok[tok_row]
    letters, site, tok_row = b[tok[keep]], site[keep] - 1, tok_row[keep]
    if site.size:
        bit = np.left_shift(np.uint64(1), (site % 64).astype(np.uint64))
        # tokens run by row and sites ascend inside a row, so each (row, word)
        # cell is one run of equal keys
        cell = tok_row.astype(np.int64) * x.shape[1] + site // 64
        first = np.flatnonzero(np.append(True, cell[1:] != cell[:-1]))
        for out, on in ((x, letters != ord("Z")), (z, letters != ord("X"))):
            out.reshape(-1)[cell[first]] = np.bitwise_or.reduceat(
                np.where(on, bit, np.uint64(0)), first
            )
    return ok


# ---------------------------------------------------------------------------
# basis decomposition

#: widths above this are refused by matrix-input decompose
DECOMPOSE_CAP = 8


def pauli_trace(s: PauliString, mat: np.ndarray) -> complex:
    """Tr(s M) for a dense 2^n x 2^n matrix M.

    Tr(P M) = sum_c i^pc(x&z) * (-1)^pc(z&c) * M[c, c^x], with the masks x, z
    in dense-index bit order.
    """
    x, z = (_reverse_bits(mask, s.n_qubits) for mask in (s.x_mask, s.z_mask))
    cols = np.arange(mat.shape[0])
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    return (1j ** ((x & z).bit_count() % 4)) * np.dot(signs, mat[cols, cols ^ x])


def decompose(
    operator: Union[np.ndarray, WeightedPauliSum],
    n_qubits: Optional[int] = None,
) -> WeightedPauliSum:
    """Minimal Pauli-basis expansion of a Hermitian operator.

    Accepts either a dense Hermitian matrix (dimension 2^n, n <= 8) or an
    existing sum, which is merged, pruned of |coeff| < DECOMPOSE_TOL and
    canonically ordered.  Matrix coefficients come from the normalized trace
    inner product Tr(P M) / 2^n.
    """
    if isinstance(operator, WeightedPauliSum):
        return WeightedPauliSum.merged(operator.terms, operator.n_qubits).normalized()

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

    terms = []
    for x in range(dim):
        for z in range(dim):
            s = PauliString(n, x, z)
            c = pauli_trace(s, mat) / dim
            if abs(c) < DECOMPOSE_TOL:
                continue
            assert abs(c.imag) < 1e-9, "Hermitian input must give real coefficients"
            terms.append((float(c.real), s))
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


def parse_term(text: str, n_qubits: int) -> PauliString:
    """Parse a single coefficient-free term such as ``"Y1 Z2"``."""
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
