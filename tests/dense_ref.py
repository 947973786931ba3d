"""Independent dense reference algebra for tests.

Everything here is built with np.kron straight from the 2x2 Pauli matrices,
deliberately avoiding the package's bit-mask code paths so the two routes
stay independent.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CELLS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
LETTERS = "IXYZ"


def dense(label: str) -> np.ndarray:
    """Matrix of a label like 'ZYI' (site 1 leftmost)."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, CELLS[ch])
    return m


def all_labels(n: int):
    return ["".join(t) for t in itertools.product(LETTERS, repeat=n)]


@functools.lru_cache(maxsize=None)
def _conj_basis(n: int) -> np.ndarray:
    """Row k is conj(dense(all_labels(n)[k])) flattened, so that its product
    with a flattened M is Tr(P_k^dag M)."""
    return np.array([dense(lab).conj().reshape(-1) for lab in all_labels(n)])


def project(mat: np.ndarray, n: int) -> dict:
    """Pauli-basis coefficients Tr(P^dag M) / 2^n with |c| > 1e-10, keyed by label."""
    coeffs = _conj_basis(n) @ np.asarray(mat, dtype=complex).reshape(-1) / 2**n
    return {lab: complex(c) for lab, c in zip(all_labels(n), coeffs) if abs(c) > 1e-10}


def unique_proportional(mat: np.ndarray, n: int):
    """(coeff, label) with mat == coeff * dense(label), or None for zero."""
    proj = project(mat, n)
    if not proj:
        return None
    assert len(proj) == 1, f"not proportional to a single string: {proj}"
    lab, c = next(iter(proj.items()))
    return c, lab


def commutator(a: str, b: str):
    """[a, b] = i*c*label decomposition, or None when commuting."""
    comm = dense(a) @ dense(b) - dense(b) @ dense(a)
    r = unique_proportional(comm, len(a))
    if r is None:
        return None
    coeff, lab = r
    c = coeff / 1j
    assert abs(c.imag) < 1e-12
    return c.real, lab


def product_phase(a: str, b: str):
    """(phi, label) with dense(a) @ dense(b) == i^phi * dense(label)."""
    c, lab = unique_proportional(dense(a) @ dense(b), len(a))
    for phi in range(4):
        if abs(c - 1j**phi) < 1e-12:
            return phi, lab
    raise AssertionError(f"phase of {a}*{b} is not a power of i: {c}")


def string_label(ps) -> str:
    """Label of a package PauliString, for crossing between the two routes."""
    return "".join(ps.cell(site) for site in range(1, ps.n_qubits + 1))


# ---------------------------------------------------------------------------
# dense operators of a Hamiltonian spec, from the kron route


@dataclass(frozen=True)
class DenseOperator:
    """A dense operator with structure checks."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.conj().T, atol=tol))

    def is_unitary(self, tol: float = 1e-10) -> bool:
        eye = np.eye(self.dim)
        return bool(np.max(np.abs(self.matrix.conj().T @ self.matrix - eye)) <= tol)


def operator(op) -> np.ndarray:
    """Dense matrix of a package PauliString or WeightedPauliSum, summed term
    by term."""
    terms = op.terms if hasattr(op, "terms") else ((1.0, op),)
    m = np.zeros((1 << op.n_qubits,) * 2, dtype=complex)
    for c, s in terms:
        m += c * dense(string_label(s))
    return m


def hamiltonian(spec) -> np.ndarray:
    """Dense matrix of a package HamiltonianSpec, summed term by term."""
    return operator(spec.terms)


def evolve_per_point(spec, meas, rho0, times) -> np.ndarray:
    """Tr(M(t) rho0) from a complex ``eigh``, one time point at a time.

    The per-point form of ``pauliaccess.oracle.evolve_expectation``, on the
    kron matrices: p . K . conj(p) with p_j = exp(-i w_j t) and
    K = rho_eig * m_eig^T elementwise.
    """
    w, v = np.linalg.eigh(hamiltonian(spec))
    rho_eig = v.conj().T @ rho0 @ v
    m_eig = v.conj().T @ operator(meas) @ v
    k = rho_eig * m_eig.T
    out = np.empty(len(times))
    for i, t in enumerate(times):
        phase = np.exp(-1j * w * t)
        out[i] = (phase @ (k @ phase.conj())).real
    return out


def propagator(spec, t: float) -> DenseOperator:
    """U(t) = exp(-i H t) via eigendecomposition; checked unitary."""
    w, v = np.linalg.eigh(hamiltonian(spec))
    op = DenseOperator((v * np.exp(-1j * w * t)) @ v.conj().T)
    if not op.is_unitary(1e-10):
        raise RuntimeError("propagator failed the unitarity check")
    return op


def bch_partial_sum(spec, meas, order: int, t: float) -> DenseOperator:
    """Truncated commutator series of M(t) = M + [H,M] it + [H,[H,M]] (it)^2/2! + ...

    ``order`` is the highest power of t retained (at most 20).
    """
    if not 0 <= order <= 20:
        raise ValueError(f"order must lie in 0..20, got {order}")
    h = hamiltonian(spec)
    nested = dense(string_label(meas))
    total = nested.copy()
    for k in range(1, order + 1):
        nested = h @ nested - nested @ h
        total += nested * (1j * t) ** k / math.factorial(k)
    return DenseOperator(total)


def derivative_operators(spec, meas, count: int) -> list:
    """Time derivatives of M(t) at t = 0 up to order ``count``.

    The k-th derivative is i^k [H, [H, ... [H, M]]] with k nested
    commutators, which is Hermitian and so admits a real basis expansion.
    """
    h = hamiltonian(spec)
    out = []
    cur = dense(string_label(meas))
    for k in range(1, count + 1):
        cur = h @ cur - cur @ h
        out.append((1j**k) * cur)
    return out
