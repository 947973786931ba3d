"""Dense full-Hilbert-space ground truth for validating reduced models.

Evolution uses one eigendecomposition of the dense Hamiltonian, so the only
error source is double-precision linear algebra; the oracle must be strictly
more accurate than the reduced models it checks.  An expectation trajectory
costs one ``eigh`` and two basis rotations, O(d^3) with d = 2^N, and then
O(d^2) per time point.  Widths are capped at
:data:`pauliaccess.pauli.DENSE_CAP` qubits, where dense matrices are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence, Union

import numpy as np

from .hamiltonian import HamiltonianSpec
from .pauli import PauliString, WeightedPauliSum

__all__ = [
    "DenseOperator",
    "hamiltonian_matrix",
    "propagator",
    "evolve_expectation",
    "bch_partial_sum",
    "derivative_operators",
    "validate_density_matrix",
]

@dataclass(frozen=True)
class DenseOperator:
    """A dense operator with convenience structure checks."""

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
        return bool(
            np.max(np.abs(self.matrix.conj().T @ self.matrix - eye)) <= tol
        )


def hamiltonian_matrix(spec: HamiltonianSpec) -> np.ndarray:
    return spec.terms.to_matrix()


def validate_density_matrix(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape}, expected {(dim, dim)}")
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def propagator(spec: HamiltonianSpec, t: float) -> DenseOperator:
    """U(t) = exp(-i H t) via eigendecomposition; checked unitary."""
    h = hamiltonian_matrix(spec)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    op = DenseOperator(u)
    if not op.is_unitary(1e-10):
        raise RuntimeError("propagator failed the unitarity check")
    return op


def evolve_expectation(
    spec: HamiltonianSpec,
    meas: Union[WeightedPauliSum, PauliString],
    rho0: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Tr(M(t) rho0) = Tr(M U rho0 U^dag) on the full Hilbert space.

    In the eigenbasis U = diag(p) with p_j = exp(-i w_j t), so the trace is
    the bilinear form p . K . conj(p) with K = rho_eig * m_eig^T elementwise.
    """
    h = hamiltonian_matrix(spec)
    m = meas.to_matrix()
    rho0 = validate_density_matrix(rho0, spec.n_qubits)
    w, v = np.linalg.eigh(h)
    rho_eig = v.conj().T @ rho0 @ v
    m_eig = v.conj().T @ m @ v
    k = rho_eig * m_eig.T
    out = np.empty(len(times))
    for i, t in enumerate(times):
        phase = np.exp(-1j * w * t)
        out[i] = (phase @ (k @ phase.conj())).real
    return out


def bch_partial_sum(
    spec: HamiltonianSpec,
    meas: PauliString,
    order: int,
    t: float,
) -> DenseOperator:
    """Truncated commutator series of M(t) = M + [H,M] it + [H,[H,M]] (it)^2/2! + ...

    Nested commutators are computed densely; ``order`` is the highest power
    of t retained (at most 20).
    """
    if not 0 <= order <= 20:
        raise ValueError(f"order must lie in 0..20, got {order}")
    h = hamiltonian_matrix(spec)
    nested = meas.to_matrix().astype(complex)
    total = nested.copy()
    for k in range(1, order + 1):
        nested = h @ nested - nested @ h
        total += nested * (1j * t) ** k / factorial(k)
    return DenseOperator(total)


def derivative_operators(
    spec: HamiltonianSpec, meas: PauliString, count: int
) -> list[np.ndarray]:
    """Dense time derivatives of M(t) at t = 0 up to order ``count``.

    The k-th derivative is i^k [H, [H, ... [H, M]]] with k nested
    commutators, which is Hermitian and so admits a real basis expansion.
    """
    h = hamiltonian_matrix(spec)
    out = []
    cur = meas.to_matrix().astype(complex)
    for k in range(1, count + 1):
        cur = h @ cur - cur @ h
        out.append((1j**k) * cur)
    return out
