"""Dense full-Hilbert-space ground truth for validating reduced models.

Evolution uses one eigendecomposition of the dense Hamiltonian, so the only
error source is double-precision linear algebra; the oracle must be strictly
more accurate than the reduced models it checks.  An expectation trajectory
costs one ``eigh`` and two basis rotations, O(d^3) with d = 2^N, and then
O(d^2) per time point.  Widths are capped at
:data:`pauliaccess.pauli.DENSE_CAP` qubits, where dense matrices are built.
The propagator, the truncated commutator series and the dense time
derivatives that only the tests use are built from Kronecker products in
``tests/dense_ref.py``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .hamiltonian import HamiltonianSpec
from .pauli import PauliString, WeightedPauliSum

__all__ = [
    "evolve_expectation",
    "validate_density_matrix",
]


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
    h = spec.terms.to_matrix()
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
