"""Dense full-Hilbert-space ground truth for validating reduced models.

Evolution uses one eigendecomposition of the dense Hamiltonian, so the only
error source is double-precision linear algebra; the oracle must be strictly
more accurate than the reduced models it checks.  An expectation trajectory
costs one ``eigh`` and two basis rotations, O(d^3) with d = 2^N, and then one
(T x d) by (d x d) product for all T time points, taken in chunks of time
points so the temporaries stay at a few MB.  A real H (every chain and
Heisenberg spec: their Y letters come in pairs) is diagonalised in real
arithmetic, and the rotations skip a part of rho or M that is all zero (a
string with an odd number of Y letters is purely imaginary).  The density
matrix is checked by one Cholesky factorisation of rho + 1e-10 I, in real
arithmetic when rho has no imaginary part.  Widths are capped at
:data:`pauliaccess.pauli.DENSE_CAP` qubits, where dense matrices are built.
The propagator, the truncated commutator series and the dense time
derivatives that only the tests use are built from Kronecker products in
``tests/dense_ref.py``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .hamiltonian import HamiltonianSpec
from .pauli import _CHUNK_CELLS, DimensionMismatchError, PauliString, WeightedPauliSum

__all__ = [
    "evolve_expectation",
    "validate_density_matrix",
]


def validate_density_matrix(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """rho as a complex array, checked to be a finite, Hermitian, unit-trace
    and positive semidefinite 2^n x 2^n matrix.

    Positive semidefinite means lambda_min >= -1e-10, tested by a Cholesky
    factorisation of rho + 1e-10 I: it succeeds exactly when the shifted
    matrix is positive definite, up to rounding of order d * eps * |rho|.
    A rho with no imaginary part is checked in real arithmetic.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape}, expected {(dim, dim)}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has an entry that is not a finite number")
    a = rho if rho.imag.any() else rho.real
    # a sum of entries near the float limit overflows to inf, which fails the
    # same test the exact value would
    with np.errstate(over="ignore"):
        if not np.allclose(a, a.conj().T, atol=1e-10):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(a).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace is not 1")
    try:
        np.linalg.cholesky(a + 1e-10 * np.eye(dim))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix is not positive semidefinite") from None
    return rho


def _time_points(times: Sequence[float]) -> np.ndarray:
    try:
        t = np.asarray(times, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("times must be a 1-D sequence of finite numbers") from None
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("times must be a 1-D sequence of finite numbers")
    return t


def _rotate_real(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """v^T a v for a real v, rotating a's real and imaginary parts apart and
    skipping a part that is all zero (a Y-odd measurement is purely imaginary)."""
    imag = a.imag.any()
    out = np.zeros(a.shape, dtype=complex if imag else float)
    if a.real.any():
        out.real = v.T @ a.real @ v
    if imag:
        out.imag = v.T @ a.imag @ v
    return out


def evolve_expectation(
    spec: HamiltonianSpec,
    meas: Union[WeightedPauliSum, PauliString],
    rho0: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Tr(M(t) rho0) = Tr(M U rho0 U^dag) on the full Hilbert space.

    In the eigenbasis U = diag(p) with p_j = exp(-i w_j t), so the trace is
    the bilinear form p . K . conj(p) with K = rho_eig * m_eig^T elementwise;
    the rows of P = exp(-i t w^T) give every time point in one product.
    Raises DimensionMismatchError when M and H act on different widths, and
    ValueError for times that are not a 1-D sequence of finite numbers.
    """
    if meas.n_qubits != spec.n_qubits:
        raise DimensionMismatchError(
            f"measurement acts on {meas.n_qubits} qubits, Hamiltonian on {spec.n_qubits}"
        )
    t = _time_points(times)
    h = spec.terms.to_matrix()
    m = meas.to_matrix()
    rho0 = validate_density_matrix(rho0, spec.n_qubits)
    if h.imag.any():
        w, v = np.linalg.eigh(h)
        rho_eig = v.conj().T @ rho0 @ v
        m_eig = v.conj().T @ m @ v
    else:
        # a real symmetric H has real eigenvectors
        w, v = np.linalg.eigh(h.real)
        rho_eig = _rotate_real(v, rho0)
        m_eig = _rotate_real(v, m)
    k = rho_eig * m_eig.T
    out = np.empty(len(t))
    step = _CHUNK_CELLS // len(w)
    for lo in range(0, len(t), step):
        p = np.exp(-1j * np.outer(t[lo : lo + step], w))
        # vecdot conjugates its first operand: sum_j conj(p_j) (p K)_j
        out[lo : lo + step] = np.vecdot(p, p @ k).real
    return out
