"""Dense full-Hilbert-space ground truth for validating reduced models.

Evolution uses an eigendecomposition of the dense Hamiltonian, so the only
error source is double-precision linear algebra; the oracle must be strictly
more accurate than the reduced models it checks.  It works block by block:
the connected components of H's nonzero pattern are invariant subspaces, and
ordering the basis by component makes H exactly block diagonal (the entries
between components are exact zeros), as in exact diagonalisation by symmetry
sector.  Every exchange-chain and Heisenberg H keeps the excitation number,
so its blocks have sizes C(N, k).  The blocks are diagonalised with one
stacked ``eigh`` per distinct block size, and rho and M are rotated into the
eigenbasis with one stacked product per size and side: O(sum b^3) and
O(d sum b^2) in place of O(d^3), with d = 2^N.  One block is the full
``eigh`` and the two full rotations.  Then one (T x d) by (d x d) product
gives all T time points, taken in chunks of time points so the temporaries
stay at a few MB.  A real H (every chain and Heisenberg spec: their Y
letters come in pairs) is diagonalised in real arithmetic, and the rotations
skip a part of rho or M that is all zero (a string with an odd number of Y
letters is purely imaginary).  The density matrix is checked by one LAPACK
``?potrf`` run in place on rho + 1e-10 I, in real arithmetic when rho has no
imaginary part.  Widths are capped at :data:`pauliaccess.pauli.DENSE_CAP`
qubits, where dense matrices are built.  The propagator, the truncated
commutator series and the dense time derivatives that only the tests use
are built from Kronecker products in ``tests/dense_ref.py``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .graph import _component_labels
from .hamiltonian import HamiltonianSpec
from .pauli import _CHUNK_CELLS, DimensionMismatchError, PauliString, WeightedPauliSum, _check_dense

__all__ = [
    "evolve_expectation",
    "validate_density_matrix",
]


def validate_density_matrix(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """rho as a complex array, checked to be a finite, Hermitian, unit-trace
    and positive semidefinite 2^n x 2^n matrix.

    Hermitian means np.allclose(rho, rho^dag, atol=1e-10); an exactly
    Hermitian rho passes on an equality test alone.  Positive
    semidefinite means lambda_min >= -1e-10, tested by LAPACK ``?potrf`` on
    a fresh rho + 1e-10 I, in place and reading the triangle that
    ``np.linalg.cholesky`` reads: the factorisation succeeds exactly when the
    shifted matrix is positive definite, up to rounding of order
    d * eps * |rho|.  A rho with no imaginary part is checked in real
    arithmetic.
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
        # exact equality implies the allclose verdict at a fraction of its cost
        if not (np.array_equal(a, a.conj().T) or np.allclose(a, a.conj().T, atol=1e-10)):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(a).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace is not 1")
    from scipy.linalg.lapack import dpotrf, zpotrf

    shifted = a.copy()
    shifted.flat[:: dim + 1] += 1e-10
    potrf = zpotrf if shifted.dtype.kind == "c" else dpotrf
    # the transpose is Fortran-ordered, so ?potrf factors it in place, and its
    # upper triangle is the lower triangle np.linalg.cholesky reads
    if potrf(shifted.T, lower=0, clean=0, overwrite_a=1)[1] > 0:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def _time_points(times: Sequence[float]) -> np.ndarray:
    try:
        t = np.asarray(times, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("times must be a 1-D sequence of finite numbers") from None
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("times must be a 1-D sequence of finite numbers")
    return t


def _blocks(h: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A basis order in which h is block diagonal, and its blocks as runs of
    (size, count): the blocks are the connected components of h's nonzero
    pattern, ordered by size, each block's basis states ascending."""
    u, v = np.divmod(np.flatnonzero(h != 0), len(h))
    upper = u < v
    labels = _component_labels(len(h), u[upper], v[upper])
    sizes = np.bincount(labels)
    order = np.argsort(sizes[labels] * len(sizes) + labels, kind="stable")
    counts = np.bincount(sizes)
    size = np.flatnonzero(counts)
    return order, list(zip(size.tolist(), counts[size].tolist()))


def _diagonalise(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(order, w, vs): in the basis order h is block diagonal, its
    eigenvalues are w and its eigenvectors the block-diagonal V whose blocks
    are the stacks in vs, one stacked ``eigh`` per block size, in h's dtype."""
    if not h.imag.any():
        h = h.real  # a real symmetric H has real eigenvectors
    order, runs = _blocks(h)
    w = np.empty(len(h))
    vs = []
    lo = 0
    for size, count in runs:
        idx = order[lo : lo + size * count].reshape(count, size)
        wb, v = np.linalg.eigh(h[idx[:, :, None], idx[:, None, :]])
        w[lo : lo + size * count] = wb.reshape(-1)
        vs.append(v)
        lo += size * count
    return order, w, vs


def _rotate(order: np.ndarray, vs: list[np.ndarray], a: np.ndarray) -> np.ndarray:
    """V^dag a V in the basis order, for the block-diagonal V whose diagonal
    blocks are the stacks in vs.  A real V rotates a's real and imaginary
    parts apart and skips a part that is all zero (a Y-odd measurement is
    purely imaginary)."""
    rows = np.ix_(order, order)
    if np.iscomplexobj(vs[0]):  # every stack has H's dtype
        return _sandwich(vs, a[rows])
    imag = a.imag.any()
    out = np.zeros(a.shape, dtype=complex if imag else float)
    if a.real.any():
        out.real = _sandwich(vs, a.real[rows])
    if imag:
        out.imag = _sandwich(vs, a.imag[rows])
    return out


def _sandwich(vs: list[np.ndarray], a: np.ndarray) -> np.ndarray:
    """V^dag a V, one stacked product per stack of equal blocks and side,
    written over a, which has V's dtype."""
    dim = len(a)
    ends = np.cumsum([v.shape[0] * v.shape[1] for v in vs]).tolist()
    stacks = list(zip(vs, [0, *ends], ends))
    left = np.empty_like(a)
    for v, lo, hi in stacks:  # the rows of V^dag a
        count, size, _ = v.shape
        np.matmul(
            v.conj().swapaxes(1, 2), a[lo:hi].reshape(count, size, dim),
            out=left[lo:hi].reshape(count, size, dim),
        )
    for v, lo, hi in stacks:  # the columns of (V^dag a) V
        count, size, _ = v.shape
        np.matmul(
            left[:, lo:hi].reshape(dim, count, size).swapaxes(0, 1), v,
            out=a[:, lo:hi].reshape(dim, count, size).swapaxes(0, 1),
        )
    return a


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
    _check_dense(spec.n_qubits)  # a width past the cap is refused before rho is checked
    rho0 = validate_density_matrix(rho0, spec.n_qubits)
    # each dense matrix lives only as long as its step needs it, so later
    # steps reuse its memory
    order, w, vs = _diagonalise(spec.terms.to_matrix())
    # M is Hermitian, so m_eig^T = conj(m_eig), which reads m_eig in order
    k = _rotate(order, vs, rho0) * _rotate(order, vs, meas.to_matrix()).conj()
    out = np.empty(len(t))
    step = _CHUNK_CELLS // len(w)
    for lo in range(0, len(t), step):
        p = np.exp(np.outer(t[lo : lo + step], -1j * w))
        # vecdot conjugates its first operand: sum_j conj(p_j) (p K)_j
        out[lo : lo + step] = np.vecdot(p, p @ k).real
    return out
