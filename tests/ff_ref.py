"""Independent free-fermion reference for the exchange chain, any N.

Under the Jordan-Wigner map the Majoranas are, with 1-based sites,
gamma_{2k-1} = Z_1 ... Z_{k-1} X_k and gamma_{2k} = Z_1 ... Z_{k-1} Y_k.
The chain H = sum_k h_k (X_k X_{k+1} + Y_k Y_{k+1}) is quadratic in them:

    X_k X_{k+1} = -i gamma_{2k} gamma_{2k+1},
    Y_k Y_{k+1} = i gamma_{2k-1} gamma_{2k+2},

so H = (i/4) sum_ab G_ab gamma_a gamma_b with G real antisymmetric 2N x 2N,
i[H, gamma_a] = sum_b G_ab gamma_b, and gamma(t) = R(t) gamma with
R = expm(tG).  Y1 Z2 = -i gamma_2 gamma_3 gamma_4, whose Heisenberg image is

    Y1 Z2 (t) = -i sum_{a<b<c} det R[{2,3,4}, {a,b,c}] gamma_a gamma_b gamma_c

(the terms with a repeated index cancel, R being orthogonal).  Each monomial
is a Pauli string, so its expectation in a product state is a product of
one 2 x 2 expectation per site.

G is written from the couplings, and the monomials from the 2 x 2 Pauli
matrices of :mod:`dense_ref` and the kets below; nothing here goes through
the package.  Grounding: Terhal & DiVincenzo, PRA 65, 032325 (2002);
Jozsa & Miyake, arXiv:0804.4050.
"""

import numpy as np
from scipy.linalg import expm

from dense_ref import I2, SX, SY, SZ

KET_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "i+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "i-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}

PAULIS = np.array([I2, SX, SY, SZ])

#: 0-based Majorana indices of gamma_2 gamma_3 gamma_4 = i Y1 Z2
Y1Z2_MAJORANAS = (1, 2, 3)


def majorana_generator(couplings) -> np.ndarray:
    """G with i[H, gamma_a] = sum_b G_ab gamma_b, 0-based (gamma_1 is row 0)."""
    n = len(couplings) + 1
    g = np.zeros((2 * n, 2 * n))
    for k, h in enumerate(couplings):
        # sites k, k+1 (0-based): X X from gamma_{2k+1} gamma_{2k+2},
        # Y Y from gamma_{2k} gamma_{2k+3}, in 0-based Majorana indices
        for a, b, value in ((2 * k + 1, 2 * k + 2, -2.0 * h), (2 * k, 2 * k + 3, 2.0 * h)):
            g[a, b] = value
            g[b, a] = -value
    return g


def majorana_codes(n: int) -> np.ndarray:
    """codes[a, s]: the factor of gamma_a (0-based) at site s, as an index
    into :data:`PAULIS`."""
    a = np.arange(2 * n)[:, None]
    site = a // 2
    s = np.arange(n)[None, :]
    return np.where(s < site, 3, np.where(s == site, 1 + a % 2, 0))


def triples(m: int) -> np.ndarray:
    """Every a < b < c in 0..m-1, as a C(m, 3) x 3 array in lexicographic order."""
    a, b, c = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    keep = (a < b) & (b < c)
    return np.stack([a[keep], b[keep], c[keep]], axis=1)


def monomial_expectations(kets, index: np.ndarray) -> np.ndarray:
    """<gamma_a gamma_b gamma_c> in the product state of ``kets``, one per
    row (a, b, c) of ``index``."""
    codes = majorana_codes(len(kets))
    out = np.ones(len(index), dtype=complex)
    for s, ket in enumerate(kets):
        psi = KET_VECTORS[ket]
        # <psi| P Q R |psi> for every three Pauli matrices, picked per monomial
        cell = np.einsum("i,pij,qjk,rkl,l->pqr", psi.conj(), PAULIS, PAULIS, PAULIS, psi)
        out *= cell[tuple(codes[index, s].T)]
    return out


def case_d_expectation(couplings, kets, times) -> np.ndarray:
    """<Y1 Z2>(t) for the exchange chain with ``couplings`` from the product
    state of ``kets`` (one of :data:`KET_VECTORS` per site)."""
    n = len(couplings) + 1
    if len(kets) != n:
        raise ValueError(f"{len(kets)} kets for {n} sites")
    g = majorana_generator(couplings)
    index = triples(2 * n)
    weights = -1j * monomial_expectations(kets, index)
    rows = [expm(t * g)[list(Y1Z2_MAJORANAS)] for t in times]
    a, b, c = index.T
    out = np.empty(len(times))
    for i, (u, v, w) in enumerate(rows):
        # the 3 x 3 minors on columns (a, b, c), by cofactors of the first
        # row: x[i, j] is the 2 x 2 minor of the other two rows
        x = np.outer(v, w) - np.outer(w, v)
        minors = u[a] * x[b, c] - u[b] * x[a, c] + u[c] * x[a, b]
        out[i] = (minors @ weights).real
    return out
