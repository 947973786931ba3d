"""Reduced linear models over accessible-set expectation values.

With x_j = <O_j> and a Hamiltonian sum over strings H_m, Heisenberg evolution
gives dx_j/dt = sum_m h_m <i [H_m, O_j]>; expanding each commutator back in
the accessible set yields the real matrix A with x' = A x.  Because the set
is closed under bracketing, the constant-forcing slot B is identically zero;
the model JSON keeps an empty ``"B"`` list for format fidelity.
A is read off the access graph: A_jl = -h_m*c on the edge j-l labeled H_m,
where [H_m, O_j] = i*c*O_l with c = +/-2.  The bracket from l has sign -c, so
A is antisymmetric by construction: the flow is orthogonal and keeps norms.

A is sparse, so the integrators pick their representation of it from the
state dimension and, for ``expm``, the time grid: up to :data:`DENSE_DIM`
states A is a dense matrix (Pade scaling-and-squaring for ``expm`` on a
uniform grid, dense products for ``rk4``), and above it, or on a non-uniform
grid, a sparse one (one Chebyshev-Bessel sweep for ``expm`` that gives every
time point, sparse products for ``rk4``).  Neither integrator has a size
cap.  Both cap their products with A: ``rk4`` at :data:`MAX_RK4_STEPS`
steps of four, the sweep at :data:`MAX_EXPM_TERMS` terms of one.
:func:`simulate_reduced` refuses a run past its integrator's cap, and a
time that is not finite, before it allocates a state.

scipy is needed only to simulate, and each path imports what it calls: the
sparse A (``rk4`` above :data:`DENSE_DIM`, and the sweep) loads
``scipy.sparse``, and the dense ``expm`` loads ``scipy.linalg``.  Building
sets, graphs and models, and a dense ``rk4``, never load scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ._fixedwidth import JSONText, dump_json, float_column, index_table, json_rows, json_texts
from ._reprtext import CELLS, rows_text
from .closure import AccessibleSet, ClosureError, SetMismatchError
from .graph import build_graph
from .hamiltonian import HamiltonianSpec, MeasurementSpec, decomposed_digamma
from .oracle import validate_density_matrix
from .pauli import _CHUNK_CELLS, DENSE_CAP, PauliTable, decompose
from .validation import (
    MAX_OUTPUTS,
    json_fields,
    json_int,
    json_list,
    json_schema,
    json_width,
    unique_rows,
)

__all__ = [
    "StateSpaceModel",
    "SimulationResult",
    "SimulationUnstableError",
    "NormDriftError",
    "build_model",
    "initial_state_vector",
    "simulate_reduced",
    "model_to_json",
    "model_from_json",
    "load_model",
    "trajectory_to_csv",
    "BLOCH_KETS",
    "DENSE_DIM",
    "MAX_EXPM_TERMS",
    "MAX_RK4_STEPS",
]

MODEL_SCHEMA_ID = "pauli-access-model/1"

#: largest state dimension whose A is a dense matrix; above it both
#: integrators work on the sparse A
DENSE_DIM = 512

#: most steps an rk4 run may take, about the last time over its step; each
#: step is four products with A
MAX_RK4_STEPS = 1_000_000

#: most Chebyshev terms, each one product with A, that a sparse ``expm``
#: sweep may take: the products rk4's own cap allows
MAX_EXPM_TERMS = 4 * MAX_RK4_STEPS

#: single-qubit kets and their (x, y, z) Bloch vectors
BLOCH_KETS = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "i+": (0.0, 1.0, 0.0),
    "i-": (0.0, -1.0, 0.0),
}


class SimulationUnstableError(RuntimeError):
    """State norm drifted far beyond its conserved value; reduce the step."""


class NormDriftError(RuntimeError):
    """``expm`` moved the conserved state norm; indicates an implementation bug."""


@dataclass(eq=False)
class StateSpaceModel:
    """Sparse (A, C) over an ordered accessible set; B is always zero.

    ``table`` holds the state ordering packed.  A's nonzeros are
    ``a_values[k]`` at ``a_index[k] = (row, col)``, sorted by (row, col) in
    a built model and in file order in a loaded one; C's are ``c_values``
    at ``c_index``, its rows the raw measurements expanded in the state
    ordering.
    """

    table: PauliTable
    a_index: np.ndarray
    a_values: np.ndarray
    c_index: np.ndarray
    c_values: np.ndarray
    n_outputs: int

    @property
    def n_qubits(self) -> int:
        return self.table.n_qubits

    @property
    def dim(self) -> int:
        return len(self.table)

    @property
    def a_entries(self) -> tuple[tuple[int, int, float], ...]:
        """A's nonzeros as (row, col, value) triplets."""
        return tuple(zip(*self.a_index.T.tolist(), self.a_values.tolist()))

    def a_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        a[self.a_index[:, 0], self.a_index[:, 1]] = self.a_values
        return a

    def a_sparse(self) -> scipy.sparse.csr_matrix:
        import scipy.sparse

        rows, cols = self.a_index.T
        return scipy.sparse.csr_matrix(
            (self.a_values, (rows, cols)), shape=(self.dim, self.dim)
        )


def build_model(
    g: AccessibleSet, spec: HamiltonianSpec, meas: MeasurementSpec
) -> StateSpaceModel:
    """Assemble A and C for an ordered accessible set.

    Edge (u, v) of ``build_graph(g, decomposed_digamma(spec))`` with sign s
    and label coefficient h != 0 gives A[u, v] = -h*s and A[v, u] = h*s.
    Raises :class:`~pauliaccess.closure.SetMismatchError` when a bracket or a
    measurement string falls outside the set (the set was not generated for
    this Hamiltonian or measurement), and ValueError for more than
    :data:`~pauliaccess.validation.MAX_OUTPUTS` measurement operators, a
    model no loader would read back, or an A or C value past the float range.
    """
    if spec.n_qubits != g.n_qubits or meas.n_qubits != g.n_qubits:
        raise ValueError("qubit counts of set, Hamiltonian and measurement differ")
    json_int(len(meas.operators), "n_outputs", hi=MAX_OUTPUTS)
    graph = build_graph(g, decomposed_digamma(spec))
    by_string = {s: c for c, s in spec.terms.terms}
    h = np.array([by_string[s] for s in graph.digamma], dtype=float)
    with np.errstate(over="ignore"):
        up = -h[graph.label_index] * graph.sign
    keep = np.flatnonzero(up != 0.0)
    u, v = graph.ends[keep].T
    a_rows, a_cols = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(a_rows * len(g) + a_cols)
    a_index = np.stack((a_rows[order], a_cols[order]), axis=1)
    a_values = np.concatenate((up[keep], -up[keep]))[order]
    _check_band(graph.table, a_index, graph.digamma)

    c_rows = []
    for r, op in enumerate(meas.operators):
        strings = decompose(op).terms
        cols = graph.table.find(PauliTable.from_strings([s for _, s in strings], g.n_qubits))
        for (coeff, s), col in zip(strings, cols.tolist()):
            if col < 0:
                raise SetMismatchError(f"measurement string {s} is not in the accessible set")
            c_rows.append((r, col, coeff))
    c_rows.sort()
    c_index = np.array([e[:2] for e in c_rows], dtype=np.int64).reshape(-1, 2)
    c_values = np.array([e[2] for e in c_rows], dtype=float)
    for name, values in (("A", a_values), ("C", c_values)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a value past the float range")

    return StateSpaceModel(graph.table, a_index, a_values, c_index, c_values, len(meas.operators))


def _check_band(table: PauliTable, a_index: np.ndarray, terms) -> None:
    """Every nonzero A_jl joins members whose highest sites differ by at most
    w - 1, w the widest span (highest site - lowest site + 1) of H's terms.

    A term h that anticommutes with O shares a site at or below O's highest
    k, so the product's highest site is at most k + w - 1; and where the
    product leaves site k empty, h's cell there is O's, so some site at or
    above lowest(h) >= k - w + 1 keeps a cell.  A breach raises
    :class:`ClosureError`: the sweep or the set is wrong.
    """
    masks = [s.x_mask | s.z_mask for s in terms]
    width = max((m.bit_length() - (m & -m).bit_length() + 1 for m in masks if m), default=0)
    sites = table.highest_sites()
    gap = sites[a_index[:, 0]]
    gap -= sites[a_index[:, 1]]
    over = np.flatnonzero(np.abs(gap, out=gap) >= width)
    if over.size:
        j, l = a_index[over[0]].tolist()
        raise ClosureError(
            f"A joins members {j} and {l}, whose highest sites {sites[j]} and "
            f"{sites[l]} lie more than the widest term span {width} less one apart"
        )


# ---------------------------------------------------------------------------
# initial state


def _product_state_bloch(description: Union[str, Sequence[str]]) -> list[tuple]:
    kets = description.split(",") if isinstance(description, str) else list(description)
    blochs = []
    for ket in kets:
        ket = ket.strip()
        if ket not in BLOCH_KETS:
            raise ValueError(
                f"unknown ket {ket!r}; choose from {sorted(BLOCH_KETS)}"
            )
        blochs.append(BLOCH_KETS[ket])
    return blochs


def initial_state_vector(
    rho0: Union[str, Sequence[str], np.ndarray],
    members: Union[AccessibleSet, PauliTable],
) -> np.ndarray:
    """Expectations x0[k] = Tr(O_k rho0) for each ordered member.

    ``rho0`` is either a product-state description (one ket per site from
    0, 1, +, -, i+, i-) valid at any width, or a dense density matrix.
    ``members`` is the ordered set or its packed table, e.g. a model's.
    """
    table = members.table() if isinstance(members, AccessibleSet) else members
    n = table.n_qubits
    if isinstance(rho0, np.ndarray):
        return _x0_from_density(rho0, table)
    blochs = _product_state_bloch(rho0)
    if len(blochs) != n:
        raise ValueError(f"product state has {len(blochs)} sites, set has {n}")
    factor = np.ones((n, 4))
    factor[:, 1:] = blochs  # columns by cell code I, X, Y, Z
    values = factor[np.arange(n), table.cell_codes()]
    # every factor is 0 or +/-1, so only the sign of a zero product depends on
    # which factors enter it: stop at the first zero, site 1 first
    zero = values == 0.0
    values[:, 1:][np.logical_or.accumulate(zero, axis=1)[:, :-1]] = 1.0
    return values.prod(axis=1)


def _x0_from_density(rho: np.ndarray, table: PauliTable) -> np.ndarray:
    if table.n_qubits > DENSE_CAP:
        raise ValueError(
            f"dense density matrices are capped at {DENSE_CAP} qubits; "
            "use a product-state description"
        )
    rho = validate_density_matrix(rho, table.n_qubits)
    return table.traces(rho).real


# ---------------------------------------------------------------------------
# reduced simulation


@dataclass
class SimulationResult:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    outputs: np.ndarray  # shape (len(times), n_outputs)


def simulate_reduced(
    model: StateSpaceModel,
    x0: np.ndarray,
    times: Sequence[float],
    integrator: str = "expm",
    step: float = 1e-3,
) -> SimulationResult:
    """Integrate x' = A x and report y = C x at the requested times.

    ``expm`` is exact up to rounding and ``rk4`` marches a fixed-step
    classical Runge-Kutta scheme.  ``expm`` raises :class:`NormDriftError`
    when max |norm(x(t)) - norm(x0)| exceeds 1e-10 (1 + len(times))
    max(1, norm(x0)); rk4 keeps its 10x divergence guard.  Both take A dense
    up to :data:`DENSE_DIM` states and sparse above it: ``expm`` then
    switches from scaling-and-squaring on the dense A to one Chebyshev-Bessel
    sweep on the sparse A, which it also uses on a grid that is not uniform
    at any size.  The sweep sums x(t) = J_0(rho t) u_0 + 2 sum_k J_k(rho t)
    u_k over K real vectors u_k, each one product with A from the two
    before, where rho is the largest row sum of |A| and K the smallest
    K >= rho t_max with 4 (rho t_max / 2)^K / K! <= 1e-16.  When K exceeds
    :data:`MAX_EXPM_TERMS` it raises ValueError before anything runs, and so
    does ``rk4`` when t_max / step exceeds :data:`MAX_RK4_STEPS`.  Times
    must be finite, sorted and nonnegative, and x0 and the step finite, for
    either integrator; otherwise ValueError.  There is no size cap.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if (np.diff(t) < 0).any() or t[0] < 0:
        raise ValueError("times must be sorted and nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.dim},)")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if not math.isfinite(step):
        raise ValueError(f"--step takes a finite number, got {step!r}")

    if integrator == "expm":
        states = _run_expm(model, x0, t)
        # exp(A t) is orthogonal for an antisymmetric A, so the norm is a free check
        norm0 = float(np.linalg.norm(x0))
        drift = float(np.abs(np.sqrt(np.einsum("ij,ij->i", states, states)) - norm0).max())
        bound = 1e-10 * (1 + len(t)) * max(1.0, norm0)
        if not drift <= bound:
            raise NormDriftError(
                f"expm moved the state norm by {drift:.3g}, past the bound "
                f"1e-10 * (1 + {len(t)} points) * max(1, |x0| = {norm0:.3g}) = {bound:.3g}"
            )
    elif integrator == "rk4":
        states = _run_rk4(model, x0, t, step)
    else:
        raise ValueError(f"unknown integrator {integrator!r}")

    return SimulationResult(t, states, _outputs(model, states))


def _outputs(model: StateSpaceModel, states: np.ndarray) -> np.ndarray:
    """y = C x at every time point, from C's nonzeros alone.

    Each output sums its terms in ``c_index`` order, starting from +0.0, in
    chunks of terms so the scaled columns stay at a few MB.
    """
    out = np.zeros((len(states), model.n_outputs))
    rows, cols = model.c_index.T
    step = max(1, _CHUNK_CELLS // len(states))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        np.add.at(out.T, rows[part], model.c_values[part, None] * states[:, cols[part]].T)
    return out


def _is_uniform(steps: np.ndarray) -> bool:
    """np.allclose(steps, steps[0], rtol=0, atol=1e-12) from three scalars:
    rounding is monotone, so the largest |step - steps[0]| is hi - first or
    first - lo; an infinite first step passes only if every step equals it."""
    first, lo, hi = float(steps[0]), float(steps.min()), float(steps.max())
    return (hi - first <= 1e-12 and first - lo <= 1e-12) or lo == hi == first


def _run_expm(model: StateSpaceModel, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    steps = np.diff(t)
    uniform = len(t) > 2 and _is_uniform(steps)
    if model.dim > DENSE_DIM or not uniform:
        # a non-uniform grid would take one dense expm per point, while one
        # Chebyshev sweep serves every point of any grid
        return _run_chebyshev(model, x0, t)
    import scipy.linalg

    a = model.a_dense()
    states = np.empty((len(t), model.dim))
    x = scipy.linalg.expm(a * t[0]) @ x0 if t[0] != 0.0 else x0.copy()
    prop = scipy.linalg.expm(a * steps[0])
    for i in range(len(t)):
        states[i] = x
        if i + 1 < len(t):
            x = prop @ x
    return states


def _run_chebyshev(model: StateSpaceModel, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(A t) x0 at each time, from the Chebyshev-Bessel series of
    :func:`_sweep` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).

    rho is the largest row sum of |A|, which bounds the spectral radius.
    The grid is cut into runs of points whose weights fit in
    ``_CHUNK_CELLS`` values; each run is one sweep, from the state at the
    last point of the run before (x0 at t = 0 for the first).  A point
    too far for even a run of one is reached through unrecorded stops.
    Raises ValueError, before any state is allocated, when one sweep to
    the last time would take more than :data:`MAX_EXPM_TERMS` terms.
    """
    rows = model.a_index[:, 0]
    rho = float(np.bincount(rows, np.abs(model.a_values), model.dim).max(initial=0.0))
    z = rho * float(t[-1])
    k = _n_terms(z) if z <= MAX_EXPM_TERMS else None  # K >= z
    if k is None or k > MAX_EXPM_TERMS:
        need = k or f"at least {z:.4g}"
        raise ValueError(
            f"expm to t = {float(t[-1])!r} needs {need} Chebyshev terms, each a product "
            f"with A, past the cap of {MAX_EXPM_TERMS} (the products of "
            f"{MAX_RK4_STEPS} rk4 steps); ask for an earlier last time"
        )
    states = np.empty((len(t), model.dim))
    if rho == 0.0:
        states[:] = x0
        return states
    a = model.a_sparse() * (2.0 / rho)
    base, x, lo = 0.0, x0, 0
    while lo < len(t):
        hi = _run_end(t, lo, base, rho)
        if hi == lo:
            # stop on the way: rho dt = _CHUNK_CELLS / 4 takes fewer than
            # _CHUNK_CELLS terms
            span = min(_CHUNK_CELLS / (4.0 * rho), float(t[lo]) - base)
            x = _sweep(a, x, _weights(np.array([rho * span])), np.empty((1, model.dim)))[0]
            base = min(base + span, float(t[lo]))
            continue
        _sweep(a, x, _weights(rho * (t[lo:hi] - base)), states[lo:hi])
        base, x, lo = float(t[hi - 1]), states[hi - 1], hi
    return states


def _n_terms(z: float) -> int:
    """Smallest K >= z with 4 (z/2)^K / K! <= 1e-16.

    As |J_k(z)| <= (z/2)^k / k!, and the bound at least halves from one k
    to the next once k >= z, the series' terms from K on add up to less
    than 1e-16 times the norm of x0.
    """
    if z == 0.0:
        return 1

    def small(k: int) -> bool:
        return k * math.log(z / 2) - math.lgamma(k + 1) <= math.log(1e-16 / 4)

    # the bound falls with k from k >= z on: double, then bisect
    lo = hi = max(1, math.ceil(z))
    while not small(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if small(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _run_end(t: np.ndarray, lo: int, base: float, rho: float) -> int:
    """The largest hi such that the weights of points lo..hi-1, counted from
    the time base, fit in ``_CHUNK_CELLS`` values; lo if none do."""

    def fits(hi: int) -> bool:
        return _n_terms(rho * (float(t[hi - 1]) - base)) * (hi - lo) <= _CHUNK_CELLS

    if fits(len(t)):
        return len(t)
    good, bad = lo, len(t)
    while bad - good > 1:
        mid = (good + bad) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good


def _weights(z: np.ndarray) -> np.ndarray:
    """The series weights J_0(z), 2 J_1(z), 2 J_2(z), ... for each z, as a
    (K, len(z)) array with K = :func:`_n_terms` of the largest z.

    exp(i z cos s) = sum_k i^k J_k(z) e^{iks} (Jacobi-Anger), so one FFT
    of 2K samples over s gives i^k J_k(z); the terms past K that fold onto
    k < K are below the series' cut.  The FFTs run on chunks of columns.
    """
    k = _n_terms(float(z.max()))
    cos = np.cos(np.pi * np.arange(2 * k) / k)
    # J_k(z) is the real part of i^-k times the coefficient k
    phase = np.array([1, -1j, -1, 1j])[np.arange(k) % 4] / (2 * k)
    w = np.empty((k, len(z)))
    # 2K complex samples per point: at most _CHUNK_CELLS / 2 per chunk
    step = max(1, _CHUNK_CELLS // (4 * k))
    for lo in range(0, len(z), step):
        coeffs = np.fft.fft(np.exp(np.multiply.outer(cos, 1j * z[lo : lo + step])), axis=0)
        w[:, lo : lo + step] = (coeffs[:k] * phase[:, None]).real
    w[1:] *= 2.0
    return w


def _sweep(
    a2: scipy.sparse.csr_matrix, x: np.ndarray, w: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Set row j of ``out`` to sum_k w[k, j] u_k for each column j of w, and
    return ``out``; u_0 = x, u_1 = (a2 / 2) x and u_{k+1} = a2 u_k + u_{k-1}.

    With a2 = 2A / rho for an antisymmetric A, u_k is i^k T_k(-iA / rho) x,
    so the sum is exp(A t_j) x for w the weights of z_j = rho t_j.  Every
    u_k is real with norm at most norm(x).  The u_k are made in chunks of
    rows, after the two that end the chunk before, and the products with w
    are taken on chunks of points, so no buffer exceeds ``_CHUNK_CELLS``
    values by more than two rows.
    """
    k, cols = w.shape
    dim = len(x)
    m = max(1, _CHUNK_CELLS // dim)
    out[:] = 0.0
    u = np.empty((m + 2, dim))
    for k0 in range(0, k, m):
        n = min(m, k - k0)
        for i in range(2, n + 2):
            j = k0 + i - 2  # the index of the term u[i] holds
            if j == 0:
                u[i] = x
            elif j == 1:
                u[i] = 0.5 * (a2 @ u[i - 1])
            else:
                np.add(a2 @ u[i - 1], u[i - 2], out=u[i])
        for c in range(0, cols, m):
            out[c : c + m] += w[k0 : k0 + n, c : c + m].T @ u[2 : n + 2]
        u[:2] = u[n : n + 2]
    return out


def _run_rk4(
    model: StateSpaceModel, x0: np.ndarray, t: np.ndarray, step: float
) -> np.ndarray:
    """Fixed-step RK4 from x0 at t = 0, on the dense A up to :data:`DENSE_DIM`
    states and on the sparse A above it.  Raises ValueError, before anything
    is allocated, when the last time over the step exceeds
    :data:`MAX_RK4_STEPS`."""
    if not step > 0:
        raise ValueError("step must be positive")
    t_last = float(t[-1])
    if t_last / step > MAX_RK4_STEPS:
        raise ValueError(
            f"--step {step!r} asks for more than {MAX_RK4_STEPS} rk4 steps "
            f"to reach t = {t_last!r}"
        )
    a = model.a_dense() if model.dim <= DENSE_DIM else model.a_sparse()
    norm0 = float(np.linalg.norm(x0))
    guard = max(10.0 * norm0, 1e-6)

    def rk4_step(x, h):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    states = np.empty((len(t), model.dim))
    x = x0.astype(float).copy()
    t_cur = 0.0
    # overflow in a diverging run is expected; it is caught by the norm guard
    with np.errstate(over="ignore", invalid="ignore"):
        for i, target in enumerate(t):
            remaining = target - t_cur
            n_full = int(remaining / step + 1e-9)
            for _ in range(n_full):
                x = rk4_step(x, step)
            t_cur += n_full * step
            tail = target - t_cur
            if tail > 1e-15:
                x = rk4_step(x, tail)
                t_cur = target
            nrm = float(np.linalg.norm(x))
            if not np.isfinite(nrm) or nrm > guard:
                raise SimulationUnstableError(
                    f"norm grew from {norm0:.3g} to {nrm:.3g} by t={target:.3g}; "
                    f"the step {step:g} is too large"
                )
            states[i] = x
    return states


# ---------------------------------------------------------------------------
# exports


def model_to_json(model: StateSpaceModel) -> str:
    """The model file's text: ``json.dumps(<the model as a dict>, indent=2)``
    plus a newline, the ordering rendered from the table
    (:func:`~pauliaccess._fixedwidth.json_texts`) and the A and C triplets
    from the index and value arrays (:func:`~pauliaccess._fixedwidth.json_rows`)."""
    indices = index_table(max(model.dim, model.n_outputs))
    return dump_json({
        "schema": MODEL_SCHEMA_ID,
        "n_qubits": model.n_qubits,
        "ordering": json_texts(model.table),
        "A": _triplets_text(indices, model.a_index, model.a_values),
        "B": [],
        "C": _triplets_text(indices, model.c_index, model.c_values),
        "n_outputs": model.n_outputs,
    })


def _triplets_text(indices: np.ndarray, index: np.ndarray, values: np.ndarray) -> JSONText:
    """The ``[row, col, value]`` list, with ``indices`` the text of each index."""
    columns = [(indices, index[:, 0]), (indices, index[:, 1]), float_column(values)]
    return json_rows(columns, len(values))


def model_from_json(data: dict) -> StateSpaceModel:
    """Rebuild a model written by :func:`model_to_json`.

    Malformed input (wrong types, missing fields, indices out of range, a
    repeated ordering string, a repeated A or C position, A not
    antisymmetric) raises ValueError.
    """
    json_schema(data, MODEL_SCHEMA_ID, "model")
    fields = ("n_qubits", "ordering", "A", "B", "C", "n_outputs")
    n_qubits, ordering, a, b, c, n_outputs = json_fields(data, fields, "model")
    n = json_width(n_qubits)
    table = PauliTable.from_texts(json_list(ordering, "ordering"), n)
    unique_rows(table, "ordering string")
    dim = len(table)
    n_outputs = json_int(n_outputs, "n_outputs", hi=MAX_OUTPUTS)
    a_index, a_values = _triplets(a, "A", dim, dim)
    _triplets(b, "B", dim, 0)  # no inputs: B must be empty
    c_index, c_values = _triplets(c, "C", n_outputs, dim)
    _check_antisymmetry(a_index, a_values, dim)
    return StateSpaceModel(table, a_index, a_values, c_index, c_values, n_outputs)


def _triplets(raw, name: str, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """[row, col, value] entries with integer indices inside rows x cols and
    finite values, each (row, col) at most once, as an int64 (n, 2) index
    array and a float value array in file order.

    The entries' lengths and the types of each column are checked by
    C-level passes over the list, and the values convert in one pass over
    the chained entries, so no Python object is made per entry.
    """
    # bool is an int subclass, so the types are matched exactly
    try:
        typed = (
            isinstance(raw, list)
            and set(map(len, raw)) <= {3}
            and set(map(type, map(itemgetter(0), raw))) <= {int}
            and set(map(type, map(itemgetter(1), raw))) <= {int}
            and set(map(type, map(itemgetter(2), raw))) <= {int, float}
        )
    except (TypeError, KeyError):  # an entry that is no list
        typed = False
    if not typed:
        _triplet_error(raw, name)
    try:
        arr = np.fromiter(chain.from_iterable(raw), float, 3 * len(raw)).reshape(-1, 3)
    except OverflowError:
        raise ValueError(f"{name} holds an integer past the float range") from None
    r, c, v = arr.T
    ok = (r == np.floor(r)) & (c == np.floor(c)) & np.isfinite(v)
    ok &= (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    if not ok.all():
        bad = raw[int(np.flatnonzero(~ok)[0])]
        raise ValueError(f"{name} entry {bad!r} is not a finite value inside {rows} x {cols}")
    index = arr[:, :2].astype(np.int64)
    keys = _keys(index, cols)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        raise ValueError(
            f"{name} entry {raw[i]!r} repeats an earlier entry at ({int(r[i])}, {int(c[i])})"
        )
    return index, v.copy()


def _triplet_error(raw, name: str) -> None:
    """Raise the error for triplets that are not all [integer, integer, number]:
    ``np.array`` of them tells a list of another shape, or of values that
    are no numbers, from one of numbers of the wrong type."""
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer past the float range") from None
    except (TypeError, ValueError):
        arr = None
    if not isinstance(raw, list) or arr is None or arr.shape != (len(raw), 3):
        raise ValueError(f"{name} must be a list of [row, col, value] triplets")
    # np.array converted booleans, and numeric strings, without complaint
    bad = next(
        e for e in raw
        if not (type(e[0]) is int and type(e[1]) is int and type(e[2]) in (int, float))
    )
    raise ValueError(f"{name} entry {bad!r} must be [integer, integer, number]")


def _keys(index: np.ndarray, dim: int) -> np.ndarray:
    """One int64 key per (row, col) pair, row-major in a dim-wide matrix."""
    return index[:, 0] * dim + index[:, 1]


def _check_antisymmetry(index: np.ndarray, values: np.ndarray, dim: int) -> None:
    """A[c, r] == -A[r, c] for every entry, a missing entry counting as 0;
    names the first failing entry in file order."""
    keys = _keys(index, dim)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    transposed = _keys(index[:, ::-1], dim)
    pos = np.minimum(np.searchsorted(sorted_keys, transposed), len(keys) - 1)
    partner = np.where(sorted_keys[pos] == transposed, values[order][pos], 0.0)
    bad = np.flatnonzero(partner != -values)
    if bad.size:
        r, c = index[bad[0]].tolist()
        raise ValueError(f"A is not antisymmetric at ({r}, {c})")


def load_model(path: Union[str, Path]) -> StateSpaceModel:
    return model_from_json(json.loads(Path(path).read_text()))


def trajectory_to_csv(result: SimulationResult) -> bytearray:
    """CSV text with header t, x_1..x_dim, y_1..y_r, as ASCII bytes.

    Each row is ``",".join(map(repr, row))``: numbers are Python's shortest
    round-trip text, formatted for a block of rows at once.  Every block is
    appended to the one returned buffer, so the text is held once and its
    ``len()`` is the byte count.
    """
    dim = result.states.shape[1]
    n_out = result.outputs.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, dim + 1)]
        + [f"y_{i}" for i in range(1, n_out + 1)]
    )
    out = bytearray(",".join(header).encode("ascii") + b"\n")
    # blocks of whole rows, at least one, of about CELLS values
    step = max(1, CELLS // len(header))
    for r in range(0, len(result.times), step):
        rows = slice(r, r + step)
        block = np.column_stack((result.times[rows], result.states[rows], result.outputs[rows]))
        rows_text(block, out)
    return out
