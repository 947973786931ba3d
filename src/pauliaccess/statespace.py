"""Reduced linear models over accessible-set expectation values.

With x_j = <O_j> and a Hamiltonian sum over strings H_m, Heisenberg evolution
gives dx_j/dt = sum_m h_m <i [H_m, O_j]>; expanding each commutator back in
the accessible set yields the real matrix A with x' = A x.  Because the set
is closed under bracketing, the constant-forcing slot B is identically zero;
the model JSON keeps an empty ``"B"`` list for format fidelity.
A is antisymmetric by construction: entries are -h*c with [H_m, O_j] = i*c*R
and c = +/-2, so the flow is orthogonal and norms are conserved.

A is sparse, so the integrators pick their representation of it from the
state dimension and, for ``expm``, the time grid: up to :data:`DENSE_DIM`
states A is a dense matrix (Pade scaling-and-squaring for ``expm`` on a
uniform grid, dense products for ``rk4``), and above it, or on a non-uniform
grid, a sparse one (``scipy.sparse.linalg.expm_multiply`` for ``expm``,
sparse products for ``rk4``).  Neither integrator has a size cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg
import scipy.sparse

from .closure import AccessibleSet, ClosureError
from .hamiltonian import HamiltonianSpec, MeasurementSpec
from .oracle import validate_density_matrix
from .pauli import (
    DENSE_CAP,
    PauliString,
    PauliTable,
    decompose,
    parse_term,
)
from .validation import json_int, json_list, json_schema, unique_index

__all__ = [
    "StateSpaceModel",
    "SimulationResult",
    "SimulationUnstableError",
    "build_model",
    "initial_state_vector",
    "simulate_reduced",
    "model_to_json",
    "model_from_json",
    "load_model",
    "trajectory_to_csv",
    "BLOCH_KETS",
    "DENSE_DIM",
]

MODEL_SCHEMA_ID = "pauli-access-model/1"

#: largest state dimension whose A is a dense matrix; above it both
#: integrators work on the sparse A
DENSE_DIM = 512

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


@dataclass
class StateSpaceModel:
    """Sparse (A, C) over an ordered accessible set; B is always zero.

    Entries are (row, col, value) triplets sorted by (row, col).  C rows are
    the raw measurements expanded in the state ordering.
    ``coupling_provenance`` maps each nonzero A entry to the Hamiltonian term
    indices that produced it.
    """

    n_qubits: int
    ordering: tuple[PauliString, ...]
    a_entries: tuple[tuple[int, int, float], ...]
    c_entries: tuple[tuple[int, int, float], ...]
    n_outputs: int
    coupling_provenance: Optional[dict[tuple[int, int], tuple[int, ...]]] = None

    @property
    def dim(self) -> int:
        return len(self.ordering)

    def a_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for r, c, v in self.a_entries:
            a[r, c] = v
        return a

    def a_sparse(self) -> scipy.sparse.csr_matrix:
        rows = [e[0] for e in self.a_entries]
        cols = [e[1] for e in self.a_entries]
        vals = [e[2] for e in self.a_entries]
        return scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(self.dim, self.dim)
        )

    def c_dense(self) -> np.ndarray:
        c = np.zeros((self.n_outputs, self.dim))
        for r, col, v in self.c_entries:
            c[r, col] = v
        return c


def build_model(
    g: AccessibleSet, spec: HamiltonianSpec, meas: MeasurementSpec
) -> StateSpaceModel:
    """Assemble A and C for an ordered accessible set.

    Raises :class:`ClosureError` when a bracket or a measurement string falls
    outside the set (the set was not generated for this Hamiltonian or
    measurement).
    """
    if spec.n_qubits != g.n_qubits or meas.n_qubits != g.n_qubits:
        raise ValueError("qubit counts of set, Hamiltonian and measurement differ")
    terms = spec.terms.terms
    br = g.table().brackets(PauliTable.from_strings([s for _, s in terms], g.n_qubits))
    outside = np.flatnonzero(br.target < 0)
    if outside.size:
        hm = terms[br.string[outside[0]]][1]
        oj = g.members[br.member[outside[0]]]
        raise ClosureError(
            f"bracket of {hm} with member {oj} leaves the set; "
            "not a fixpoint for this Hamiltonian"
        )
    # the terms are distinct strings, so each (j, l) gets at most one term:
    # l's string is O_j times H_m
    h = np.array([c for c, _ in terms], dtype=float)
    values = -h[br.string] * br.sign
    keep = np.flatnonzero(values != 0.0)
    keep = keep[np.lexsort((br.target[keep], br.member[keep]))]
    # one int object per member, shared by its entries: tolist() would make
    # two per entry, about 5 MB more at N = 30
    ids = list(range(len(g.members)))
    rows, cols = ([ids[i] for i in a[keep].tolist()] for a in (br.member, br.target))
    values, term = (a[keep].tolist() for a in (values, br.string))
    a_entries = tuple(zip(rows, cols, values))
    provenance = {(r, c): (m,) for r, c, m in zip(rows, cols, term)}

    index = g.index_map()
    c_rows = []
    for r, op in enumerate(meas.operators):
        for coeff, s in decompose(op).terms:
            l = index.get((s.x_mask, s.z_mask))
            if l is None:
                raise ClosureError(
                    f"measurement string {s} is not in the accessible set"
                )
            c_rows.append((r, l, coeff))
    c_entries = tuple(sorted(c_rows))

    return StateSpaceModel(
        g.n_qubits,
        tuple(g.members),
        a_entries,
        c_entries,
        len(meas.operators),
        provenance,
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
    rho0: Union[str, Sequence[str], np.ndarray], g: AccessibleSet
) -> np.ndarray:
    """Expectations x0[k] = Tr(O_k rho0) for each ordered member.

    ``rho0`` is either a product-state description (one ket per site from
    0, 1, +, -, i+, i-) valid at any width, or a dense density matrix.
    """
    if isinstance(rho0, np.ndarray):
        return _x0_from_density(rho0, g)
    blochs = _product_state_bloch(rho0)
    if len(blochs) != g.n_qubits:
        raise ValueError(
            f"product state has {len(blochs)} sites, set has {g.n_qubits}"
        )
    factor = np.ones((g.n_qubits, 4))
    factor[:, 1:] = blochs  # columns by cell code I, X, Y, Z
    values = factor[np.arange(g.n_qubits), g.table().cell_codes()]
    # every factor is 0 or +/-1, so only the sign of a zero product depends on
    # which factors enter it: stop at the first zero, site 1 first
    zero = values == 0.0
    values[:, 1:][np.logical_or.accumulate(zero, axis=1)[:, :-1]] = 1.0
    return values.prod(axis=1)


def _x0_from_density(rho: np.ndarray, g: AccessibleSet) -> np.ndarray:
    if g.n_qubits > DENSE_CAP:
        raise ValueError(
            f"dense density matrices are capped at {DENSE_CAP} qubits; "
            "use a product-state description"
        )
    rho = validate_density_matrix(rho, g.n_qubits)
    return g.table().traces(rho).real


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
    classical Runge-Kutta scheme.  Both take A dense up to
    :data:`DENSE_DIM` states and sparse above it: ``expm`` then switches from
    scaling-and-squaring on the dense A to ``expm_multiply`` on the sparse A
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011), which it also uses
    on a grid that is not uniform at any size.  There is no size cap.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if (np.diff(t) < 0).any() or t[0] < 0:
        raise ValueError("times must be sorted and nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.dim},)")

    if integrator == "expm":
        states = _run_expm(model, x0, t)
    elif integrator == "rk4":
        states = _run_rk4(model, x0, t, step)
    else:
        raise ValueError(f"unknown integrator {integrator!r}")

    outputs = states @ model.c_dense().T
    return SimulationResult(t, states, outputs)


def _run_expm(model: StateSpaceModel, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    steps = np.diff(t)
    uniform = len(t) > 2 and np.allclose(steps, steps[0], rtol=0, atol=1e-12)
    if model.dim > DENSE_DIM or not uniform:
        # a non-uniform grid would take one dense expm per point, far more
        # than stepping with expm_multiply at any dimension
        return _run_expm_multiply(model.a_sparse(), x0, t, uniform)
    a = model.a_dense()
    states = np.empty((len(t), model.dim))
    x = scipy.linalg.expm(a * t[0]) @ x0 if t[0] != 0.0 else x0.copy()
    prop = scipy.linalg.expm(a * steps[0])
    for i in range(len(t)):
        states[i] = x
        if i + 1 < len(t):
            x = prop @ x
    return states


def _run_expm_multiply(
    a: scipy.sparse.csr_matrix, x0: np.ndarray, t: np.ndarray, uniform: bool
) -> np.ndarray:
    """exp(A t) x0 at each time, without forming exp(A t)."""
    # imported here, not at the top: it adds about 13 ms to every process
    # start, and only models above DENSE_DIM or non-uniform grids use it
    from scipy.sparse.linalg import expm_multiply

    if uniform and t[-1] > t[0]:
        # the interval call sizes its Taylor steps for stop - start alone and
        # applies them to start too, so it must start at 0: x0 reaches t[0]
        # by a call of its own
        x = expm_multiply(a * t[0], x0) if t[0] != 0.0 else x0
        return expm_multiply(a, x, start=0.0, stop=t[-1] - t[0], num=len(t), endpoint=True)
    # any other grid: step from point to point, starting from x0 at t = 0
    states = np.empty((len(t), len(x0)))
    x, t_cur = x0, 0.0
    for i, ti in enumerate(t):
        if ti != t_cur:
            x = expm_multiply(a * (ti - t_cur), x)
            t_cur = ti
        states[i] = x
    return states


def _run_rk4(
    model: StateSpaceModel, x0: np.ndarray, t: np.ndarray, step: float
) -> np.ndarray:
    """Fixed-step RK4 from x0 at t = 0, on the dense A up to :data:`DENSE_DIM`
    states and on the sparse A above it."""
    if step <= 0:
        raise ValueError("step must be positive")
    a = model.a_dense() if model.dim <= DENSE_DIM else model.a_sparse()
    norm0 = float(np.linalg.norm(x0))
    guard = max(10.0 * norm0, 1e-6)

    def rhs(x):
        return a @ x

    def rk4_step(x, h):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
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


def model_to_json(model: StateSpaceModel) -> dict:
    return {
        "schema": MODEL_SCHEMA_ID,
        "n_qubits": model.n_qubits,
        "ordering": PauliTable.from_strings(model.ordering, model.n_qubits).texts(),
        "A": [[r, c, v] for r, c, v in model.a_entries],
        "B": [],
        "C": [[r, c, v] for r, c, v in model.c_entries],
        "n_outputs": model.n_outputs,
    }


def model_from_json(data: dict) -> StateSpaceModel:
    """Rebuild a model written by :func:`model_to_json`.

    Malformed input (wrong types, indices out of range, a repeated ordering
    string, a repeated A or C position, A not antisymmetric) raises
    ValueError.
    """
    json_schema(data, MODEL_SCHEMA_ID, "model")
    n = json_int(data["n_qubits"], "n_qubits", lo=1)
    ordering = tuple(parse_term(t, n) for t in json_list(data["ordering"], "ordering"))
    unique_index(ordering, "ordering string")
    dim = len(ordering)
    n_outputs = json_int(data["n_outputs"], "n_outputs")
    a, a_arr = _triplets(data["A"], "A", dim, dim)
    _triplets(data["B"], "B", dim, 0)  # no inputs: B must be empty
    c, _ = _triplets(data["C"], "C", n_outputs, dim)
    _check_antisymmetry(a_arr, dim)
    return StateSpaceModel(n, ordering, a, c, n_outputs)


def _triplets(raw, name: str, rows: int, cols: int):
    """[row, col, value] entries with integer indices inside rows x cols,
    each (row, col) at most once, as a tuple and as an (n, 3) array."""
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if not isinstance(raw, list) or arr is None or arr.shape not in ((0,), (len(raw), 3)):
        raise ValueError(f"{name} must be a list of [row, col, value] triplets")
    arr = arr.reshape(-1, 3)
    r, c, v = arr.T
    ok = (r == np.floor(r)) & (c == np.floor(c)) & np.isfinite(v)
    ok &= (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    if not ok.all():
        bad = raw[int(np.flatnonzero(~ok)[0])]
        raise ValueError(f"{name} entry {bad!r} is not a finite value inside {rows} x {cols}")
    keys = _keys(r, c, cols)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        raise ValueError(
            f"{name} entry {raw[i]!r} repeats an earlier entry at ({int(r[i])}, {int(c[i])})"
        )
    # int() and float() hand back the parsed JSON objects instead of copies
    return tuple((int(r), int(c), float(v)) for r, c, v in raw), arr


def _keys(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """One int64 key per (row, col) index pair, row-major in a dim-wide matrix."""
    return rows.astype(np.int64) * dim + cols.astype(np.int64)


def _check_antisymmetry(a: np.ndarray, dim: int) -> None:
    """A[c, r] == -A[r, c] for every [r, c, v] row of a, a missing entry
    counting as 0; names the first failing entry in file order."""
    r, c, v = a.T
    keys = _keys(r, c, dim)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    transposed = _keys(c, r, dim)
    pos = np.minimum(np.searchsorted(sorted_keys, transposed), len(keys) - 1)
    partner = np.where(sorted_keys[pos] == transposed, v[order][pos], 0.0)
    bad = np.flatnonzero(partner != -v)
    if bad.size:
        i = bad[0]
        raise ValueError(f"A is not antisymmetric at ({int(r[i])}, {int(c[i])})")


def load_model(path: Union[str, Path]) -> StateSpaceModel:
    return model_from_json(json.loads(Path(path).read_text()))


def trajectory_to_csv(result: SimulationResult) -> str:
    """CSV text with header t, x_1..x_dim, y_1..y_r."""
    dim = result.states.shape[1]
    n_out = result.outputs.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, dim + 1)]
        + [f"y_{i}" for i in range(1, n_out + 1)]
    )
    lines = [",".join(header) + "\n"]
    # one row at a time: a list of Python floats takes about 4x the array's
    # memory; the rows and their one join are the only full-size copies
    for ti, x, y in zip(result.times.tolist(), result.states, result.outputs):
        lines.append(",".join(map(repr, [ti, *x.tolist(), *y.tolist()])) + "\n")
    return "".join(lines)
