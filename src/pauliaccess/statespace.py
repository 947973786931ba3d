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

from ._reprtext import CELLS, rows_text
from .closure import AccessibleSet, ClosureError
from .hamiltonian import HamiltonianSpec, MeasurementSpec
from .oracle import validate_density_matrix
from .pauli import (
    DENSE_CAP,
    PauliString,
    PauliTable,
    decompose,
)
from .validation import json_fields, json_int, json_list, json_schema, json_width, unique_rows

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


@dataclass(eq=False)
class StateSpaceModel:
    """Sparse (A, C) over an ordered accessible set; B is always zero.

    ``table`` holds the state ordering packed.  A's nonzeros are
    ``a_values[k]`` at ``a_index[k] = (row, col)``, sorted by (row, col) in
    a built model and in file order in a loaded one; C's are ``c_values``
    at ``c_index``, its rows the raw measurements expanded in the state
    ordering.  ``a_terms[k]`` is the Hamiltonian term that produced A entry
    k, None for a loaded model.
    """

    table: PauliTable
    a_index: np.ndarray
    a_values: np.ndarray
    c_index: np.ndarray
    c_values: np.ndarray
    n_outputs: int
    a_terms: Optional[np.ndarray] = None

    @property
    def n_qubits(self) -> int:
        return self.table.n_qubits

    @property
    def dim(self) -> int:
        return len(self.table)

    @property
    def ordering(self) -> tuple[PauliString, ...]:
        """The ordered members as strings, decoded on each access."""
        return self.table.strings()

    @property
    def a_entries(self) -> tuple[tuple[int, int, float], ...]:
        """A's nonzeros as (row, col, value) triplets."""
        return _entries(self.a_index, self.a_values)

    @property
    def c_entries(self) -> tuple[tuple[int, int, float], ...]:
        """C's nonzeros as (row, col, value) triplets."""
        return _entries(self.c_index, self.c_values)

    @property
    def coupling_provenance(self) -> Optional[dict[tuple[int, int], tuple[int, ...]]]:
        """The Hamiltonian term indices behind each nonzero A entry."""
        if self.a_terms is None:
            return None
        return {(r, c): (m,) for r, c, m in zip(*self.a_index.T.tolist(), self.a_terms.tolist())}

    def a_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        a[self.a_index[:, 0], self.a_index[:, 1]] = self.a_values
        return a

    def a_sparse(self) -> scipy.sparse.csr_matrix:
        rows, cols = self.a_index.T
        return scipy.sparse.csr_matrix(
            (self.a_values, (rows, cols)), shape=(self.dim, self.dim)
        )

    def c_dense(self) -> np.ndarray:
        c = np.zeros((self.n_outputs, self.dim))
        c[self.c_index[:, 0], self.c_index[:, 1]] = self.c_values
        return c


def _entries(index: np.ndarray, values: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    return tuple(zip(*index.T.tolist(), values.tolist()))


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
    table = g.table()
    terms = spec.terms.terms
    br = table.brackets(PauliTable.from_strings([s for _, s in terms], g.n_qubits))
    outside = np.flatnonzero(br.target < 0)
    if outside.size:
        hm = terms[br.string[outside[0]]][1]
        oj = table.string(br.member[outside[0]])
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
    a_index = np.stack((br.member[keep], br.target[keep]), axis=1)

    c_rows = []
    for r, op in enumerate(meas.operators):
        strings = decompose(op).terms
        cols = table.find(PauliTable.from_strings([s for _, s in strings], g.n_qubits))
        for (coeff, s), col in zip(strings, cols.tolist()):
            if col < 0:
                raise ClosureError(
                    f"measurement string {s} is not in the accessible set"
                )
            c_rows.append((r, col, coeff))
    c_rows.sort()
    c_index = np.array([e[:2] for e in c_rows], dtype=np.int64).reshape(-1, 2)
    c_values = np.array([e[2] for e in c_rows], dtype=float)

    return StateSpaceModel(
        table, a_index, values[keep], c_index, c_values, len(meas.operators), br.string[keep]
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
        "ordering": model.table.texts(),
        "A": _triplet_lists(model.a_index, model.a_values),
        "B": [],
        "C": _triplet_lists(model.c_index, model.c_values),
        "n_outputs": model.n_outputs,
    }


def _triplet_lists(index: np.ndarray, values: np.ndarray) -> list[list]:
    return list(map(list, zip(*index.T.tolist(), values.tolist())))


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
    n_outputs = json_int(n_outputs, "n_outputs")
    a_index, a_values = _triplets(a, "A", dim, dim)
    _triplets(b, "B", dim, 0)  # no inputs: B must be empty
    c_index, c_values = _triplets(c, "C", n_outputs, dim)
    _check_antisymmetry(a_index, a_values, dim)
    return StateSpaceModel(table, a_index, a_values, c_index, c_values, n_outputs)


def _triplets(raw, name: str, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """[row, col, value] entries with integer indices inside rows x cols and
    finite values, each (row, col) at most once, as an int64 (n, 2) index
    array and a float value array in file order."""
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if not isinstance(raw, list) or arr is None or arr.shape not in ((0,), (len(raw), 3)):
        raise ValueError(f"{name} must be a list of [row, col, value] triplets")
    # np.array converted booleans, and numeric strings, without complaint
    kinds = {(type(r), type(c), type(v)) for r, c, v in raw}
    if not kinds <= _TRIPLET_TYPES:
        bad = next(e for e in raw if tuple(map(type, e)) not in _TRIPLET_TYPES)
        raise ValueError(f"{name} entry {bad!r} must be [integer, integer, number]")
    arr = arr.reshape(-1, 3)
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


#: the JSON types of a [row, col, value] triplet: bool is not int here
_TRIPLET_TYPES = {(int, int, int), (int, int, float)}


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


def trajectory_to_csv(result: SimulationResult) -> str:
    """CSV text with header t, x_1..x_dim, y_1..y_r.

    Each row is ``",".join(map(repr, row))``: numbers are Python's shortest
    round-trip text, formatted for a block of rows at once.
    """
    dim = result.states.shape[1]
    n_out = result.outputs.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, dim + 1)]
        + [f"y_{i}" for i in range(1, n_out + 1)]
    )
    lines = [",".join(header) + "\n"]
    # blocks of whole rows, at least one, of about CELLS values: the blocks'
    # text and its one join are the only full-size copies
    step = max(1, CELLS // len(header))
    for r in range(0, len(result.times), step):
        rows = slice(r, r + step)
        block = np.column_stack((result.times[rows], result.states[rows], result.outputs[rows]))
        lines.append(rows_text(block))
    return "".join(lines)
