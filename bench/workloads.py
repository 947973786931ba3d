"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Each workload is a closed loop with one client: one pass runs its operations
one after another, and the runner repeats passes until the run's time is up.
An operation is one CLI command, one ``verify`` line or one desk instance; it
fails on an exception, a nonzero exit code or a failed output check.  The
package sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import pauliaccess
from pauliaccess import cli, closure, graph, hamiltonian, oracle, statespace

KETS = tuple(statespace.BLOCH_KETS)

#: product-state kets that are eigenstates of each Pauli letter, so a seeded
#: state gives the measured string a nonzero expectation at t = 0
ALIGNED_KETS = {"X": ("+", "-"), "Y": ("i+", "i-"), "Z": ("0", "1")}

#: spans "<layer>.<name>" on the names ``pauliaccess.cli`` imports, so the
#: traced run executes exactly the CLI path
CLI_TRACED = (
    "closure.generate", "closure.generate_reference", "closure.chain_closed_form",
    "closure.accessible_set_to_json", "closure.load_accessible_set",
    "graph.build_graph", "graph.partition_k_finite", "graph.order_members",
    "graph.is_connected", "graph.verify_block_regeneration", "graph.export_dot",
    "graph.graph_to_json",
    "hamiltonian.build_exchange_chain", "hamiltonian.decomposed_digamma",
    "hamiltonian.exchange_digamma", "hamiltonian.hamiltonian_from_json",
    "hamiltonian.measurement_from_json",
    "statespace.build_model", "statespace.model_to_json", "statespace.load_model",
    "statespace.initial_state_vector", "statespace.simulate_reduced",
    "statespace.trajectory_to_csv",
)

#: spans on the library calls the desk workload makes, wrapped in their modules
DESK_TRACED = (
    (hamiltonian, (
        "hamiltonian.build_exchange_chain", "hamiltonian.parse_hamiltonian",
        "hamiltonian.decomposed_digamma",
    )),
    (closure, ("closure.generate",)),
    (graph, ("graph.build_graph", "graph.partition_k_finite", "graph.order_members")),
    (statespace, (
        "statespace.build_model", "statespace.initial_state_vector",
        "statespace.simulate_reduced",
    )),
    (oracle, ("oracle.evolve_expectation",)),
)


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check(result, stdout)`` returns (attempted, failures) where failures is
    a list of messages, one per failed operation.  The span is the root span
    of the operation in the traced run.
    """

    name: str
    span: str
    run: Callable[[], object]
    check: Callable[[object, str], tuple[int, list[str]]]
    attempted: int = 1  # operations it counts as when it raises


def run_cli(argv: list[str]) -> Callable[[], int]:
    return lambda: cli.main(list(argv))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# chain-d-cli


def chain_d_members(n: int) -> int:
    return (n**3 - n**2) // 2


def chain_d_block(k: int) -> int:
    return (3 * k - 2) * (k - 1) // 2


def chain_d_edges(n: int) -> int:
    # fitted to the exchange chain with seed Y1 Z2 for N = 2..12; the cubic
    # differences are exact, and it gives 36 975 at N = 30
    return n * (3 * n - 5) * (n - 1) // 2


class ChainDCli:
    """The CLI pipeline a user runs: gen, graph (DOT), model, simulate (CSV).

    The expected counts are closed forms of N alone, so the checks also show
    that members, edges and nnz(A) do not depend on the seed.
    """

    name = "chain-d-cli"
    measurement = "Y1 Z2"
    times = "0:1:0.01"  # start:stop:step, 101 points
    step = "0.01"
    rows = 101

    def __init__(self, seed: int, scratch: Path, n: int = 30):
        rng = random.Random(seed)
        self.n = n
        self.couplings = ",".join(f"{rng.uniform(0.5, 1.5):.6f}" for _ in range(n - 1))
        self.kets = ",".join(seeded_kets(rng, self.measurement, n))
        self.dir = Path(tempfile.mkdtemp(prefix="chain-", dir=scratch))
        self.expected_members = chain_d_members(n)
        self.expected_blocks = {k: chain_d_block(k) for k in range(2, n + 1)}
        self.expected_edges = chain_d_edges(n)
        self.digests: dict[str, str] = {}
        self.digest_changes = 0  # payloads that differed from the previous pass
        self.counts: dict[str, int] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def info(self) -> dict:
        return {
            "n": self.n, "couplings": self.couplings, "kets": self.kets,
            "counts": self.counts, "sha256": self.digests,
            "digest_changes": self.digest_changes,
        }

    def trace_targets(self):
        return ((cli, CLI_TRACED),)

    def path(self, name: str) -> Path:
        return self.dir / name

    def ops(self) -> list[Op]:
        src = ["--chain", str(self.n), "--couplings", self.couplings]
        meas = ["--measurement", self.measurement]
        s, d, m, c = (
            str(self.path(f)) for f in ("set.json", "graph.dot", "model.json", "traj.csv")
        )
        argvs = {
            "gen": ["gen", *src, *meas, "--out", s],
            "graph": ["graph", "--set", s, *src, "--out", d],
            "model": ["model", "--set", s, *src, *meas, "--out", m],
            "simulate": [
                "simulate", "--model", m, "--integrator", "rk4", "--times", self.times,
                "--step", self.step, "--rho0", self.kets, "--out", c,
            ],
        }
        return [
            Op(cmd, f"cli.{cmd}", run_cli(argv), getattr(self, f"check_{cmd}"))
            for cmd, argv in argvs.items()
        ]

    def _digest(self, key: str, path: Path) -> None:
        digest = sha256_file(path)
        if self.digests.get(key, digest) != digest:
            self.digest_changes += 1
        self.digests[key] = digest

    def check_gen(self, rc, stdout):
        if rc != 0:
            return 1, [f"gen exited {rc}"]
        data = json.loads(self.path("set.json").read_text())
        self._digest("set_json", self.path("set.json"))
        members = len(data["members"])
        self.counts["members"] = members
        blocks = {e["k"]: e["end"] - e["start"] for e in data["partition"]}
        errors = []
        if members != self.expected_members:
            errors.append(f"gen: {members} members, expected {self.expected_members}")
        if blocks != self.expected_blocks:
            errors.append(f"gen: block sizes {blocks}, expected {self.expected_blocks}")
        return 1, errors[:1]

    def check_graph(self, rc, stdout):
        if rc != 0:
            return 1, [f"graph exited {rc}"]
        with open(self.path("graph.dot")) as f:
            edges = sum(1 for line in f if " -- " in line)
        self._digest("dot", self.path("graph.dot"))
        self.counts["edges"] = edges
        if edges != self.expected_edges:
            return 1, [f"graph: {edges} edges, expected {self.expected_edges}"]
        return 1, []

    def check_model(self, rc, stdout):
        if rc != 0:
            return 1, [f"model exited {rc}"]
        data = json.loads(self.path("model.json").read_text())
        self._digest("model_json", self.path("model.json"))
        a = {(r, c): v for r, c, v in data["A"]}
        self.counts["nnz_a"] = len(a)
        errors = []
        if any(a.get((c, r)) != -v for (r, c), v in a.items()):
            errors.append("model: A is not antisymmetric")
        if len(a) != 2 * self.counts.get("edges", -1) or len(a) != 2 * self.expected_edges:
            errors.append(f"model: nnz(A) = {len(a)}, expected 2 x {self.expected_edges} edges")
        return 1, errors[:1]

    def check_simulate(self, rc, stdout):
        # exit 0 also means load_model accepted A (it rejects a non-antisymmetric A)
        if rc != 0:
            return 1, [f"simulate exited {rc}"]
        want_cols = self.counts.get("members", 0) + 1 + 1  # t, x_1..x_dim, y_1
        rows = 0
        bad_row = None
        with open(self.path("traj.csv")) as f:
            header = next(f)
            for line in f:
                rows += 1
                if bad_row is None and line.count(",") + 1 != want_cols:
                    bad_row = rows
        self._digest("csv", self.path("traj.csv"))
        if header.count(",") + 1 != want_cols or bad_row is not None:
            return 1, [f"simulate: a CSV row does not have {want_cols} columns"]
        if rows != self.rows:
            return 1, [f"simulate: {rows} CSV rows, expected {self.rows}"]
        return 1, []


def seeded_kets(rng: random.Random, measurement: str, n: int) -> list[str]:
    """One ket per site: aligned with the measured string on its support,
    uniform over the six Bloch kets elsewhere."""
    cells = pauliaccess.PauliString.from_text(measurement, n).cells()
    return [
        rng.choice(ALIGNED_KETS[cells[site]]) if site in cells else rng.choice(KETS)
        for site in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# verify-suites

#: case widths of ``cli.CHAIN_CASES``: the widest site each seed touches
CASE_WIDTHS = {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3, "f": 3}

#: default --n range of each suite, and its smallest n, as ``cmd_verify`` uses
SUITE_RANGES = {
    "prop2": (2, 12, 2), "prop3": (2, 6, 2), "case-d-count": (2, 10, 2),
    "oracle": (1, 4, 1), "lemmas": (2, 8, 2),
}


def suite_lines(suite: str, n_range: Optional[tuple[int, int]]) -> int:
    """Number of result lines ``pauli-access verify --suite`` prints."""
    if suite == "identities":
        return 3
    lo, hi, floor = SUITE_RANGES[suite]
    if n_range is not None:
        lo, hi = n_range
    if suite == "oracle":
        hi = min(hi, 4)
    sizes = range(max(floor, lo), hi + 1)
    if suite in ("prop2", "case-d-count"):
        return len(sizes)
    return sum(sum(1 for w in CASE_WIDTHS.values() if w <= n) for n in sizes)


class VerifySuites:
    """All six ``verify`` suites at their default ranges: about 2 600 small
    ``generate`` calls, plus the reference rule, block regeneration and the
    Pauli identities."""

    name = "verify-suites"
    suites = ("prop2", "prop3", "case-d-count", "oracle", "lemmas", "identities")

    def __init__(self, seed: int, scratch: Path, n_range=None, trials: int = 500):
        self.identities_seed = random.Random(seed).randrange(2**31)
        self.n_range = n_range
        self.trials = trials
        self.expected = {s: suite_lines(s, n_range) for s in self.suites}

    def close(self) -> None:
        pass

    def info(self) -> dict:
        return {"identities_seed": self.identities_seed, "lines": sum(self.expected.values())}

    def trace_targets(self):
        return ((cli, CLI_TRACED),)

    def ops(self) -> list[Op]:
        out = []
        for suite in self.suites:
            argv = ["verify", "--suite", suite]
            if suite == "identities":
                argv += ["--seed", str(self.identities_seed), "--trials", str(self.trials)]
            elif self.n_range is not None:
                argv += ["--n", "{}..{}".format(*self.n_range)]
            out.append(Op(
                suite, f"cli.verify.{suite}", run_cli(argv), self._checker(suite),
                self.expected[suite],
            ))
        return out

    def _checker(self, suite: str):
        def check(rc, stdout):
            lines = stdout.splitlines()
            attempted = max(self.expected[suite], len(lines))
            errors = [f"{suite}: {line}" for line in lines if not line.startswith("PASS ")]
            errors += [f"{suite}: missing line"] * (attempted - len(lines))
            if rc != 0 and not errors:
                errors.append(f"{suite}: exit code {rc}")
            return attempted, errors

        return check


# ---------------------------------------------------------------------------
# desk-oracle


@dataclass
class DeskInstance:
    label: str
    n: int
    measurement: str
    couplings: list[float] = field(default_factory=list)
    heisenberg: Optional[str] = None  # spec text, for the Heisenberg instances
    kets: list[str] = field(default_factory=list)
    rho: Optional[np.ndarray] = None


def product_density(kets: list[str]) -> np.ndarray:
    """Dense density matrix of a product state; site 1 is the high bit."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    rho = np.ones((1, 1), dtype=complex)
    for ket in kets:
        site = np.eye(2, dtype=complex)
        for b, p in zip(statespace.BLOCH_KETS[ket], paulis):
            site = site + b * p
        rho = np.kron(rho, site / 2)
    return rho


class DeskOracle:
    """Reduced (A, B, C) dynamics against full Hilbert-space evolution.

    The exchange chain at N = 2..8 for every case a-f that fits, plus
    Heisenberg XXX with seed Z1 at N = 3..6 (dim 4^N/4; N = 6 takes the
    disconnected-block ordering fallback).  Each instance runs the library
    directly: generate, build_graph, partition, order, build_model, x0 from
    kets and from the density matrix, ``simulate_reduced`` with the default
    ``expm`` on 101 points of [0, 10], and ``oracle.evolve_expectation``.
    """

    name = "desk-oracle"
    y_tol = 1e-8  # acceptance criterion 6's bound
    x0_tol = 1e-12

    def __init__(self, seed: int, scratch: Path, chain_sizes=range(2, 9), heis_sizes=range(3, 7)):
        rng = random.Random(seed)
        self.instances = []
        for n in chain_sizes:
            for case, text in cli.CHAIN_CASES.items():
                if CASE_WIDTHS[case] <= n:
                    inst = DeskInstance(f"chain n={n} case {case}", n, text)
                    inst.couplings = [round(rng.uniform(0.5, 1.5), 6) for _ in range(n - 1)]
                    self.instances.append(inst)
        for n in heis_sizes:
            js = [round(rng.uniform(0.5, 1.5), 6) for _ in range(n - 1)]
            text = " + ".join(
                f"{j}*{a}{k} {a}{k + 1}" for k, j in enumerate(js, 1) for a in "XYZ"
            )
            self.instances.append(DeskInstance(f"heisenberg n={n}", n, "Z1", heisenberg=text))
        for inst in self.instances:
            inst.kets = seeded_kets(rng, inst.measurement, inst.n)
            inst.rho = product_density(inst.kets)
        self.times = np.linspace(0.0, 10.0, 101)
        self.max_err = 0.0
        self.max_x0_diff = 0.0

    def close(self) -> None:
        pass

    def info(self) -> dict:
        return {
            "instances": len(self.instances),
            "max_err": self.max_err,
            "max_x0_diff": self.max_x0_diff,
        }

    def trace_targets(self):
        return DESK_TRACED

    def ops(self) -> list[Op]:
        return [
            Op(inst.label, "desk.instance", (lambda inst=inst: self.solve(inst)), self.check)
            for inst in self.instances
        ]

    def solve(self, inst: DeskInstance):
        if inst.heisenberg is None:
            spec = hamiltonian.build_exchange_chain(inst.n, inst.couplings)
        else:
            spec = hamiltonian.parse_hamiltonian(inst.heisenberg, inst.n)
        meas = hamiltonian.MeasurementSpec.from_texts([inst.measurement], inst.n)
        digamma = hamiltonian.decomposed_digamma(spec)
        g = closure.generate(digamma, list(meas.decomposed))
        gr = graph.build_graph(g, digamma)
        part = graph.partition_k_finite(g)
        with warnings.catch_warnings():
            # the disconnected-block fallback is expected for Heisenberg N = 6
            warnings.simplefilter("ignore")
            ordered = graph.order_members(g, gr, part)
        model = statespace.build_model(ordered, spec, meas)
        x0_kets = statespace.initial_state_vector(inst.kets, ordered)
        x0_rho = statespace.initial_state_vector(inst.rho, ordered)
        result = statespace.simulate_reduced(model, x0_rho, self.times)
        y_oracle = oracle.evolve_expectation(spec, meas.operators[0], inst.rho, self.times)
        return x0_kets, x0_rho, result.outputs[:, 0], y_oracle

    def check(self, result, stdout):
        x0_kets, x0_rho, y_reduced, y_oracle = result
        x0_diff = float(np.max(np.abs(x0_kets - x0_rho)))
        err = float(np.max(np.abs(y_reduced - y_oracle)))
        self.max_x0_diff = max(self.max_x0_diff, x0_diff)
        self.max_err = max(self.max_err, err)
        if x0_diff > self.x0_tol:
            return 1, [f"x0 from kets and from rho differ by {x0_diff:.3g}"]
        if err > self.y_tol:
            return 1, [f"reduced and oracle outputs differ by {err:.3g}"]
        return 1, []


WORKLOADS = {w.name: w for w in (ChainDCli, VerifySuites, DeskOracle)}

#: the sizes the self-test uses: each workload passes in well under a second
TINY = {
    "chain-d-cli": {"n": 5},
    "verify-suites": {"n_range": (2, 3), "trials": 20},
    "desk-oracle": {"chain_sizes": range(2, 4), "heis_sizes": range(3, 4)},
}

