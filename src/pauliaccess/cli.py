"""Command-line front end for the full pipeline.

Subcommands: ``chain`` (emit an exchange-chain Hamiltonian spec), ``gen``
(generate + partition + order an accessible set), ``graph`` (DOT/JSON graph
export), ``model`` (state-space extraction), ``simulate`` (reduced
trajectories as CSV) and ``verify`` (built-in property suites).

Exit codes: 0 success, 2 input error, 3 internal consistency failure.
All outputs are deterministic byte-for-byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .closure import (
    AccessibleSet,
    ClosureError,
    _regenerates,
    accessible_set_to_json,
    chain_closed_form,
    generate,
    generate_reference,
    load_accessible_set,
)
from .graph import (
    build_graph,
    export_dot,
    graph_to_json,
    is_connected,
    order_members,
    partition_k_finite,
    verify_block_regeneration,
)
from .hamiltonian import (
    HamiltonianSpec,
    MeasurementSpec,
    build_exchange_chain,
    decomposed_digamma,
    exchange_digamma,
    hamiltonian_from_json,
    hamiltonian_to_json,
    measurement_from_json,
)
from .pauli import (
    GrammarError,
    PauliString,
    apply_sequence,
    check_bilinear_decomposition,
)
from .statespace import (
    DENSE_DIM,
    NormDriftError,
    SimulationUnstableError,
    build_model,
    initial_state_vector,
    load_model,
    model_to_json,
    simulate_reduced,
    trajectory_to_csv,
)
from .validation import MAX_QUBITS, dump_json, json_width

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

#: largest number of points a --times grid may hold
MAX_TIME_POINTS = 1_000_000

#: most trials ``verify --suite identities`` may run, at about 150 us each
MAX_TRIALS = 1_000_000

#: most steps an rk4 run may take, about the last time over --step; each
#: step is four products with A
MAX_RK4_STEPS = 1_000_000

#: common single-string measurement schemes on the chain, by case name
CHAIN_CASES = {
    "a": "X1",
    "b": "Z1",
    "c": "Z1 Y2",
    "d": "Y1 Z2",
    "e": "Z1 Z2 X3",
    "f": "X1 Y2 Z3",
}


# ---------------------------------------------------------------------------
# shared input handling


def _finite(text: str, option: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{option} takes finite numbers, got {text.strip()!r}")
    return value


def _parse_couplings(text: Optional[str], n_qubits: int) -> list[float]:
    if text is None:
        return [1.0] * (n_qubits - 1)
    vals = [_finite(v, "--couplings") for v in text.split(",") if v.strip() != ""]
    if len(vals) != n_qubits - 1:
        raise ValueError(
            f"expected {n_qubits - 1} couplings for {n_qubits} qubits, got {len(vals)}"
        )
    return vals


def _chain(n_qubits: int, couplings: Optional[str]) -> HamiltonianSpec:
    """The exchange chain of ``--chain N`` or ``chain --n N``."""
    # both refused before the couplings are parsed, whose count depends on N;
    # the upper bound is the width every loader accepts
    if n_qubits < 2:
        raise ValueError("a chain needs at least 2 qubits")
    if n_qubits > MAX_QUBITS:
        json_width(n_qubits)
    return build_exchange_chain(n_qubits, _parse_couplings(couplings, n_qubits))


def _load_hamiltonian(args) -> HamiltonianSpec:
    if getattr(args, "hamiltonian", None):
        data = json.loads(Path(args.hamiltonian).read_text())
        return hamiltonian_from_json(data)
    if getattr(args, "chain", None) is not None:
        return _chain(args.chain, getattr(args, "couplings", None))
    raise ValueError("provide --hamiltonian FILE or --chain N")


def _load_measurement(args, n_qubits: int) -> MeasurementSpec:
    if getattr(args, "measurement_file", None):
        data = json.loads(Path(args.measurement_file).read_text())
        meas = measurement_from_json(data)
        if meas.n_qubits != n_qubits:
            raise ValueError(
                f"measurement file is {meas.n_qubits}-qubit, expected {n_qubits}"
            )
        return meas
    texts = getattr(args, "measurement", None)
    if not texts:
        raise ValueError("provide --measurement TEXT or --measurement-file FILE")
    return MeasurementSpec.from_texts(texts, n_qubits)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    # in slices, so no encoded copy of the whole payload is made at once
    with open(out, "w") as f:
        for i in range(0, len(text), 1 << 20):
            f.write(text[i : i + (1 << 20)])


def _read_rho0(path: str) -> np.ndarray:
    """The density matrix in a --rho0-file: a square JSON matrix of numbers."""
    rows = json.loads(Path(path).read_text())
    square = isinstance(rows, list) and len(rows) > 0 and all(
        isinstance(row, list) and len(row) == len(rows) for row in rows
    )
    # bool is an int subclass, so the types are matched exactly
    if not square or not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError(f"--rho0-file {path} must hold a square matrix of numbers")
    try:
        rho = np.array(rows, dtype=complex)
    except OverflowError:  # an integer past the float range
        rho = None
    if rho is None or not np.isfinite(rho).all():
        raise ValueError(f"--rho0-file {path} must hold finite numbers")
    return rho


def _parse_times(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--times takes start:stop:step, got {text!r}")
    start, stop, step = (_finite(p, "--times") for p in parts)
    if step <= 0:
        raise ValueError(f"--times step must be positive, got {text!r}")
    steps = (stop - start) / step
    # counted before np.arange allocates; an overflowing count fails it too
    if not steps + 1 <= MAX_TIME_POINTS:
        raise ValueError(f"--times {text!r} asks for more than {MAX_TIME_POINTS} time points")
    return start + step * np.arange(int(steps + 1e-9) + 1)


# ---------------------------------------------------------------------------
# subcommands


def cmd_chain(args) -> int:
    spec = _chain(args.n, args.couplings)
    _write_output(dump_json(hamiltonian_to_json(spec)), args.out)
    return EXIT_OK


def _ordered_set(spec: HamiltonianSpec, meas: MeasurementSpec) -> AccessibleSet:
    if not meas.decomposed:
        raise ValueError("the measurement has no nonzero Pauli term to seed the closure")
    digamma = decomposed_digamma(spec)
    g = generate(digamma, list(meas.decomposed))
    return order_members(g, build_graph(g, digamma), partition_k_finite(g))


def cmd_gen(args) -> int:
    spec = _load_hamiltonian(args)
    meas = _load_measurement(args, spec.n_qubits)
    ordered = _ordered_set(spec, meas)
    if args.format == "text":
        payload = ordered.to_text()
    else:
        payload = accessible_set_to_json(ordered)
    _write_output(payload, args.out)
    summary = [f"members: {len(ordered)}"]
    blocks = " ".join(f"k={k}:{b - a}" for k, a, b in ordered.partition)
    summary.append(f"blocks: {blocks}")
    print("\n".join(summary), file=sys.stderr if args.out in (None, "-") else sys.stdout)
    return EXIT_OK


def cmd_graph(args) -> int:
    g = load_accessible_set(args.set)
    spec = _load_hamiltonian(args)
    if spec.n_qubits != g.n_qubits:
        raise ValueError("Hamiltonian and set disagree on qubit count")
    digamma = decomposed_digamma(spec)
    gr = build_graph(g, digamma)
    if args.format == "dot":
        payload = export_dot(gr, g.partition)
    else:
        payload = graph_to_json(gr, g.partition)
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_model(args) -> int:
    g = load_accessible_set(args.set)
    spec = _load_hamiltonian(args)
    meas = _load_measurement(args, g.n_qubits)
    model = build_model(g, spec, meas)
    _write_output(model_to_json(model), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    times = _parse_times(args.times)
    if not math.isfinite(args.step):
        raise ValueError(f"--step takes a finite number, got {args.step!r}")
    t_end = float(times.max(initial=0.0))  # an empty grid is refused below
    if args.integrator == "rk4" and args.step > 0 and t_end / args.step > MAX_RK4_STEPS:
        raise ValueError(
            f"--step {args.step!r} asks for more than {MAX_RK4_STEPS} rk4 steps "
            f"to reach t = {t_end!r}"
        )
    if args.rho0_file:
        x0_source = _read_rho0(args.rho0_file)
    else:
        if args.rho0 is None:
            raise ValueError("provide --rho0 KETS or --rho0-file FILE")
        x0_source = args.rho0
    x0 = initial_state_vector(x0_source, model.table)
    result = simulate_reduced(
        model, x0, times, integrator=args.integrator, step=args.step
    )
    _write_output(trajectory_to_csv(result), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _parse_range(text: str, lo_default: int, hi_default: int) -> tuple[int, int]:
    if text is None:
        return lo_default, hi_default
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"--n takes a size or a range like 2..10, got {text!r}") from None
    if max(lo, hi) > MAX_QUBITS:
        raise ValueError(f"--n takes sizes up to MAX_QUBITS = {MAX_QUBITS}, got {text!r}")
    return lo, hi


def _cases_for(n: int) -> dict[str, str]:
    widths = {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3, "f": 3}
    return {name: text for name, text in CHAIN_CASES.items() if widths[name] <= n}


def _suite_prop2(lo: int, hi: int):
    for n in range(max(2, lo), hi + 1):
        digamma = exchange_digamma(n)
        ok = True
        detail = ""
        for m in range(1, n + 1):
            for axis in ("X", "Y"):
                seed = PauliString.from_cells(
                    n, {**{j: "Z" for j in range(1, m)}, m: axis}
                )
                closed = chain_closed_form(n, m, axis)
                gen = generate(digamma, [seed])
                if closed.member_keys() != gen.member_keys():
                    ok = False
                    detail = f" (m={m}, axis={axis})"
        yield f"prop2 n={n}", ok, detail


def _suite_case_d_count(lo: int, hi: int):
    for n in range(max(2, lo), hi + 1):
        g = generate(exchange_digamma(n), [PauliString.from_text("Y1 Z2", n)])
        part = partition_k_finite(g)
        sizes = {k: len(idx) for k, idx in part.blocks}
        want = {k: (3 * k - 2) * (k - 1) // 2 for k in range(2, n + 1)}
        total_ok = len(g) == (n**3 - n**2) // 2
        ok = sizes == want and total_ok
        yield f"case-d-count n={n}", ok, "" if ok else f" (got {sizes}, |G|={len(g)})"


def _suite_oracle(lo: int, hi: int):
    for n in range(max(1, lo), min(hi, 4) + 1):
        digamma = exchange_digamma(n) if n >= 2 else []
        for name, text in _cases_for(n).items():
            seed = PauliString.from_text(text, n)
            fast = generate(digamma, [seed])
            ref = generate_reference(digamma, [seed])
            ok = fast.member_keys() == ref.member_keys()
            yield f"oracle n={n} case {name}", ok, ""


def _is_simple(gr) -> bool:
    """No loop (u, u) and no unordered pair {u, v} joined twice."""
    lo, hi = gr.ends.min(axis=1), gr.ends.max(axis=1)
    pairs = np.sort(lo * len(gr) + hi)
    return bool((lo != hi).all() and (pairs[1:] != pairs[:-1]).all())


def _regenerates_from_every_member(g, digamma) -> bool:
    """Whether the closure of each single member of g is exactly g: no
    member's child falls outside g, and every member reaches all of g."""
    closed, covered = _regenerates(g.n_qubits, digamma, g.packed_keys())
    return closed and covered


def _suite_lemmas(lo: int, hi: int):
    for n in range(max(2, lo), hi + 1):
        digamma = exchange_digamma(n)
        for name, text in _cases_for(n).items():
            seed = PauliString.from_text(text, n)
            g = generate(digamma, [seed])
            gr = build_graph(g, digamma)
            # on packed keys x | z << n: the label nu maps t to t ^ nu exactly
            # when t & dual(nu) has odd parity, with dual = z | x << n
            labels = [(s.x_mask | s.z_mask << n, s.z_mask | s.x_mask << n) for s in gr.digamma]
            us, vs = gr.ends.T.tolist()
            packed = g.packed_keys()
            simple = _is_simple(gr)
            symmetric = all(
                (packed[u] & dual).bit_count() & 1 and packed[u] ^ nu == packed[v]
                and (packed[v] & dual).bit_count() & 1 and packed[v] ^ nu == packed[u]
                for u, v, (nu, dual) in zip(
                    us, vs, (labels[j] for j in gr.label_index.tolist())
                )
            )
            connected = is_connected(gr)
            regen = _regenerates_from_every_member(g, digamma)
            ok = simple and symmetric and connected and regen
            detail = "" if ok else (
                f" (simple={simple}, symmetric={symmetric},"
                f" connected={connected}, regen={regen})"
            )
            yield f"lemmas n={n} case {name}", ok, detail


def _restrict(s: PauliString, n_small: int) -> tuple[int, int]:
    mask = (1 << n_small) - 1
    return s.x_mask & mask, s.z_mask & mask


def _suite_prop3(lo: int, hi: int):
    for n in range(max(2, lo), hi + 1):
        digamma = exchange_digamma(n)
        for name, text in _cases_for(n).items():
            seed_width = PauliString.from_text(text, n).highest_site()
            g = generate(digamma, [PauliString.from_text(text, n)])
            part = partition_k_finite(g)
            # nesting: the i-qubit closure equals the union of blocks k <= i
            nest_ok = True
            for i in range(max(2, seed_width), n):
                small = generate(
                    exchange_digamma(i), [PauliString.from_text(text, i)]
                )
                small_keys = {(s.x_mask, s.z_mask) for s in small.members}
                big_keys = {
                    _restrict(g.members[j], i)
                    for k, idx in part.blocks
                    if k <= i
                    for j in idx
                }
                if small_keys != big_keys:
                    nest_ok = False
            report = verify_block_regeneration(g, part, digamma)
            ok = nest_ok and report.all_passed
            detail = "" if ok else (
                f" (nesting={nest_ok}, regeneration failures={report.failures()})"
            )
            yield f"prop3 n={n} case {name}", ok, detail


def _random_string(rng: np.random.Generator, n: int) -> PauliString:
    x = int(rng.integers(0, 1 << n))
    z = int(rng.integers(0, 1 << n))
    return PauliString(n, x, z)


def _suite_identities(trials: int, seed: int):
    rng = np.random.default_rng(seed)

    bilinear_ok = True
    for _ in range(trials):
        # two disjoint single-site blocks inside a 2-qubit system
        letters = "IXYZ"
        a, b = (
            PauliString.from_cells(2, {1: letters[rng.integers(4)]}) for _ in range(2)
        )
        d, e = (
            PauliString.from_cells(2, {2: letters[rng.integers(4)]}) for _ in range(2)
        )
        if not check_bilinear_decomposition(a, d, b, e):
            bilinear_ok = False
            break

    n = 4
    digamma = exchange_digamma(n)
    perm_ok = True
    even_ok = True
    checked_perm = 0
    checked_even = 0
    for _ in range(trials):
        start = _random_string(rng, n)
        length = int(rng.integers(1, 7))
        seq = [digamma[rng.integers(len(digamma))] for _ in range(length)]
        end = apply_sequence(start, seq)
        if end is None:
            continue
        perm = [seq[i] for i in rng.permutation(length)]
        other = apply_sequence(start, perm)
        if other is not None:
            checked_perm += 1
            if other != end:
                perm_ok = False
        counts: dict[tuple[int, int], int] = {}
        for nu in seq:
            counts[(nu.x_mask, nu.z_mask)] = counts.get((nu.x_mask, nu.z_mask), 0) + 1
        for key, cnt in counts.items():
            if cnt % 2 != 0:
                continue
            reduced = [nu for nu in seq if (nu.x_mask, nu.z_mask) != key]
            red_end = apply_sequence(start, reduced)
            if red_end is not None:
                checked_even += 1
                if red_end != end:
                    even_ok = False
    if not checked_perm or not checked_even:
        # the two lines count only sequences whose brackets stay nonzero
        raise ValueError(
            f"--trials {trials} checks {checked_perm} nonzero pairs and "
            f"{checked_even} reductions; raise --trials"
        )
    yield f"identities bilinear ({trials} trials)", bilinear_ok, ""
    yield f"identities permutation ({checked_perm} nonzero pairs)", perm_ok, ""
    yield f"identities even-removal ({checked_even} reductions)", even_ok, ""


def cmd_verify(args) -> int:
    suites = {
        "prop2": lambda: _suite_prop2(*_parse_range(args.n, 2, 12)),
        "prop3": lambda: _suite_prop3(*_parse_range(args.n, 2, 6)),
        "case-d-count": lambda: _suite_case_d_count(*_parse_range(args.n, 2, 10)),
        "oracle": lambda: _suite_oracle(*_parse_range(args.n, 1, 4)),
        "lemmas": lambda: _suite_lemmas(*_parse_range(args.n, 2, 8)),
        "identities": lambda: _suite_identities(args.trials, args.seed),
    }
    if args.suite not in suites:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from {sorted(suites)}"
        )
    if args.suite == "identities":
        if not 1 <= args.trials <= MAX_TRIALS:
            raise ValueError(f"--trials takes 1 to MAX_TRIALS = {MAX_TRIALS}, got {args.trials}")
        if args.seed < 0:
            raise ValueError(f"--seed takes a non-negative integer, got {args.seed}")
    checked = 0
    all_ok = True
    for name, ok, detail in suites[args.suite]():
        print(f"{'PASS' if ok else 'FAIL'} {name}{detail}")
        checked += 1
        all_ok = all_ok and ok
    if not checked:
        raise ValueError(f"--n {args.n} selects no size the {args.suite} suite runs")
    return EXIT_OK if all_ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser


def _add_hamiltonian_source(sub) -> None:
    sub.add_argument("--hamiltonian", help="Hamiltonian spec JSON file")
    sub.add_argument("--chain", type=int, help="build an exchange chain of N qubits")
    sub.add_argument(
        "--couplings", help="comma-separated couplings for --chain (default all 1)"
    )


def _add_measurement_source(sub) -> None:
    sub.add_argument(
        "--measurement",
        action="append",
        help="measurement operator text (repeatable)",
    )
    sub.add_argument("--measurement-file", help="measurement spec JSON file")


def build_parser() -> tuple[argparse.ArgumentParser, list]:
    parser = argparse.ArgumentParser(
        prog="pauli-access",
        description="Accessible sets, labeled graphs and reduced models for qubit networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    created = []

    p = subs.add_parser("chain", help="emit an exchange-chain Hamiltonian spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--couplings")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_chain)
    created.append(p)

    p = subs.add_parser("gen", help="generate, partition and order an accessible set")
    _add_hamiltonian_source(p)
    _add_measurement_source(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; has no effect (generation is serial)",
    )
    p.set_defaults(func=cmd_gen)
    created.append(p)

    p = subs.add_parser("graph", help="export the labeled access graph")
    p.add_argument("--set", required=True, help="accessible set JSON file")
    _add_hamiltonian_source(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_graph)
    created.append(p)

    p = subs.add_parser("model", help="extract the state-space model")
    p.add_argument("--set", required=True)
    _add_hamiltonian_source(p)
    _add_measurement_source(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_model)
    created.append(p)

    p = subs.add_parser("simulate", help="integrate the reduced model to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--rho0", help="product state, one ket per site (e.g. 0,1,+)")
    p.add_argument("--rho0-file", help="JSON dense density matrix")
    p.add_argument("--times", default="0:10:0.1", help="start:stop:step")
    p.add_argument(
        "--integrator",
        choices=("expm", "rk4"),
        default="expm",
        help=f"expm (exact; dense up to {DENSE_DIM} states, sparse above) or rk4",
    )
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_simulate)
    created.append(p)

    p = subs.add_parser("verify", help="run a built-in property suite")
    p.add_argument(
        "--suite",
        required=True,
        help="prop2 | prop3 | case-d-count | oracle | lemmas | identities",
    )
    p.add_argument("--n", help="size or range, e.g. 5 or 2..10")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    created.append(p)

    return parser, created


def _config_defaults(config, subparsers: list) -> dict:
    """Per subcommand parser, the --config values its options accept.

    A key names an option, e.g. ``rho0-file`` or ``rho0_file``, and its value
    is checked as if it followed that option on the command line.  A key that
    no subcommand's option accepts is an input error naming the key.
    """
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object of option values")
    defaults: dict = {sub: {} for sub in subparsers}
    for key, value in config.items():
        dest = key.replace("-", "_")
        error = f"config key {key!r} is not an option of any subcommand"
        for sub in subparsers:
            for action in sub._actions:
                if action.dest == dest and not isinstance(action, argparse._HelpAction):
                    try:
                        defaults[sub][dest] = _config_value(action, value)
                    except ValueError as exc:
                        error = f"config key {key!r}: {exc}"
        if not any(dest in values for values in defaults.values()):
            raise ValueError(error)
    return defaults


def _config_value(action: argparse.Action, value):
    """The value run through the option's type and choices; a repeatable
    option takes a list of values."""
    repeatable = isinstance(action, argparse._AppendAction)
    if repeatable and not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    numeric = action.type in (int, float)
    checked = []
    for item in value if repeatable else [value]:
        if isinstance(item, bool) or not isinstance(item, (str, int, float) if numeric else str):
            raise ValueError(f"expected {'a number' if numeric else 'a string'}, got {item!r}")
        try:
            item = action.type(str(item)) if action.type else item
        except ValueError:
            raise ValueError(f"invalid value {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"expected one of {', '.join(action.choices)}, got {item!r}")
        checked.append(item)
    return checked if repeatable else checked[0]


def _stage(exc: BaseException) -> str:
    """The innermost function of this package that ``exc`` passed through."""
    package = str(Path(__file__).parent)
    stage, tb = "main", exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.startswith(package):
            stage = code.co_name
        tb = tb.tb_next
    return stage


def _attach_dash_values(argv: list, subparsers: list) -> list:
    """``--opt VALUE`` as ``--opt=VALUE`` where VALUE starts with "-".

    argparse reads such a value (``--couplings -1,1``, ``--rho0 -,0``) as an
    unknown option and refuses it; a token that names an option stays apart.
    """
    actions = [a for sub in subparsers for a in sub._actions]
    options = {opt for a in actions for opt in a.option_strings}
    takes_value = {opt for a in actions if a.nargs is None for opt in a.option_strings}
    out = []
    for arg in argv:
        if out and out[-1] in takes_value and arg[:1] == "-" and arg not in options:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    config = {}
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            print("error: --config requires a path", file=sys.stderr)
            return EXIT_INPUT
        try:
            config = json.loads(Path(argv[i + 1]).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_INPUT
        del argv[i : i + 2]

    parser, subparsers = build_parser()
    argv = _attach_dash_values(argv, subparsers)
    try:
        defaults = _config_defaults(config, subparsers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for sub, values in defaults.items():
        # the options start as None, so a flag given on the command line
        # (a repeatable one included) is told apart from the config value
        sub.set_defaults(config_values=values, **dict.fromkeys(values))

    args = parser.parse_args(argv)
    for dest, value in getattr(args, "config_values", {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    try:
        return args.func(args)
    except (ClosureError, NormDriftError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        stage = _stage(exc)
        print(f"internal failure: {args.command} ran out of memory in {stage}", file=sys.stderr)
        return EXIT_INTERNAL
    except (
        GrammarError, ValueError, OSError, json.JSONDecodeError, KeyError,
        SimulationUnstableError,  # an rk4 --step too large for the model
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
