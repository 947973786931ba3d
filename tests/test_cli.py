"""Command-line interface: pipeline runs, exit codes, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pauliaccess import (
    AccessibleSet,
    MeasurementSpec,
    bracket,
    build_graph,
    cli,
    closure,
    exchange_digamma,
    generate,
    parse_term,
    validation,
)
from pauliaccess._fixedwidth import dump_json
from pauliaccess.cli import main
from pauliaccess.graph import AccessGraph
from pauliaccess.hamiltonian import build_exchange_chain, hamiltonian_to_json, measurement_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chain_writes_spec(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, _, _ = run(capsys, "chain", "--n", "4", "--couplings", "1,0.5,2", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "pauli-access-spec/1"
    assert len(data["terms"]) == 6


#: finite coefficients, with the texts the writer must keep exactly
COEFFS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, 123456.789]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(COEFFS, min_size=1, max_size=5))
def test_chain_spec_is_the_indented_json_of_the_spec(couplings):
    n = len(couplings) + 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chain", "--n", str(n), f"--couplings={','.join(map(repr, couplings))}"])
    assert code == 0
    spec = hamiltonian_to_json(build_exchange_chain(n, couplings))
    assert out.getvalue() == json.dumps(spec, indent=2) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.lists(COEFFS, min_size=1, max_size=3), min_size=1, max_size=3))
def test_measurement_file_is_the_indented_json_of_the_spec(operators):
    cells = ["X1", "Y2", "Z1 Z2"]
    texts = [" + ".join(f"{c!r} * {s}" for c, s in zip(op, cells)) for op in operators]
    data = measurement_to_json(MeasurementSpec.from_texts(texts, 2))
    assert [[t["coeff"] for t in op] for op in data["operators"]] == operators
    assert dump_json(data) == json.dumps(data, indent=2) + "\n"


def test_a_value_starting_with_a_dash_follows_its_option(tmp_path, capsys):
    # argparse took "-1,1" and "-,0" for unknown options and exited 2
    chain = ("chain", "--n", "3")
    plain = run(capsys, *chain, "--couplings", "-1,1")
    assert plain == run(capsys, *chain, "--couplings=-1,1")
    # a unique prefix names its option, as argparse reads it
    assert plain == run(capsys, *chain, "--coup", "-1,1")
    assert plain[0] == 0
    assert [t["coeff"] for t in json.loads(plain[1])["terms"]] == [-1.0, -1.0, 1.0, 1.0]

    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    source = ("--chain", "2", "--measurement", "Z1")
    assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
    assert run(capsys, "model", "--set", str(set_path), *source, "--out", str(model_path))[0] == 0
    simulate = ("simulate", "--model", str(model_path), "--times", "0:1:0.5")
    plain = run(capsys, *simulate, "--rho0", "-,0")
    assert plain == run(capsys, *simulate, "--rho0=-,0")
    assert plain[0] == 0 and plain[1].startswith("t,")

    # an option in the value's place still leaves its option without one
    code, err = run_quietly([*chain, "--couplings", "--out", str(tmp_path / "x")])
    assert code == 2 and "argument --couplings: expected one argument" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "m.json", "--times=--"],
    ["simulate", "--model", "m.json", "--times", "--"],
    ["simulate", "--model", "m.json", "--step=--"],
    ["gen", "--chain", "3", "--measurement", "Y1 Z2", "--couplings=--"],
    ["gen", "--chain", "3", "--measurement=--"],
    ["gen", "--chain", "3", "--measurement", "--"],
    ["simulate", "--model", "m.json", "--step", "--"],
])
def test_a_lone_double_dash_value_exits_2(argv):
    # argparse dropped the "--" and left an empty list, which
    # _parse_times split as a str and failed with an AttributeError
    code, err = run_quietly(argv)
    option = next(arg for arg in reversed(argv) if arg.startswith("--") and arg != "--").split("=")[0]
    assert code == 2 and f"argument {option}: expected one argument" in err, (code, err)
    assert "Traceback" not in err


def test_subcommands_have_no_option_that_looks_like_a_negative_number():
    # such an option makes argparse read every "-..." token as an option, so
    # "--couplings -1,1" would lose its value again
    _, subparsers = cli.build_parser()
    assert subparsers and all(sub._has_negative_number_optionals == [] for sub in subparsers)


def test_an_unknown_option_before_the_subcommand_exits_2():
    # the top-level parser still reads "-x" as an option, not as a command
    code, err = run_quietly(["-x"])
    assert code == 2 and "the following arguments are required: command" in err


@pytest.fixture
def case_d_n4_set(tmp_path, capsys):
    path = tmp_path / "set.json"
    assert run(capsys, "gen", "--chain", "4", "--measurement", "Y1 Z2", "--out", str(path))[0] == 0
    return path


def test_explain_the_seed_is_one_line(case_d_n4_set, capsys):
    code, out, err = run(capsys, "explain", "--set", str(case_d_n4_set), "--member", "Y1 Z2")
    assert (code, out, err) == (0, "seed Y1 Z2 (member 0)\n", "")


def test_explain_walks_the_parents_down_from_the_seed(case_d_n4_set, capsys):
    code, out, _ = run(capsys, "explain", "--set", str(case_d_n4_set), "--member", "Y1 Y2 Z3 Y4")
    assert code == 0
    assert out == (
        "seed Y1 Z2 (member 0)\n"
        "step 1: bracket with X2 X3 gives Y1 Y2 X3 (member 7)\n"
        "step 2: bracket with Y3 Y4 gives Y1 Y2 Z3 Y4 (member 21)\n"
    )
    # each step is the bracket it names
    g = closure.load_accessible_set(case_d_n4_set)
    for line in out.splitlines()[1:]:
        edge, member = line.split("bracket with ")[1].split(" (")[0].split(" gives ")
        parent = g.members[g.provenance[int(line.rsplit(" ", 1)[1][:-1])][0]]
        assert bracket(parse_term(edge, 4), parent)[1] == parse_term(member, 4)


def test_explain_an_absent_member_exits_2(case_d_n4_set, capsys):
    code, out, err = run(capsys, "explain", "--set", str(case_d_n4_set), "--member", "X1")
    assert (code, out) == (2, "")
    assert err == f"error: X1 is not a member of {case_d_n4_set}\n"


def test_explain_a_provenance_cycle_exits_2(case_d_n4_set, capsys):
    # the loaders accept a set whose parents form a cycle; the walk stops at it
    data = json.loads(case_d_n4_set.read_text())
    data["provenance"][0] = {"parent": 7, "edge": "X2 X3"}
    case_d_n4_set.write_text(json.dumps(data))
    code, out, err = run(capsys, "explain", "--set", str(case_d_n4_set), "--member", "Y1 Y2 Z3 Y4")
    assert (code, out, err) == (2, "", "error: provenance of member 7 forms a cycle\n")


def test_payloads_render_member_texts_from_the_table(case_d_n4_set, tmp_path, capsys):
    # the same set, its member texts valid but not what to_text writes: the
    # cells reversed and two spaces apart
    data = json.loads(case_d_n4_set.read_text())
    canonical = data["members"]
    data["members"] = ["  " + "  ".join(t.split()[::-1]) for t in canonical]
    assert not set(data["members"]) & set(canonical)
    scrambled = tmp_path / "scrambled.json"
    scrambled.write_text(json.dumps(data))
    commands = {
        "graph json": ("graph", "--chain", "4", "--format", "json"),
        "dot": ("graph", "--chain", "4"),
        "model": ("model", "--chain", "4", "--measurement", "Y1 Z2"),
        "explain": ("explain", "--member", "Y1 Y2 Z3 Y4"),
    }
    outputs = {}
    for path in (case_d_n4_set, scrambled):
        for name, (command, *args) in commands.items():
            code, out, err = run(capsys, command, "--set", str(path), *args)
            assert (code, err) == (0, ""), (name, path)
            outputs[name, path] = out
    for name in commands:
        assert outputs[name, scrambled] == outputs[name, case_d_n4_set], name
    assert json.loads(outputs["graph json", scrambled])["vertices"] == canonical
    assert json.loads(outputs["model", scrambled])["ordering"] == canonical
    dot = outputs["dot", scrambled]
    assert all(f'n{i} [label="{t}"];' in dot for i, t in enumerate(canonical))
    assert "gives Y1 Y2 Z3 Y4 (member 21)" in outputs["explain", scrambled]


@pytest.mark.parametrize("text", ["0 * X1", "X1 + -1 * X1"])
def test_gen_with_an_all_zero_measurement_exits_2_naming_it(capsys, text):
    code, stdout, err = run(capsys, "gen", "--chain", "2", "--measurement", text)
    assert (code, stdout) == (2, "")
    assert err == "error: the measurement has no nonzero Pauli term to seed the closure\n"


def test_gen_summary_case_d_n5(tmp_path, capsys):
    out = tmp_path / "set.json"
    code, stdout, _ = run(
        capsys,
        "gen", "--chain", "5", "--measurement", "Y1 Z2", "--out", str(out),
    )
    assert code == 0
    assert "members: 50" in stdout
    assert "k=2:2" in stdout and "k=5:26" in stdout
    data = json.loads(out.read_text())
    assert len(data["members"]) == 50


def test_gen_prop2_members(tmp_path, capsys):
    out = tmp_path / "set.json"
    code, stdout, _ = run(
        capsys, "gen", "--chain", "3", "--measurement", "X1", "--out", str(out)
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["members"] == ["X1", "Z1 Y2", "Z1 Z2 X3"]


def test_gen_rejects_bad_site(capsys):
    code, _, err = run(capsys, "gen", "--chain", "3", "--measurement", "X0")
    assert code == 2
    assert "position" in err


def test_gen_rejects_missing_measurement(capsys):
    code, _, err = run(capsys, "gen", "--chain", "3")
    assert code == 2


def test_gen_member_budget(tmp_path, monkeypatch, capsys):
    # case (d) at N = 5 closes to exactly 50 members
    argv = ("gen", "--chain", "5", "--measurement", "Y1 Z2", "--out", str(tmp_path / "s.json"))
    monkeypatch.setattr(closure, "MAX_MEMBERS", 50)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(closure, "MAX_MEMBERS", 49)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "MAX_MEMBERS = 49" in err
    assert "Traceback" not in err


def test_graph_dot_and_model_and_simulate(tmp_path, capsys):
    set_path = tmp_path / "set.json"
    assert run(
        capsys, "gen", "--chain", "2", "--measurement", "Z1", "--out", str(set_path)
    )[0] == 0

    dot_path = tmp_path / "graph.dot"
    code, _, _ = run(
        capsys,
        "graph", "--set", str(set_path), "--chain", "2",
        "--format", "dot", "--out", str(dot_path),
    )
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("graph access_set {") and dot.count(" -- ") == 4

    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys,
        "model", "--set", str(set_path), "--chain", "2",
        "--measurement", "Z1", "--out", str(model_path),
    )
    assert code == 0
    model = json.loads(model_path.read_text())
    entries = {(r, c): v for r, c, v in model["A"]}
    for (r, c), v in entries.items():
        assert entries[(c, r)] == -v

    csv_path = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys,
        "simulate", "--model", str(model_path), "--rho0", "0,1",
        "--times", "0:1:0.25", "--out", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("t,x_1")
    assert len(lines) == 6


def test_graph_and_model_render_a_member_written_non_canonically(tmp_path, capsys):
    # one member written "y1  z2" is parsed by parse_term, so the whole
    # ordering is rendered again instead of echoed from the file
    chain, meas = ("--chain", "4"), ("--measurement", "Y1 Z2")
    canonical, edited = tmp_path / "set.json", tmp_path / "edited.json"
    assert run(capsys, "gen", *chain, *meas, "--out", str(canonical))[0] == 0
    data = json.loads(canonical.read_text())
    assert data["members"][0] == "Y1 Z2"
    data["members"][0] = "y1  z2"
    edited.write_text(json.dumps(data))
    payloads = {}
    for name, path in (("canonical", canonical), ("edited", edited)):
        for command, extra in (("graph", ("--format", "dot")), ("graph", ("--format", "json")),
                               ("model", meas)):
            out = tmp_path / f"{name}-{command}{''.join(extra)}"
            assert run(capsys, command, "--set", str(path), *chain, *extra,
                       "--out", str(out))[0] == 0
            payloads.setdefault(name, []).append(out.read_bytes())
    assert payloads["edited"] == payloads["canonical"]
    assert b'"y1  z2"' not in b"".join(payloads["edited"])


def test_simulate_default_integrator_above_old_dense_cap(tmp_path, capsys):
    # case (d) at N = 20 has 3 800 states, above the 2 000 the dense expm took
    chain = ("--chain", "20", "--measurement", "Y1 Z2")
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    assert run(capsys, "gen", *chain, "--out", str(set_path))[0] == 0
    assert run(capsys, "model", "--set", str(set_path), *chain, "--out", str(model_path))[0] == 0
    kets = ",".join(("+", "0", "i+", "1", "-", "i-")[i % 6] for i in range(20))
    simulate = ("simulate", "--model", str(model_path), "--rho0", kets)
    default, rk4 = tmp_path / "default.csv", tmp_path / "rk4.csv"
    assert run(capsys, *simulate, "--out", str(default))[0] == 0
    code, _, _ = run(
        capsys, *simulate, "--integrator", "rk4", "--step", "1e-3", "--out", str(rk4)
    )
    assert code == 0
    exact, marched = (np.loadtxt(p, delimiter=",", skiprows=1) for p in (default, rk4))
    assert exact.shape == (101, 1 + 3800 + 1)
    assert np.max(np.abs(exact - marched)) <= 1e-9
    norms = np.linalg.norm(exact[:, 1:3801], axis=1)
    assert np.max(np.abs(norms - norms[0])) <= 1e-12


def test_graph_detects_non_fixpoint_set(tmp_path, capsys):
    set_path = tmp_path / "set.json"
    set_path.write_text(
        json.dumps(
            {
                "schema": "pauli-access-set/1",
                "n_qubits": 2,
                "members": ["Z1"],
                "provenance": [{"parent": None, "edge": None}],
                "partition": None,
                "cores": None,
            }
        )
    )
    code, _, err = run(capsys, "graph", "--set", str(set_path), "--chain", "2")
    assert code == 2
    assert "not a fixpoint" in err


def test_a_set_not_closed_under_the_hamiltonian_exits_2(tmp_path, capsys):
    # the case (d) N = 3 set with member X2 written "X2X1", which reads as
    # X1 X2: still unique and still in block k=2, but no longer closed.  The
    # set-file fuzz test drew this file, and graph and model exited 3
    path = tmp_path / "set.json"
    assert run(capsys, "gen", "--chain", "3", "--measurement", "Y1 Z2", "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    assert data["members"][1] == "X2"
    data["members"][1] = "X2X1"
    path.write_text(json.dumps(data))
    assert run(capsys, "graph", "--set", str(path), "--chain", "3") == (
        2, "", "error: bracket of Y1 Z2 with Y1 Y2 lands outside the set (X2); "
        "input is not a fixpoint\n",
    )
    assert run(capsys, "model", "--set", str(path), "--chain", "3", "--measurement", "Y1 Z2") == (
        2, "", "error: bracket of Y1 Z2 with Y1 Y2 lands outside the set (X2); "
        "input is not a fixpoint\n",
    )


@pytest.mark.parametrize("argv, message", [
    (("graph", "--set", "SET", "--chain", "5"), "Hamiltonian and set disagree on qubit count"),
    (
        ("model", "--set", "SET", "--chain", "5", "--measurement", "Y1 Z2"),
        "qubit counts of set, Hamiltonian and measurement differ",
    ),
    (
        ("model", "--set", "SET", "--chain", "4", "--measurement", "Z1"),
        "measurement string Z1 is not in the accessible set",
    ),
])
def test_a_set_that_does_not_fit_exits_2_with_one_line(case_d_n4_set, capsys, argv, message):
    # SET is the case (d) N = 4 set
    argv = [str(case_d_n4_set) if arg == "SET" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "--suite", "prop2", "--n", "2..5")[0] == 0
    assert run(capsys, "verify", "--suite", "case-d-count", "--n", "2..6")[0] == 0
    assert run(capsys, "verify", "--suite", "oracle", "--n", "2..3")[0] == 0
    code, stdout, _ = run(capsys, "verify", "--suite", "identities", "--trials", "60")
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


#: run in a fresh interpreter, as each CLI process starts: each stage's
#: commands, then the exit codes and the scipy modules loaded so far, written
#: to report.json
COLD_START = r"""
import json, sys
from pauliaccess import cli

out = sys.argv[1]
n4 = ["--chain", "4", "--measurement", "Y1 Z2"]
n11 = ["--chain", "11", "--measurement", "Y1 Z2"]


def simulate(model, kets, *options):
    return ["simulate", "--model", out + model, "--rho0", kets, "--times", "0:1:0.5",
            "--out", out + "/t.csv", *options]


stages = {
    "symbolic": [
        ["chain", "--n", "4", "--out", out + "/spec.json"],
        ["gen", *n4, "--out", out + "/set4.json"],
        ["graph", "--set", out + "/set4.json", "--chain", "4", "--out", out + "/g.dot"],
        ["model", "--set", out + "/set4.json", *n4, "--out", out + "/model4.json"],
        ["verify", "--suite", "case-d-count"],
        simulate("/model4.json", "0,1,+,i-", "--integrator", "rk4"),
    ],
    "dense expm": [simulate("/model4.json", "0,1,+,i-")],
    "sparse rk4": [
        ["gen", *n11, "--out", out + "/set11.json"],
        ["model", "--set", out + "/set11.json", *n11, "--out", out + "/model11.json"],
        simulate("/model11.json", ",".join("0" * 11), "--integrator", "rk4", "--step", "0.01"),
    ],
    "sparse expm": [simulate("/model11.json", ",".join("0" * 11))],
}
report = {}
for stage, commands in stages.items():
    codes = [cli.main(argv) for argv in commands]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    report[stage] = {"codes": codes, "scipy": loaded}
with open(out + "/report.json", "w") as f:
    json.dump(report, f)
"""


def test_only_simulate_loads_scipy(tmp_path):
    # other test modules import scipy.linalg, so this needs its own process;
    # case (d) has 24 states at N = 4, at most DENSE_DIM, and 605 at N = 11
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads((tmp_path / "report.json").read_text())
    assert all(code == 0 for r in stages.values() for code in r["codes"]), stages
    assert stages["symbolic"]["scipy"] == []
    dense = stages["dense expm"]["scipy"]
    assert "scipy.linalg" in dense and not any(m.startswith("scipy.sparse") for m in dense)
    assert "scipy.sparse" in stages["sparse rk4"]["scipy"]
    assert not any(m.startswith("scipy.sparse.linalg") for m in stages["sparse expm"]["scipy"])


def limit_address_space():
    """Run in the child only: cap its address space at 1 GiB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys):
    # case (f) at N = 6 has 225 states: 10^6 rk4 output rows take 1.8 GB
    source = ("--chain", "6", "--measurement", cli.CHAIN_CASES["f"])
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
    assert run(capsys, "model", "--set", str(set_path), *source, "--out", str(model_path))[0] == 0
    env = {
        **os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [
            sys.executable, "-m", "pauliaccess.cli", "simulate", "--model", str(model_path),
            "--rho0", "0,0,0,0,0,0", "--integrator", "rk4", "--times", "0:99999:0.1",
            "--step", "0.1",
        ],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal failure: simulate ran out of memory in _run_rk4\n"
    assert proc.stdout == ""


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2


@pytest.mark.parametrize("argv, named", [
    pytest.param(("--suite", "oracle", "--n", "6"), "--n 6", id="oracle n 6"),  # stops at 4
    pytest.param(("--suite", "prop2", "--n", "5..2"), "--n 5..2", id="empty range"),
    pytest.param(("--suite", "prop2", "--n", "two"), "--n", id="n not an integer"),
    # sizes past the widest a loader accepts started building until memory ran out
    pytest.param(("--suite", "prop2", "--n", "99999999999"),
                 "--n takes sizes up to MAX_QUBITS = 4096", id="n past MAX_QUBITS"),
    pytest.param(("--suite", "lemmas", "--n", "2..4097"),
                 "--n takes sizes up to MAX_QUBITS = 4096", id="range end past MAX_QUBITS"),
    pytest.param(("--suite", "prop3", "--n", "4097..2"),
                 "--n takes sizes up to MAX_QUBITS = 4096", id="range start past MAX_QUBITS"),
    pytest.param(("--suite", "identities", "--trials", "-3"), "--trials", id="negative trials"),
    # ran until killed: a trial takes about 150 us
    pytest.param(("--suite", "identities", "--trials", str(cli.MAX_TRIALS + 1)),
                 "--trials takes 1 to MAX_TRIALS = 1000000", id="trials past MAX_TRIALS"),
    # numpy's "expected non-negative integer" named no option
    pytest.param(("--suite", "identities", "--seed", "-1"),
                 "--seed takes a non-negative integer, got -1", id="negative seed"),
    # trials that draw no sequence whose brackets stay nonzero
    pytest.param(("--suite", "identities", "--trials", "1"), "--trials 1", id="one trial"),
    pytest.param(("--suite", "identities", "--trials", "2", "--seed", "3"), "--trials 2",
                 id="two trials seed 3"),
])
def test_verify_that_checks_nothing_exits_2(capsys, argv, named):
    code, stdout, err = run(capsys, "verify", *argv)
    assert code == 2 and stdout == ""
    assert f"error: {named}" in err


def test_verify_lemmas_past_the_old_pair_budget(capsys):
    # case (f) at N = 17 has 18 496 members: a members^2 walk refused it
    code, stdout, err = run(capsys, "verify", "--suite", "lemmas", "--n", "17")
    assert code == 0 and err == ""
    assert stdout.splitlines() == [f"PASS lemmas n=17 case {c}" for c in "abcdef"]


def test_expm_norm_drift_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    assert run(capsys, "gen", "--chain", "2", "--measurement", "Z1", "--out", str(set_path))[0] == 0
    assert run(
        capsys, "model", "--set", str(set_path), "--chain", "2",
        "--measurement", "Z1", "--out", str(model_path),
    )[0] == 0
    load = cli.load_model

    def load_symmetric(path):
        # the loader refuses a non-antisymmetric A, so it is changed after loading
        model = load(path)
        return dataclasses.replace(model, a_values=np.abs(model.a_values))

    monkeypatch.setattr(cli, "load_model", load_symmetric)
    code, _, err = run(
        capsys, "simulate", "--model", str(model_path), "--rho0", "+,0",
        "--times", "0:0.5:0.25", "--out", str(tmp_path / "traj.csv"),
    )
    assert code == 3
    assert err.startswith("internal consistency failure: expm moved the state norm")
    assert err.count("\n") == 1 and "past the bound 1e-10 * (1 + 3 points)" in err


def test_lemma_simplicity_rejects_loops_and_repeated_pairs():
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    gr = build_graph(g, dig)
    assert cli._is_simple(gr)

    def with_edge(u, v):
        return AccessGraph(
            gr.n_qubits, gr.table, np.vstack([gr.ends, [[u, v]]]),
            np.append(gr.label_index, gr.label_index[0]), gr.digamma,
        )

    u, v = gr.ends[0].tolist()
    assert not cli._is_simple(with_edge(u, v))
    assert not cli._is_simple(with_edge(v, u))
    assert not cli._is_simple(with_edge(u, u))
    no_edges = AccessGraph(gr.n_qubits, gr.table, gr.ends[:0], gr.label_index[:0], gr.digamma)
    assert cli._is_simple(no_edges)


def regenerates_member_by_member(g, dig):
    keys = g.member_keys()
    return all(generate(dig, [m]).member_keys() == keys for m in g.members)


def test_lemma_regeneration_matches_per_member_closures():
    dig = exchange_digamma(4)
    g = generate(dig, [parse_term("Y1 Z2", 4)])
    other = parse_term("Z1", 4)  # seeds case (b), another component
    assert other not in g
    fewer = AccessibleSet(4, g.members[1:], (None,) * (len(g) - 1))
    more = AccessibleSet(4, (*g.members, other), (None,) * (len(g) + 1))
    for s, want in ((g, True), (fewer, False), (more, False)):
        assert regenerates_member_by_member(s, dig) is want
        assert cli._regenerates_from_every_member(s, dig) is want


def write_measurement_file(path, texts, n):
    path.write_text(dump_json(measurement_to_json(MeasurementSpec.from_texts(texts, n))))


def test_measurement_file_matches_measurement_flags(tmp_path, capsys):
    texts = ["Y1 Z2", "0.5 * Z1 + 0.5 * Z3"]
    meas_path = tmp_path / "meas.json"
    write_measurement_file(meas_path, texts, 4)
    sources = {
        "flags": [arg for text in texts for arg in ("--measurement", text)],
        "file": ["--measurement-file", str(meas_path)],
    }
    payloads = {}
    for name, source in sources.items():
        set_path, model_path = tmp_path / f"{name}_set.json", tmp_path / f"{name}_model.json"
        assert run(capsys, "gen", "--chain", "4", *source, "--out", str(set_path))[0] == 0
        code, _, _ = run(
            capsys, "model", "--set", str(set_path), "--chain", "4", *source,
            "--out", str(model_path),
        )
        assert code == 0
        payloads[name] = set_path.read_bytes(), model_path.read_bytes()
    assert payloads["file"] == payloads["flags"]
    assert json.loads(payloads["file"][1])["n_outputs"] == 2


def test_measurement_file_of_another_width_exits_2(tmp_path, capsys):
    meas_path = tmp_path / "meas.json"
    write_measurement_file(meas_path, ["Y1 Z2"], 4)
    code, _, err = run(capsys, "gen", "--chain", "5", "--measurement-file", str(meas_path))
    assert code == 2
    assert "measurement file is 4-qubit, expected 5" in err


def test_pipeline_outputs_are_byte_identical(tmp_path, capsys):
    payloads = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        set_path = base / "set.json"
        model_path = base / "model.json"
        dot_path = base / "graph.dot"
        csv_path = base / "traj.csv"
        threads = "1" if run_dir == "one" else "3"
        assert run(
            capsys,
            "gen", "--chain", "4", "--measurement", "Y1 Z2",
            "--threads", threads, "--out", str(set_path),
        )[0] == 0
        assert run(
            capsys,
            "graph", "--set", str(set_path), "--chain", "4", "--out", str(dot_path),
        )[0] == 0
        assert run(
            capsys,
            "model", "--set", str(set_path), "--chain", "4",
            "--measurement", "Y1 Z2", "--out", str(model_path),
        )[0] == 0
        assert run(
            capsys,
            "simulate", "--model", str(model_path), "--rho0", "0,1,+,i-",
            "--times", "0:2:0.5", "--out", str(csv_path),
        )[0] == 0
        payloads.append(
            tuple(p.read_bytes() for p in (set_path, dot_path, model_path, csv_path))
        )
    assert payloads[0] == payloads[1]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"times": "0:1:0.5", "rho0": "0,1"}))
    set_path = tmp_path / "set.json"
    model_path = tmp_path / "model.json"
    run(capsys, "gen", "--chain", "2", "--measurement", "Z1", "--out", str(set_path))
    run(
        capsys,
        "model", "--set", str(set_path), "--chain", "2",
        "--measurement", "Z1", "--out", str(model_path),
    )
    code, stdout, _ = run(
        capsys, "--config", str(cfg), "simulate", "--model", str(model_path)
    )
    assert code == 0
    assert len(stdout.strip().split("\n")) == 4  # header + t=0,0.5,1.0


@pytest.fixture
def n3_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3}))
    return path


def test_config_with_an_equals_sign(n3_config, capsys):
    spaced = run(capsys, "--config", str(n3_config), "chain", "--couplings", "1,2")
    attached = run(capsys, f"--config={n3_config}", "chain", "--couplings", "1,2")
    assert spaced[0] == 0 and attached == spaced


def test_config_satisfies_a_required_option(n3_config, capsys):
    # --n is required; the config's value counts, and the command line wins
    for flags in ((), ("--n", "4")):
        want = run(capsys, "chain", *(flags or ("--n", "3")))
        assert want[0] == 0
        assert run(capsys, "--config", str(n3_config), "chain", *flags) == want


def test_config_supplies_a_required_path(tmp_path, capsys):
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    run(capsys, "gen", "--chain", "2", "--measurement", "Z1", "--out", str(set_path))
    run(capsys, "model", "--set", str(set_path), "--chain", "2",
        "--measurement", "Z1", "--out", str(model_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model_path), "times": "0:1:0.5", "rho0": "0,1"}))
    code, stdout, _ = run(capsys, "--config", str(cfg), "simulate")
    assert code == 0 and stdout == run(
        capsys, "simulate", "--model", str(model_path), "--times", "0:1:0.5", "--rho0", "0,1"
    )[1]


def test_a_config_token_that_is_a_value_stays_a_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "chain", "--n", "3", "--out=--config")[0] == 0
    assert (tmp_path / "--config").read_text() == run(capsys, "chain", "--n", "3")[1]


@pytest.mark.parametrize("argv, message", [
    (["chain", "--config", "CFG", "--n", "3"], "unrecognized arguments: --config CFG"),
    (["chain", "--n", "3", "--config", "CFG"], "unrecognized arguments: --config CFG"),
    (["--config", "CFG", "--config", "CFG", "chain"], "error: --config given more than once"),
    (["--config"], "argument --config: expected one argument"),
    (["--config", "CFG.missing", "chain"], "error: cannot read config"),
], ids=["after the subcommand", "at the end", "twice", "no path", "no file"])
def test_config_misplaced_or_unreadable_exits_2(n3_config, argv, message):
    code, err = run_quietly([arg.replace("CFG", str(n3_config)) for arg in argv])
    assert code == 2 and message.replace("CFG", str(n3_config)) in err, err
    assert "Traceback" not in err


def test_text_format_output(capsys):
    code, stdout, err = run(
        capsys, "gen", "--chain", "3", "--measurement", "X1", "--format", "text",
        "--out", "-",
    )
    assert code == 0
    assert stdout == "X1\nZ1 Y2\nZ1 Z2 X3\n"
    assert "members: 3" in err


def test_write_output_slices_keep_every_byte(tmp_path):
    # about 4 MB, so the file is written in several slices
    text = "".join(f"{i},{i * 0.1!r}\n" for i in range(300_000))
    out = tmp_path / "out.csv"
    cli._write_output(text, str(out))
    assert out.read_bytes() == text.encode()


def _append_antisymmetric_pair(model, row, col):
    model["A"] += [[row, col, 1.0], [col, row, -1.0]]


#: malformed input files, each as (file kind, edit); an edit changes the
#: file's JSON in place or returns the value to write instead
MALFORMED = {
    "members not a list": ("set", lambda d: d.update(members=5)),
    "duplicate member": ("set", lambda d: d["members"].__setitem__(1, d["members"][0])),
    "provenance parent out of range": (
        "set", lambda d: d["provenance"][1].update(parent=99)
    ),
    "A index out of range": ("model", lambda d: _append_antisymmetric_pair(d, 0, 99)),
    "C index out of range": ("model", lambda d: d["C"][0].__setitem__(1, 99)),
    "A entry repeated": ("model", lambda d: d["A"].append(list(d["A"][0]))),
    "C entry repeated": ("model", lambda d: d["C"].append(list(d["C"][0]))),
    "duplicate ordering entry": (
        "model", lambda d: d["ordering"].__setitem__(1, d["ordering"][0])
    ),
    "spec terms not a list": ("spec", lambda d: d.update(terms=5)),
    "spec top-level list": ("spec", lambda d: [d]),
    "spec coeff not a number": ("spec", lambda d: d["terms"][0].update(coeff="x")),
    "spec coeff null": ("spec", lambda d: d["terms"][0].update(coeff=None)),
    # integers past the float range ended in an OverflowError traceback
    "spec coeff past the float range": ("spec", lambda d: d["terms"][0].update(coeff=10**400)),
    "measurement coeff past the float range": (
        "measurement", lambda d: d["operators"][0][0].update(coeff=-(10**400))
    ),
    "A value past the float range": ("model", lambda d: d["A"][0].__setitem__(2, 10**400)),
    "C value past the float range": ("model", lambda d: d["C"][0].__setitem__(2, 10**400)),
    "config key func": ("config", lambda d: d.update(func=1)),
    "config times not a string": ("config", lambda d: d.update(times=5)),
    "config unknown key": ("config", lambda d: d.update(nope=1)),
    "set without members": ("set", lambda d: d.__delitem__("members")),
    "provenance entry without parent": ("set", lambda d: d["provenance"][0].__delitem__("parent")),
    "partition entry without start": ("set", lambda d: d["partition"][0].__delitem__("start")),
    # the set is case (d) at N = 3: blocks k=2 at 0..1 and k=3 at 2..8.  Such
    # partitions were read as given, and graph drew clusters that repeat or
    # miss members, or file them under another k
    "partition blocks overlap": ("set", lambda d: d["partition"][1].update(start=1)),
    "partition blocks leave a gap": ("set", lambda d: d["partition"][1].update(start=3)),
    "partition block with the wrong k": ("set", lambda d: d["partition"][0].update(k=1)),
    "partition short of the last member": ("set", lambda d: d["partition"][1].update(end=8)),
    # the cores were read unchecked: gen writes [0, 2], one per block, each
    # inside its block
    "cores not a list": ("set", lambda d: d.update(cores=5)),
    "cores one short": ("set", lambda d: d["cores"].__delitem__(-1)),
    "core outside its block": ("set", lambda d: d.update(cores=[0, 1])),
    "cores without a partition": ("set", lambda d: d.update(partition=None)),
    "model without A": ("model", lambda d: d.__delitem__("A")),
    "A index a boolean": ("model", lambda d: d["A"][0].__setitem__(0, False)),
    "A index a float": ("model", lambda d: d["A"][0].__setitem__(0, 0.0)),
    "C index a boolean": ("model", lambda d: d["C"][0].__setitem__(0, False)),
    "C value a boolean": ("model", lambda d: d["C"][0].__setitem__(2, True)),
    "rho0 file an object": ("rho0", lambda d: {"a": 1}),
    "rho0 file a number": ("rho0", lambda d: 5),
    "rho0 file one row": ("rho0", lambda d: d[0]),
    "rho0 file ragged": ("rho0", lambda d: d[0].__delitem__(-1)),
    "rho0 file not square": ("rho0", lambda d: d.__delitem__(-1)),
    "rho0 file booleans": ("rho0", lambda d: [[v == 1 for v in row] for row in d]),
    "rho0 file numeric strings": ("rho0", lambda d: [[str(v) for v in row] for row in d]),
    # JSON Infinity passed validation off the diagonal; on it, the trace warned
    "rho0 file Infinity": ("rho0", lambda d: d[0].__setitem__(1, math.inf)),
    "rho0 file NaN": ("rho0", lambda d: d[1].__setitem__(1, math.nan)),
    "rho0 file integer past the float range": ("rho0", lambda d: d[0].__setitem__(0, 10**400)),
    # finite, but the trace overflows
    "rho0 entries 1e308": ("rho0", lambda d: [[1e308] * len(d)] * len(d)),
    # a few bytes that ask for 2 * 2^56 words per packed row
    "set n_qubits huge": ("set", lambda d: d.update(n_qubits=2**62)),
    "model n_qubits huge": ("model", lambda d: d.update(n_qubits=2**62)),
    "spec n_qubits huge": ("spec", lambda d: d.update(n_qubits=2**62)),
    # found by the fuzz tests below: rk4 diverges and its norm guard raised
    "rk4 step too large": ("config", lambda d: d.update(integrator="rk4", step=2.0, times="0:4:2")),
    # 10^9 rk4 steps: ran on without a budget
    "rk4 step tiny": ("config", lambda d: d.update(integrator="rk4", step=1e-9, times="0:1:0.5")),
    "rk4 empty time grid": ("config", lambda d: d.update(integrator="rk4", step=1.0, times="2:0:1")),
    "rk4 step zero": ("config", lambda d: d.update(integrator="rk4", step=0.0, times="0:1:0.5")),
    # two points take the sparse expm, which stepped on toward t = 10^9
    "expm far horizon": ("config", lambda d: d.update(times="0:1e9:1e9")),
    # a stop before the start: int() truncated -1 and -0.5 steps to a
    # one-point grid at t = start, and -inf steps ended in an OverflowError
    "empty time grid, stop a step before start": ("config", lambda d: d.update(times="1:0:1")),
    "empty time grid, stop half a step before start": ("config", lambda d: d.update(times="1:0.5:1")),
    "empty time grid, stop far before start": ("config", lambda d: d.update(times="1e308:-1e308:1")),
    # a dense 2^40 x dim C ran out of memory
    "model n_outputs huge": ("model", lambda d: d.update(n_outputs=2**40)),
    "model n_outputs over MAX_OUTPUTS": (
        "model", lambda d: d.update(n_outputs=validation.MAX_OUTPUTS + 1)
    ),
    # wrote a spec and a set that their own loaders refuse
    "chain --n over MAX_QUBITS": ("argv", ("chain", "--n", str(validation.MAX_QUBITS + 1))),
    "gen --chain over MAX_QUBITS": (
        "argv", ("gen", "--chain", str(validation.MAX_QUBITS + 1), "--measurement", "X1")
    ),
    # ended in a UnicodeDecodeError traceback
    "config not UTF-8": ("config", b"\xff\xfe{"),
    # read as no --chain at all, and as -1 couplings for 0 qubits
    "gen --chain 0": ("argv", ("gen", "--chain", "0", "--measurement", "X1")),
    "chain --n 0": ("argv", ("chain", "--n", "0", "--couplings", "1")),
    "gen without a Hamiltonian": ("argv", ("gen", "--measurement", "Y1 Z2")),
    # SET is the generated set.  -h * 2 overflowed, and the model wrote
    # Infinity into A after a RuntimeWarning; simulate then refused the file
    "model A value overflows": (
        "argv", ("model", "--set", "SET", "--chain", "3", "--couplings", "1e308,1e308",
                 "--measurement", "Y1 Z2"),
    ),
    # the merged measurement coefficient overflowed into C
    "model C value overflows": (
        "argv", ("model", "--set", "SET", "--chain", "3",
                 "--measurement", "1e308 * Y1 Z2 + 1e308 * Y1 Z2"),
    ),
}

#: text the error message must hold, for the cases that name what is wrong
MALFORMED_MESSAGES = {
    "set without members": "set has no 'members' field",
    "provenance entry without parent": "provenance entry has no 'parent' field",
    "partition entry without start": "partition entry has no 'start' field",
    "partition blocks overlap": "partition start must be an integer in 2..2, got 1",
    "partition blocks leave a gap": "partition start must be an integer in 2..2, got 3",
    "partition block with the wrong k": "members 0..1, not all of highest site 1",
    "partition short of the last member": "partition blocks end at member 8, not at 9",
    "cores not a list": "cores must be a list of member indices",
    "cores one short": "cores must have 2 entries, one per partition block",
    "core outside its block": "core must be an integer in 2..8, got 1",
    "cores without a partition": "cores need a partition, one core per block",
    "model without A": "model has no 'A' field",
    "A index a boolean": "A entry [False, ",
    "A index a float": "A entry [0.0, ",
    "C index a boolean": "C entry [False, ",
    "C value a boolean": "must be [integer, integer, number]",
    **{case: "--rho0-file" for case in MALFORMED if case.startswith("rho0 file")},
    "rho0 file Infinity": "must hold finite numbers",
    "rho0 file NaN": "must hold finite numbers",
    "rho0 file integer past the float range": "must hold finite numbers",
    "rho0 entries 1e308": "density matrix trace is not 1",
    "spec coeff past the float range": "term coeff must be a finite number",
    "measurement coeff past the float range": "term coeff must be a finite number",
    "A value past the float range": "A holds an integer past the float range",
    "C value past the float range": "C holds an integer past the float range",
    **{case: "n_qubits must be an integer in 1..4096" for case in MALFORMED if "huge" in case},
    "rk4 step too large": "the step 2 is too large",
    "rk4 step tiny": "--step 1e-09 asks for more than 1000000 rk4 steps",
    **{case: "times must be a nonempty" for case in MALFORMED if "empty time grid" in case},
    **{case: "n_outputs must be an integer in 0..4096" for case in MALFORMED if "n_outputs" in case},
    **{
        case: "n_qubits must be an integer in 1..4096, got 4097"
        for case in MALFORMED if "MAX_QUBITS" in case
    },
    "config not UTF-8": "cannot read config",
    "gen --chain 0": "a chain needs at least 2 qubits",
    "chain --n 0": "a chain needs at least 2 qubits",
    "rk4 step zero": "step must be positive",
    "expm far horizon": "Chebyshev terms, each a product with A, past the cap of 4000000",
    "gen without a Hamiltonian": "provide --hamiltonian FILE or --chain N",
    "model A value overflows": "A holds a value past the float range",
    "model C value overflows": "C holds a value past the float range",
}


def test_chain_over_max_qubits_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out.json"
    wide = str(validation.MAX_QUBITS + 1)
    for argv in (("chain", "--n", wide), ("gen", "--chain", wide, "--measurement", "X1")):
        assert run(capsys, *argv, "--out", str(out))[0] == 2
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    kind, edit = MALFORMED[case]
    kinds = ("set", "model", "spec", "measurement", "config", "rho0")
    paths = {name: tmp_path / f"{name}.json" for name in kinds}
    source = ("--chain", "3", "--measurement", "Y1 Z2")
    set_arg, model_arg = ("--set", str(paths["set"])), ("--model", str(paths["model"]))
    assert run(capsys, "chain", "--n", "3", "--out", str(paths["spec"]))[0] == 0
    assert run(capsys, "gen", *source, "--out", str(paths["set"]))[0] == 0
    assert run(capsys, "model", *set_arg, *source, "--out", str(paths["model"]))[0] == 0
    meas = MeasurementSpec.from_texts(["Y1 Z2"], 3)
    paths["measurement"].write_text(dump_json(measurement_to_json(meas)))
    paths["config"].write_text("{}")
    # |000><000|
    paths["rho0"].write_text(json.dumps([[int(r == c == 0) for c in range(8)] for r in range(8)]))
    if isinstance(edit, bytes):
        paths[kind].write_bytes(edit)
    elif kind != "argv":
        data = json.loads(paths[kind].read_text())
        edited = edit(data)
        paths[kind].write_text(json.dumps(data if edited is None else edited))
    simulate = ("simulate", *model_arg, "--rho0", "i+,0,0")
    set_path = str(paths["set"])
    argv = [set_path if arg == "SET" else arg for arg in edit] if kind == "argv" else {
        "set": ("graph", *set_arg, "--chain", "3"),
        "model": (*simulate, "--times", "0:1:0.5"),
        "spec": ("gen", "--hamiltonian", str(paths["spec"]), "--measurement", "Y1 Z2"),
        "measurement": ("gen", "--chain", "3", "--measurement-file", str(paths["measurement"])),
        "config": ("--config", str(paths["config"]), *simulate),
        "rho0": (*simulate, "--rho0-file", str(paths["rho0"]), "--times", "0:1:0.5"),
    }[kind]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert MALFORMED_MESSAGES.get(case, "") in err


# -- the exit contract under fuzzed input ------------------------------------

#: texts near the grammar of operator strings, numbers and option values
TOKENS = (
    "", " ", "x", "0", "1", "-1", "0.5", "2", "1e400", "-0.0", "nan", "inf", "-inf",
    "X1", "Y1 Z2", "Z1 Z1", "X4", "X0", "I", "x1", "1.5", "Y1,Z2", "\u00e9", "99999",
)

#: JSON integers that no float holds
HUGE = (10**400, -(10**400))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**62) | st.floats() | st.text(max_size=8)
    | st.sampled_from(TOKENS) | st.sampled_from(HUGE),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def slots(node):
    """(container, key) of every value inside a JSON value, depth first."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from slots(node[key])


@st.composite
def mutated(draw, base):
    """``base`` with one to three values replaced, deleted or appended to.

    Each value is picked from all of the document's values alike, at any
    depth, so a field deep in a file is fuzzed as often as a top-level one."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        places = list(slots(doc))
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        child = node[key]
        # a list can grow, a string take a token, a number leave the float range
        grow = "append" if isinstance(child, list) else "tweak"
        action = draw(st.sampled_from(("replace", "delete", grow)))
        if action == "delete":
            del node[key]
        elif action == "append":
            child.append(draw(json_values))
        elif action == "tweak" and isinstance(child, str):
            node[key] = child + draw(st.sampled_from(TOKENS))
        elif action == "tweak" and type(child) in (int, float):
            node[key] = draw(st.sampled_from(HUGE))
        else:
            node[key] = draw(json_values)
    return doc


option_values = {
    # start and stop at most 2 apart, steps of 0.1 or more: grids stay small;
    # free text has no colon, so it is never a grid
    "--times": st.one_of(
        st.text(st.characters(blacklist_characters=":"), max_size=10),
        st.tuples(*[st.sampled_from(TOKENS + ("0.1", "0.25"))] * 3).map(":".join),
    ),
    "--step": st.one_of(st.text(max_size=6), st.sampled_from(TOKENS + ("0.01", "1e-3", "1e-9"))),
    "--couplings": st.one_of(
        st.text(max_size=10), st.lists(st.sampled_from(TOKENS), max_size=4).map(",".join)
    ),
}


def run_quietly(argv) -> tuple[object, str]:
    """cli.main's exit code (argparse exits by SystemExit) and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """The N = 3 chain spec and a case (d) set and model on it, as paths and
    parsed JSON."""
    out = tmp_path_factory.mktemp("payloads")
    source = ["--chain", "3", "--measurement", "Y1 Z2"]
    paths = {"spec": out / "spec.json", "set": out / "set.json", "model": out / "model.json"}
    assert run_quietly(["chain", "--n", "3", "--out", str(paths["spec"])])[0] == 0
    assert run_quietly(["gen", *source, "--out", str(paths["set"])])[0] == 0
    assert run_quietly(["model", "--set", str(paths["set"]), *source, "--out", str(paths["model"])])[0] == 0
    return out, {kind: json.loads(path.read_text()) for kind, path in paths.items()}


def test_simulate_writes_the_same_bytes_to_stdout_and_to_a_file(
    payloads, tmp_path, capsys, monkeypatch
):
    out, _ = payloads
    # about 2.5 MB of CSV, so stdout takes several 1 MB slices
    argv = ["simulate", "--model", str(out / "model.json"), "--rho0", "i+,0,+",
            "--times", "0:1:1e-4"]
    lengths, real = [], cli.trajectory_to_csv

    def to_csv(result):
        text = real(result)
        lengths.append(len(text))
        return text

    monkeypatch.setattr(cli, "trajectory_to_csv", to_csv)
    assert main([*argv, "--out", str(tmp_path / "traj.csv")]) == 0
    written = (tmp_path / "traj.csv").read_bytes()
    assert lengths == [len(written)] and len(written) > 2 << 20
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.encode("ascii") == written
    # a text-only stdout, as run_quietly gives
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    assert buffer.getvalue().encode("ascii") == written


def assert_exit_contract(argv) -> None:
    code, err = run_quietly(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_fuzzed_set_files_exit_0_or_2(payloads, data):
    out, base = payloads
    path = out / "fuzzed_set.json"
    path.write_text(json.dumps(data.draw(mutated(base["set"]))))
    command = data.draw(st.sampled_from((
        ["graph", "--set", str(path), "--chain", "3"],
        ["model", "--set", str(path), "--chain", "3", "--measurement", "Y1 Z2"],
    )))
    assert_exit_contract(command)


@FUZZ
@given(data=st.data())
def test_fuzzed_model_files_exit_0_or_2(payloads, data):
    out, base = payloads
    path = out / "fuzzed_model.json"
    path.write_text(json.dumps(data.draw(mutated(base["model"]))))
    integrator = data.draw(st.sampled_from(("expm", "rk4")))
    assert_exit_contract([
        "simulate", "--model", str(path), "--rho0", "i+,0,+", "--times", "0:1:0.5",
        "--integrator", integrator,
    ])


@FUZZ
@given(data=st.data())
def test_fuzzed_option_values_exit_0_or_2(payloads, data):
    out, _ = payloads
    model = str(out / "model.json")
    values = {opt: data.draw(strategy) for opt, strategy in option_values.items()}
    simulate = [
        "simulate", "--model", model, "--rho0", "i+,0,+", "--integrator", "rk4",
        f"--times={values['--times']}", f"--step={values['--step']}",
    ]
    gen = [
        "gen", "--chain", "3", "--measurement", "Y1 Z2", f"--couplings={values['--couplings']}",
        "--out", str(out / "fuzzed_gen.json"),
    ]
    assert_exit_contract(data.draw(st.sampled_from((simulate, gen))))


@FUZZ
@given(data=st.data())
def test_fuzzed_spec_files_exit_0_or_2(payloads, data):
    out, base = payloads
    path = out / "fuzzed_spec.json"
    path.write_text(json.dumps(data.draw(mutated(base["spec"]))))
    assert_exit_contract([
        "gen", "--hamiltonian", str(path), "--measurement", "Y1 Z2",
        "--out", str(out / "fuzzed_spec_set.json"),
    ])


#: |000><000| as a --rho0-file for the N = 3 model
RHO0 = [[int(r == c == 0) for c in range(8)] for r in range(8)]


@FUZZ
@given(data=st.data())
def test_fuzzed_rho0_files_exit_0_or_2(payloads, data):
    out, _ = payloads
    path = out / "fuzzed_rho0.json"
    path.write_text(json.dumps(data.draw(mutated(RHO0))))
    assert_exit_contract([
        "simulate", "--model", str(out / "model.json"), "--rho0-file", str(path),
        "--times", "0:1:0.5",
    ])


#: a --config object that simulate accepts on the N = 3 model
CONFIG = {"times": "0:1:0.5", "rho0": "i+,0,+", "integrator": "rk4", "step": 0.01}


@FUZZ
@given(data=st.data())
def test_fuzzed_config_files_exit_0_or_2(payloads, data):
    out, _ = payloads
    path = out / "fuzzed_config.json"
    path.write_text(json.dumps(data.draw(mutated(CONFIG))))
    assert_exit_contract(["--config", str(path), "simulate", "--model", str(out / "model.json")])


def test_model_refuses_more_outputs_than_a_model_file_may_hold(payloads):
    out, _ = payloads
    measurements = ["--measurement", "Y1 Z2"] * (validation.MAX_OUTPUTS + 1)
    code, err = run_quietly([
        "model", "--set", str(out / "set.json"), "--chain", "3", *measurements,
        "--out", str(out / "too_many_outputs.json"),
    ])
    assert code == 2
    assert "n_outputs must be an integer in 0..4096, got 4097" in err


def test_rho0_file_density_matrix_matches_kets(tmp_path, capsys):
    source = ("--chain", "3", "--measurement", "Y1 Z2")
    set_path, model_path, rho_path = (tmp_path / f for f in ("set.json", "model.json", "rho.json"))
    assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
    assert run(capsys, "model", "--set", str(set_path), *source, "--out", str(model_path))[0] == 0
    rho_path.write_text(json.dumps([[int(r == c == 0) for c in range(8)] for r in range(8)]))
    simulate = ("simulate", "--model", str(model_path), "--times", "0:1:0.5")
    code, from_rho, _ = run(capsys, *simulate, "--rho0-file", str(rho_path))
    assert code == 0
    code, from_kets, _ = run(capsys, *simulate, "--rho0", "0,0,0")
    assert code == 0
    assert np.allclose(
        np.loadtxt(from_rho.splitlines(), delimiter=",", skiprows=1),
        np.loadtxt(from_kets.splitlines(), delimiter=",", skiprows=1),
        rtol=0, atol=1e-12,
    )


def test_reloads_build_no_string_per_member(tmp_path, capsys, string_count):
    # case (d) at N = 30: 13 050 members; graph, model and simulate read the
    # payloads into packed tables and build strings only for the edge labels
    # and the Hamiltonian's own terms
    n = 30
    source = ("--chain", str(n), "--measurement", "Y1 Z2")
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
    provenance = json.loads(set_path.read_text())["provenance"]
    labels = {p["edge"] for p in provenance if p["edge"] is not None}
    terms = 2 * (n - 1)
    steps = {
        "graph": ("graph", "--set", str(set_path), *source[:2], "--out", str(tmp_path / "g.dot")),
        "model": ("model", "--set", str(set_path), *source, "--out", str(model_path)),
        "simulate": (
            "simulate", "--model", str(model_path), "--rho0", ",".join("0" * n),
            "--times", "0:0.1:0.1", "--out", str(tmp_path / "t.csv"),
        ),
    }
    for name, argv in steps.items():
        string_count[0] = 0
        assert run(capsys, *argv)[0] == 0
        assert string_count[0] <= len(labels) + terms + 4, name


#: non-finite numbers on the command line, a time grid whose step count
#: overflows and grids over the point budget, as (option named in the error, argv)
NON_FINITE = {
    "gen --couplings nan": (
        "--couplings", ("gen", "--chain", "3", "--couplings", "nan,1", "--measurement", "Y1 Z2")
    ),
    "chain --couplings nan": ("--couplings", ("chain", "--n", "3", "--couplings", "nan,1")),
    "simulate --times inf": ("--times", ("simulate", "--times", "0:inf:1")),
    "simulate --times overflow": ("--times", ("simulate", "--times", "0:1e308:1e-300")),
    "simulate --times 1e21 points": ("--times", ("simulate", "--times", "0:1e12:1e-9")),
    "simulate --times 1e7 points": ("--times", ("simulate", "--times", "0:1e7:1")),
    "simulate --step inf": ("--step", ("simulate", "--integrator", "rk4", "--step", "inf")),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_exits_2_naming_the_option(tmp_path, capsys, case):
    option, argv = NON_FINITE[case]
    if argv[0] == "simulate":
        set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
        source = ("--chain", "3", "--measurement", "Y1 Z2")
        assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
        assert run(capsys, "model", "--set", str(set_path), *source, "--out", str(model_path))[0] == 0
        argv = (*argv, "--model", str(model_path), "--rho0", "i+,0,0")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert option in err


def test_time_grid_point_budget(monkeypatch):
    monkeypatch.setattr(cli, "MAX_TIME_POINTS", 10)
    assert len(cli._parse_times("0:9:1")) == 10
    assert len(cli._parse_times("0:1:0.125")) == 9
    with pytest.raises(ValueError, match="--times '0:10:1' asks for more than 10 time points"):
        cli._parse_times("0:10:1")


def test_a_stop_before_the_start_makes_an_empty_grid():
    for text in ("1:0:1", "1:0.5:1", "2:0:1", "1e308:-1e308:1"):
        assert cli._parse_times(text).size == 0
    # a stop at or past the start keeps its points
    assert cli._parse_times("1:1:1").tolist() == [1.0]
    assert cli._parse_times("1:2.5:1").tolist() == [1.0, 2.0]


@pytest.mark.parametrize("text", ["0:1", "0:1:0", "0:1:-0.5"])
def test_malformed_time_grid_names_the_option(text):
    with pytest.raises(ValueError, match="--times"):
        cli._parse_times(text)
