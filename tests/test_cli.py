"""Command-line interface: pipeline runs, exit codes, determinism."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pauliaccess import cli, closure
from pauliaccess.cli import main


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
    assert code == 3
    assert "consistency" in err


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "--suite", "prop2", "--n", "2..5")[0] == 0
    assert run(capsys, "verify", "--suite", "case-d-count", "--n", "2..6")[0] == 0
    assert run(capsys, "verify", "--suite", "oracle", "--n", "2..3")[0] == 0
    code, stdout, _ = run(capsys, "verify", "--suite", "identities", "--trials", "60")
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2


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
    "config key func": ("config", lambda d: d.update(func=1)),
    "config times not a string": ("config", lambda d: d.update(times=5)),
    "config unknown key": ("config", lambda d: d.update(nope=1)),
    "set without members": ("set", lambda d: d.__delitem__("members")),
    "provenance entry without parent": ("set", lambda d: d["provenance"][0].__delitem__("parent")),
    "partition entry without start": ("set", lambda d: d["partition"][0].__delitem__("start")),
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
    # a few bytes that ask for 2 * 2^56 words per packed row
    "set n_qubits huge": ("set", lambda d: d.update(n_qubits=2**62)),
    "model n_qubits huge": ("model", lambda d: d.update(n_qubits=2**62)),
    "spec n_qubits huge": ("spec", lambda d: d.update(n_qubits=2**62)),
    # found by the fuzz tests below: rk4 diverges and its norm guard raised
    "rk4 step too large": ("config", lambda d: d.update(integrator="rk4", step=2.0, times="0:4:2")),
    # 10^9 rk4 steps: ran on without a budget
    "rk4 step tiny": ("config", lambda d: d.update(integrator="rk4", step=1e-9, times="0:1:0.5")),
    "rk4 empty time grid": ("config", lambda d: d.update(integrator="rk4", step=1.0, times="2:0:1")),
}

#: text the error message must hold, for the cases that name what is wrong
MALFORMED_MESSAGES = {
    "set without members": "set has no 'members' field",
    "provenance entry without parent": "provenance entry has no 'parent' field",
    "partition entry without start": "partition entry has no 'start' field",
    "model without A": "model has no 'A' field",
    "A index a boolean": "A entry [False, ",
    "A index a float": "A entry [0.0, ",
    "C index a boolean": "C entry [False, ",
    "C value a boolean": "must be [integer, integer, number]",
    **{case: "--rho0-file" for case in MALFORMED if case.startswith("rho0 file")},
    **{case: "n_qubits must be an integer in 1..4096" for case in MALFORMED if "huge" in case},
    "rk4 step too large": "the step 2 is too large",
    "rk4 step tiny": "--step 1e-09 asks for more than 1000000 rk4 steps",
    "rk4 empty time grid": "times must be a nonempty",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    kind, edit = MALFORMED[case]
    kinds = ("set", "model", "spec", "config", "rho0")
    paths = {name: tmp_path / f"{name}.json" for name in kinds}
    source = ("--chain", "3", "--measurement", "Y1 Z2")
    set_arg, model_arg = ("--set", str(paths["set"])), ("--model", str(paths["model"]))
    assert run(capsys, "chain", "--n", "3", "--out", str(paths["spec"]))[0] == 0
    assert run(capsys, "gen", *source, "--out", str(paths["set"]))[0] == 0
    assert run(capsys, "model", *set_arg, *source, "--out", str(paths["model"]))[0] == 0
    paths["config"].write_text("{}")
    # |000><000|
    paths["rho0"].write_text(json.dumps([[int(r == c == 0) for c in range(8)] for r in range(8)]))
    data = json.loads(paths[kind].read_text())
    edited = edit(data)
    paths[kind].write_text(json.dumps(data if edited is None else edited))
    simulate = ("simulate", *model_arg, "--rho0", "i+,0,0")
    argv = {
        "set": ("graph", *set_arg, "--chain", "3"),
        "model": (*simulate, "--times", "0:1:0.5"),
        "spec": ("gen", "--hamiltonian", str(paths["spec"]), "--measurement", "Y1 Z2"),
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

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**4) | st.floats() | st.text(max_size=8)
    | st.sampled_from(TOKENS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated(draw, base):
    """``base`` with one to three values replaced, deleted or appended to."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(("replace", "delete", "append", "tweak")))
            if action == "delete":
                del node[key]
            elif action == "append" and isinstance(child, list):
                child.append(draw(json_values))
            elif action == "tweak" and isinstance(child, str):
                node[key] = child + draw(st.sampled_from(TOKENS))
            else:
                node[key] = draw(json_values)
            break
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
    """A case (d) set and model at N = 3, as paths and parsed JSON."""
    out = tmp_path_factory.mktemp("payloads")
    source = ["--chain", "3", "--measurement", "Y1 Z2"]
    paths = {"set": out / "set.json", "model": out / "model.json"}
    assert run_quietly(["gen", *source, "--out", str(paths["set"])])[0] == 0
    assert run_quietly(["model", "--set", str(paths["set"]), *source, "--out", str(paths["model"])])[0] == 0
    return out, {kind: json.loads(path.read_text()) for kind, path in paths.items()}


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


@pytest.mark.parametrize("text", ["0:1", "0:1:0", "0:1:-0.5"])
def test_malformed_time_grid_names_the_option(text):
    with pytest.raises(ValueError, match="--times"):
        cli._parse_times(text)
