"""Command-line interface: pipeline runs, exit codes, determinism."""

import json

import pytest

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


def _append_antisymmetric_pair(model, row, col):
    model["A"] += [[row, col, 1.0], [col, row, -1.0]]


#: malformed set and model files, each as (file kind, in-place edit)
MALFORMED = {
    "members not a list": ("set", lambda d: d.update(members=5)),
    "duplicate member": ("set", lambda d: d["members"].__setitem__(1, d["members"][0])),
    "provenance parent out of range": (
        "set", lambda d: d["provenance"][1].update(parent=99)
    ),
    "A index out of range": ("model", lambda d: _append_antisymmetric_pair(d, 0, 99)),
    "C index out of range": ("model", lambda d: d["C"][0].__setitem__(1, 99)),
    "duplicate ordering entry": (
        "model", lambda d: d["ordering"].__setitem__(1, d["ordering"][0])
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    kind, edit = MALFORMED[case]
    set_path, model_path = tmp_path / "set.json", tmp_path / "model.json"
    source = ("--chain", "3", "--measurement", "Y1 Z2")
    assert run(capsys, "gen", *source, "--out", str(set_path))[0] == 0
    assert run(capsys, "model", "--set", str(set_path), *source, "--out", str(model_path))[0] == 0
    path = set_path if kind == "set" else model_path
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    if kind == "set":
        argv = ("graph", "--set", str(set_path), "--chain", "3")
    else:
        argv = ("simulate", "--model", str(model_path), "--rho0", "i+,0,0", "--times", "0:1:0.5")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
