"""Golden CLI payloads: N = 5, case (d), fixed non-uniform couplings.

The files under ``tests/golden/`` pin member order, edge order, signs of A
and trajectory digits byte for byte; ``verify.txt`` pins the output of
all six ``verify`` suites.  Regenerate them only for an intended format
change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from pauliaccess.cli import main

GOLDEN = Path(__file__).parent / "golden"

SOURCE = ["--chain", "5", "--couplings", "0.7,1.3,0.9,1.1"]
MEASUREMENT = ["--measurement", "Y1 Z2"]
SIMULATE = ["--rho0", "i+,0,+,1,i-", "--times", "0:2:0.25"]

PAYLOADS = (
    "set.json", "graph.dot", "graph.json", "model.json", "traj_rk4.csv", "traj_expm.csv",
)


def write_payloads(out: Path) -> None:
    """Run gen, graph (DOT and JSON), model and simulate (rk4, expm) into ``out``."""
    s, m = str(out / "set.json"), str(out / "model.json")
    steps = [
        ["gen", *SOURCE, *MEASUREMENT, "--out", s],
        ["graph", "--set", s, *SOURCE, "--format", "dot", "--out", str(out / "graph.dot")],
        ["graph", "--set", s, *SOURCE, "--format", "json", "--out", str(out / "graph.json")],
        ["model", "--set", s, *SOURCE, *MEASUREMENT, "--out", m],
        ["simulate", "--model", m, *SIMULATE, "--integrator", "rk4",
         "--out", str(out / "traj_rk4.csv")],
        ["simulate", "--model", m, *SIMULATE, "--integrator", "expm",
         "--out", str(out / "traj_expm.csv")],
    ]
    for argv in steps:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")


#: every verify suite at its default range, in the order CI runs them
VERIFY_RUNS = (
    ["prop2"], ["prop3"], ["case-d-count"], ["oracle"], ["lemmas"],
    ["identities", "--seed", "1", "--trials", "500"],
)


def verify_output() -> str:
    """Standard output of ``verify`` over :data:`VERIFY_RUNS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for args in VERIFY_RUNS:
            code = main(["verify", "--suite", *args])
            if code != 0:
                raise RuntimeError(f"verify --suite {args[0]} exited {code}")
    return out.getvalue()


@pytest.mark.parametrize("name", PAYLOADS)
def test_payload_matches_golden(tmp_path, capsys, name):
    write_payloads(tmp_path)
    capsys.readouterr()
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


#: the inputs of the ``chain-d-cli`` benchmark workload for seed 1: case (d)
#: at N = 30, with its couplings and product state
WIDE_SOURCE = [
    "--chain", "30", "--couplings",
    "0.634364,1.347434,1.263775,0.755069,0.995435,0.949491,1.151593,1.288723,"
    "0.593860,0.528347,1.335765,0.932767,1.262280,0.502106,0.945387,1.221540,"
    "0.728762,1.445271,1.401427,0.530590,0.525446,1.041412,1.439149,0.881204,"
    "0.716599,0.922117,0.529041,0.721692,0.937888",
]
WIDE_SIMULATE = [
    "--rho0", "i-,0,+,1,i-,1,-,+,0,-,i+,i-,0,1,i-,i-,+,0,i-,+,i-,i-,i+,-,i+,i-,1,+,+,i+",
    "--integrator", "rk4", "--times", "0:1:0.01", "--step", "0.01",
]

#: sha256 of each payload of :data:`WIDE_SOURCE`: far larger than the N = 5
#: goldens (1.6 MB set, 4.7 MB model, 28.7 MB trajectory), so they pin the
#: writers' chunking and indices past 9 999
WIDE_SHA256 = {
    "set.json": "5d82e138f15ad54b607e3a367c5c82d11a30d63e440510a5b48de31cb48e54e1",
    "graph.dot": "fed5912f878144b6442aa03d7ca12e2c0edf54887f7a641381ac43eccf7d26a6",
    "graph.json": "e959c1bc2b1dfb870b94bd3aeb59a52791a9ed670ff124a51b41d80603e285ef",
    "model.json": "90aa5cfd12575223e521649ad71ef5535f29c265e3cdd08acb54c6e7ce3bed73",
    "traj.csv": "1f5b8ebb5fb9891ff8a9a3e478c86c3faa1a43716a6f4e4ed8ddc93ecd90e1b2",
}


def test_case_d_n30_payload_digests(tmp_path, capsys):
    s, m = str(tmp_path / "set.json"), str(tmp_path / "model.json")
    steps = [
        ["gen", *WIDE_SOURCE, *MEASUREMENT, "--out", s],
        ["graph", "--set", s, *WIDE_SOURCE, "--out", str(tmp_path / "graph.dot")],
        ["graph", "--set", s, *WIDE_SOURCE, "--format", "json",
         "--out", str(tmp_path / "graph.json")],
        ["model", "--set", s, *WIDE_SOURCE, *MEASUREMENT, "--out", m],
        ["simulate", "--model", m, *WIDE_SIMULATE, "--out", str(tmp_path / "traj.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in WIDE_SHA256
    }
    assert digests == WIDE_SHA256


def test_verify_output_matches_golden():
    assert verify_output().encode() == (GOLDEN / "verify.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_payloads(GOLDEN)
    (GOLDEN / "verify.txt").write_text(verify_output())
