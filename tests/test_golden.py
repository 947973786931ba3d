"""Golden CLI payloads: N = 5, case (d), fixed non-uniform couplings.

The files under ``tests/golden/`` pin member order, edge order, signs of A
and trajectory digits byte for byte.  Regenerate them only for an intended
format change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

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


@pytest.mark.parametrize("name", PAYLOADS)
def test_payload_matches_golden(tmp_path, capsys, name):
    write_payloads(tmp_path)
    capsys.readouterr()
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_payloads(GOLDEN)
