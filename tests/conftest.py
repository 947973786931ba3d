import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pauliaccess import PauliString

# the six common chain measurement schemes and their minimum widths
CHAIN_CASES = {
    "a": ("X1", 1),
    "b": ("Z1", 1),
    "c": ("Z1 Y2", 2),
    "d": ("Y1 Z2", 2),
    "e": ("Z1 Z2 X3", 3),
    "f": ("X1 Y2 Z3", 3),
}


def cases_fitting(n: int):
    """Case name -> seed string for every case supported at width n."""
    return {
        name: PauliString.from_text(text, n)
        for name, (text, width) in CHAIN_CASES.items()
        if width <= n
    }


def string_of(label):
    """Package string of a dense_ref label like 'ZYI'."""
    return PauliString.from_cells(len(label), {i + 1: c for i, c in enumerate(label) if c != "I"})


@pytest.fixture
def chain_cases():
    return CHAIN_CASES


@pytest.fixture
def string_count(monkeypatch):
    """Number of PauliString objects constructed since the fixture started."""
    made = [0]
    check = PauliString.__post_init__

    def counting(self):
        made[0] += 1
        check(self)

    monkeypatch.setattr(PauliString, "__post_init__", counting)
    return made
