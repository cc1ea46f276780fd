"""Every command of the golden set prints the bytes kept under
tests/golden/, and exits with the code kept there.

The files pin floating-point bits, which depend on numpy (CI pins
2.4.6).  A numpy upgrade, or a change that is meant to move an output,
means regenerating the set with

    PYTHONPATH=src python tests/golden_set.py

and explaining the diff of tests/golden/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_set import CASES, GOLDEN, ROOT, render  # noqa: E402


@pytest.mark.parametrize("name", CASES)
def test_golden_output(monkeypatch, name):
    monkeypatch.chdir(ROOT)
    assert render(CASES[name]).encode() == (GOLDEN / f"{name}.txt").read_bytes()
