"""The CLI outputs against the stored values in tests/golden/.

``make_golden.py`` regenerates the files.  Values are compared, not bytes,
because NumPy and SciPy builds may round differently: within 1e-12
relative, and within 1e-14 absolute where the stored value is a zero, which
S_I at K+ = K- and L = 0 holds only up to rounding (|value| <= 1e-14).  The
diffuse outputs, the two-rung 1D ``converge`` ladder and the five-rung W1D
ladder, need no wider tolerance: each 1D Newton iteration solves with a
fresh float64 factor.
"""

import csv

import pytest

from make_golden import CHECK, COMMANDS, GOLDEN, check_names, run_command

REL_TOL = 1e-12
ZERO_TOL = 1e-14


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _mismatches(got, want):
    """(row, column, got, want) of every cell outside the tolerance."""
    bad = []
    for i, (row_got, row_want) in enumerate(zip(got, want), start=1):
        for j, (a, b) in enumerate(zip(row_got, row_want)):
            if a == b:
                continue
            if not (a and b):   # an empty cell (no beta_crit at l = 0) on one side only
                bad.append((i, j, a, b))
                continue
            x, y = float(a), float(b)
            tol = REL_TOL * abs(y) if abs(y) > ZERO_TOL else ZERO_TOL
            if not abs(x - y) <= tol:
                bad.append((i, j, a, b))
    return bad


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_sharp_output_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert run_command(name, out) == 0
    got, want = _read(out), _read(GOLDEN / name)
    assert got[0] == want[0]
    assert [len(r) for r in got] == [len(r) for r in want]
    assert _mismatches(got[1:], want[1:]) == []


def test_check_names_match_golden():
    code, names = check_names()
    assert code == 0
    assert names == (GOLDEN / CHECK).read_text()


def test_mismatches_sees_a_change_beyond_the_tolerance():
    want = [["1.5", "0", "3e-17", ""]]
    assert _mismatches([["1.5000000000001", "1e-15", "-2e-17", ""]], want) == []
    assert _mismatches([["1.500000000002", "0", "3e-17", ""]], want) == [
        (1, 0, "1.500000000002", "1.5")]
    assert _mismatches([["1.5", "2e-14", "3e-17", ""]], want) == [(1, 1, "2e-14", "0")]
    assert _mismatches([["1.5", "0", "3e-17", "0.1"]], want) == [(1, 3, "0.1", "")]
