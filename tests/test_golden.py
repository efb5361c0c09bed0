"""The CLI outputs against the stored values in tests/golden/.

``make_golden.py`` regenerates the files.  Values are compared, not bytes,
because NumPy and SciPy builds may round differently: within 1e-12
relative, and within 1e-14 absolute where the stored value is a zero, which
S_I at K+ = K- and L = 0 holds only up to rounding (|value| <= 1e-14).  The
1D diffuse outputs, the two-rung ``converge`` ladder and the five-rung W1D
ladder, need no wider tolerance: each 1D Newton iteration solves with a
fresh float64 factor.  The 2D runs of ``DIFFUSE`` solve against a float32
factor, so their tolerances are derived from the solver's stopping rule
instead (see :func:`diffuse_tolerance`).
"""

import csv
import math

import pytest

from activech.config import parse_config
from activech.mesh import build_mesh
from activech.solver import NEWTON_TOL
from make_golden import CHECK, COMMANDS, DIFFUSE, GOLDEN, check_names, run_command, run_diffuse

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


def diffuse_tolerance(name: str) -> dict[str, float]:
    """Absolute tolerance of each column that the DIFFUSE run ``name`` stores.

    The last solve of a step meets ||rhs - S x|| <= NEWTON_TOL/10 (its rhs, the
    residual of the previous iterate, is far below 1), and rhs - S x becomes
    the accepted r1, in which nodal phi enters as w_i phi_i / tau.  So, at
    leading order and for a step map that does not amplify, a step fixes
    phi_i to within (tau / w_i) NEWTON_TOL/10, the run's t_end / tau steps to
    (t_end / w_min) NEWTON_TOL/10, and two NumPy or SciPy builds agree within
    twice that: ``phi``.  Every other column moves by its sensitivity to
    nodal phi times ``phi``, for |phi| <= 1.1 (beyond it a run warns) and
    the P1 stiffness K, whose off-diagonal entries sum to at most 4 in
    absolute value per row:

    - q_h and A0 by at most q = h / tanh(h / (sqrt(2) eps)): a linear zero
      between two nodes moves by h / |phi_i - phi_j| per unit, and the profile
      tanh(x / (sqrt(2) eps)) changes by at least tanh(h / (sqrt(2) eps)) over
      a cell that holds its zero; A_l for l >= 1 weights the heights by up
      to 2 / Lt, so by 2 q;
    - mass, the sum of w_i phi_i, by the area;
    - mu = beta eps (K phi) / w + (beta / eps) psi'(phi), and the energy,
      whose gradient in phi_i is w_i mu_i, by g and the area times g, with
      g = 8.8 beta eps / w_min + 3 beta / eps bounding both |mu|
      and its change per unit of nodal phi (|psi''| <= 2.63 and |psi'| <= 0.39);
    - t by nothing: it is n tau.
    """
    cfg = parse_config((GOLDEN / f"{name}.cfg").read_text())
    beta, eps, h = cfg.params.beta, cfg.params.epsilon, cfg.mesh_size()
    w_min = float(build_mesh(cfg.dim, cfg.lengths, h).lumped.min())
    phi = 2.0 * (cfg.t_end / w_min) * NEWTON_TOL / 10.0
    q = h / math.tanh(h / (math.sqrt(2.0) * eps))
    g = 8.8 * beta * eps / w_min + 3.0 * beta / eps
    area = math.prod(cfg.lengths)
    tolerance = {"t": 0.0, "phi": phi, "mu": g * phi, "mass": area * phi,
                 "energy": area * g * phi, "q_h": q * phi, "A0": q * phi}
    tolerance.update((f"A{l}", 2.0 * q * phi) for l in range(1, (cfg.modes_lmax or 0) + 1))
    return tolerance


@pytest.mark.parametrize("name", sorted(DIFFUSE))
def test_diffuse_output_matches_golden(tmp_path, name):
    assert run_diffuse(name, tmp_path) == 0
    tolerance = diffuse_tolerance(name)
    for stored in DIFFUSE[name][1]:
        got, want = _read(tmp_path / stored), _read(GOLDEN / stored)
        assert got[0] == want[0]
        assert [len(r) for r in got] == [len(r) for r in want]
        tols = [tolerance[column] for column in want[0]]
        bad = [(i, want[0][j], a, b)
               for i, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), start=1)
               for j, (a, b) in enumerate(zip(row_got, row_want))
               if not abs(float(a) - float(b)) <= tols[j]]
        assert bad == [], stored


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
