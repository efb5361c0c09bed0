"""Regenerate the golden CLI outputs in tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

Each entry of COMMANDS is a CLI call whose ``--out`` file is stored under its
key; for a command whose ``--out`` is a directory, FROM_DIR names the one file
of it that is stored.  ``check.txt`` holds the PASS/FAIL names of ``activech
check``, without its residuals, which are rounding-level and differ between
platforms.  DIFFUSE holds the 2D runs, each configured by ``<name>.cfg`` here,
and the tables stored from the directory it writes; manifests and VTK files
are not stored.
``tests/test_golden.py`` reruns the same calls and compares values, not
bytes.  Rerun this script only in a change that means to alter these
results, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
import tempfile
from pathlib import Path

from activech.cli import main
from activech.output import read_checkpoint, table_text

GOLDEN = Path(__file__).resolve().parent / "golden"

_PHYSICS = ["--beta", "0.1", "--splus", "-1", "--sminus", "1"]
# a setting off the normalized one: its stationary front lies at q* = 2/3
_OFF_NORMALIZED = ["--beta", "0.1", "--splus", "-1", "--sminus", "2",
                   "--mplus", "2", "--mminus", "0.5", "--rc", "0.7"]

COMMANDS = {
    "si_table.csv": ["si-table", "--rc", "0.5,0.6,0.7,0.8,0.9,1", "--kplus", "0.1,0.5,1,2",
                     "--kminus", "0.1,0.5,1,2", "--lcoef", "0,0.5"],
    "stability_d3_lmax20.csv": ["stability", "-d", "3", "--lmax", "20", *_PHYSICS],
    "stability_d2_lmax8_rc07.csv": ["stability", "-d", "2", "--lmax", "8", *_OFF_NORMALIZED],
    "sharp_ode.csv": ["sharp-ode", *_PHYSICS, "--q0", "0.3", "--dt", "1e-4", "--t-end", "0.2"],
    # the two-rung 1D ladder of the CI console-script step: eps = 1/(4 pi), 1/(8 pi)
    "converge_1d.csv": ["converge", "--config", str(GOLDEN / "converge_1d.cfg")],
    # the paper's five-rung W1D ladder, eps = 1/(2^k pi) for k = 1..5, to t = 0.2: the
    # setting of the CI console-script step's ladder.cfg and of the ladder1d benchmark
    "converge_w1d.csv": ["converge", "--config", str(GOLDEN / "converge_w1d.cfg")],
}
FROM_DIR = {"converge_1d.csv": "convergence.csv", "converge_w1d.csv": "convergence.csv"}
CHECK = "check.txt"
#: name -> (command, {stored file: (file of the run, the columns kept or None for all)});
#: a checkpoint is stored as its phi and mu columns
DIFFUSE = {
    # m+ != m-, so the mobility is reassembled every step, and S_I from the r_c quadrature
    "simulate_2d": ("simulate", {"simulate_2d_diag.csv": ("diag.csv", None),
                                 "simulate_2d_checkpoint.csv": ("checkpoint.bin", None)}),
    "modes_2d": ("modes", {"modes_2d.csv": ("modes.csv", None),
                           "modes_2d_q_h.csv": ("diag.csv", ["t", "q_h"])}),
}


def run_command(name: str, out: Path) -> int:
    """Runs COMMANDS[name] with its table written to ``out``; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        if name not in FROM_DIR:
            return main([*COMMANDS[name], "--out", str(out)])
        with tempfile.TemporaryDirectory() as tmp:
            code = main([*COMMANDS[name], "--out", tmp])
            if code == 0:
                shutil.copyfile(Path(tmp) / FROM_DIR[name], out)
            return code


def _stored_table(path: Path, columns) -> str:
    """The table stored from the run file ``path``: ``columns`` of a CSV, or a checkpoint."""
    if path.suffix == ".bin":
        state = read_checkpoint(path)
        return table_text(["phi", "mu"], zip(state.phi, state.mu))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [rows[0].index(c) for c in columns] if columns else range(len(rows[0]))
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows)


def run_diffuse(name: str, out: Path) -> int:
    """Runs DIFFUSE[name] and writes its stored files into the directory ``out``."""
    command, stored = DIFFUSE[name]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(GOLDEN / f"{name}.cfg"), "--out", tmp])
        if code == 0:
            for file, (source, columns) in stored.items():
                (out / file).write_text(_stored_table(Path(tmp) / source, columns))
        return code


def check_names() -> tuple[int, str]:
    """Exit code of ``activech check`` and its "[PASS] name" lines."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["check"])
    lines = [line.split(":", 1)[0] for line in stdout.getvalue().splitlines()
             if line.startswith(("[PASS]", "[FAIL]"))]
    return code, "".join(f"{line}\n" for line in lines)


def regenerate() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in COMMANDS:
        if run_command(name, GOLDEN / name) != 0:
            print(f"{name}: the command failed", file=sys.stderr)
            return 1
    for name in DIFFUSE:
        if run_diffuse(name, GOLDEN) != 0:
            print(f"{name}: the run failed", file=sys.stderr)
            return 1
    code, names = check_names()
    if code != 0:
        print("activech check failed; its names are not stored", file=sys.stderr)
        return 1
    (GOLDEN / CHECK).write_text(names)
    n_diffuse = sum(len(stored) for _, stored in DIFFUSE.values())
    print(f"wrote {len(COMMANDS) + n_diffuse + 1} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(regenerate())
