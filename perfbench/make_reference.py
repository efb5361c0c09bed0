#!/usr/bin/env python3
"""Regenerate ``reference.json`` from the program in this tree.

    python3 perfbench/make_reference.py

The reference values are the seed program's outputs; the benchmark checks
every later version against them.  Regenerate only when a change is meant
to alter results, and say so where the change is recorded.  Uses two
worker processes for the spinodal2d seeds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402


def _run(wl):
    state = wl.setup()
    try:
        return state, wl.run(state)
    except BaseException:
        wl.cleanup(state)
        raise


def spinodal(seed: int) -> tuple[str, dict]:
    from workloads import Spinodal2D

    wl = Spinodal2D(seed, run.WORKDIR)
    state, rec = _run(wl)
    wl.cleanup(state)
    return str(seed), {"mass": float(rec.mass[-1]), "energy": float(rec.energy[-1]),
                       "max_abs_phi": rec.max_abs_phi}


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    import workloads as w

    ref = {}
    state, rec = _run(w.Front2D(0, run.WORKDIR))
    fitted, predicted = w.Front2D.mode2_rates(state, rec)
    ref["front2d"] = {"q_h": float(rec.q_h[-1]), "energy": float(rec.energy[-1]),
                      "max_abs_phi": rec.max_abs_phi,
                      "growth_rate_err": abs(fitted - predicted) / abs(predicted)}

    _, table = _run(w.Ladder1D(0, run.WORKDIR))
    ref["ladder1d"] = {"errors": [row.error for row in table.rows],
                       "eoc": [row.eoc for row in table.rows]}

    sweep = w.SharpSweep(0, run.WORKDIR)
    state, out = _run(sweep)
    si, stab, ode = sweep._read(out)
    sweep.cleanup(state)
    ref["sharp_sweep"] = {"si": [float(r["s_i"]) for r in si],
                          "stability_factor": [float(r["factor"]) for r in stab],
                          "ode_q_end": float(ode[-1]["q"])}

    with multiprocessing.get_context("spawn").Pool(2) as pool:
        ref["spinodal2d"] = dict(pool.map(spinodal, range(w.SPINODAL_SEEDS)))
    w.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {w.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
