#!/usr/bin/env python3
"""Benchmark of the activech simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; ``activech`` is imported from ``src/``.
One process runs one workload as a closed loop: set up, run, check, repeat
until ``--seconds`` are used.  BLAS and OpenMP are pinned to one thread.

* ``--trace 0`` reports the end-to-end metrics: medians of the set-up and
  timed sections, the peak resident memory and the share of operations
  that succeeded.
* ``--trace 1`` runs one untraced iteration, then traced ones, and reports
  the per-layer metrics, the tracing overhead and a self-test: traced and
  untraced outputs are bit-identical, the solver counters add up, and the
  layers' self times cover the timed section.

Every iteration's outputs are checked against the seed program's reference
values.  The second-to-last line of output is a JSON record with the
environment, computed problem sizes, warnings, checks and accuracy metrics;
the last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("front2d", "ladder1d", "spinodal2d", "sharp_sweep")
#: set-up-only repetitions before the timed loop, so set-up has enough samples
SETUP_REPS = 7
#: layers' self times must add up to the traced wall time within this share
SELF_TIME_TOL = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import activech from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "activech" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no activech sources under {src}")
    sys.path.insert(0, str(src))
    import activech

    if Path(activech.__file__).resolve().parent != (src / "activech").resolve():
        raise SystemExit(f"perfbench: imported activech from {activech.__file__}")
    return activech


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    import activech

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read_text("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(index / "level").strip()
        kind = _read_text(index / "type").strip()
        size = _read_text(index / "size").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else ' ' + kind.lower()}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "activech": activech.__version__, "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches, "platform": platform.platform(),
    }


class Iteration:
    """One set-up plus timed section of a workload, and its checks."""

    def __init__(self, wl, tracer=None, want_sizes=False):
        self.error = None
        self.checks = []
        self.accuracy = {}
        self.identity = None
        self.sizes = None
        self.output_bytes = 0
        self.ops = wl.ops
        state = None
        t0 = t1 = t2 = None
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                state = wl.setup()
                t1 = time.perf_counter()
                out = wl.run(state, tracer.span if tracer is not None else None)
                t2 = time.perf_counter()
            checks, self.accuracy = wl.check(state, out)
            self.checks = checks.items
            self.identity = [a.tobytes() for a in wl.identity(out)]
            self.output_bytes = wl.output_bytes(state)
            if want_sizes:
                self.sizes = wl.sizes(state, out)
        except Exception as exc:  # the program failed: count it, report it, stop
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            # a failed section is timed up to the failure
            now = time.perf_counter()
            t0 = t0 or now
            t1 = t1 or now
            t2 = t2 or now
            self.setup_s, self.wall_s, self.window = t1 - t0, t2 - t1, (t1, t2)
            if state is not None:
                wl.cleanup(state)

    @property
    def ok(self) -> bool:
        return self.error is None and all(c["ok"] for c in self.checks)


def run_loop(wl, seconds, tracer=None) -> list[Iteration]:
    """Iterations until the time budget is spent.

    Another iteration starts while at least half of one still fits, so a
    run measures ``seconds`` on average.  With a tracer, the first
    iteration is the untraced baseline and at least one traced iteration
    follows it.
    """
    start = time.perf_counter()
    its, durations = [], []
    while True:
        t = time.perf_counter()
        traced = tracer is not None and bool(its)
        its.append(Iteration(wl, tracer if traced else None, want_sizes=not its))
        durations.append(time.perf_counter() - t)
        if its[-1].error is not None:
            return its
        if tracer is not None and len(its) < 2:
            continue
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return its


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, its_traced, base_wall, sizes) -> dict:
    n = len(its_traced)
    summary = tracer.summary()

    def get(name, key="s"):
        return summary.get(name, {}).get(key, 0) / n

    newton = tracer.newton_iters / n
    step_ms = summary.get("solver.step", {}).get("durations")
    p50 = p90 = 0.0
    if step_ms is not None and len(step_ms):
        import numpy as np
        p50, p90 = (float(v) * 1e3 for v in np.percentile(step_ms, [50, 90]))
    si_calls = get("model.si_quadrature", "calls")
    s2_in_si = tracer.count("model.source_S2", inside="model.si_quadrature") / n
    traced_wall = statistics.median(it.wall_s for it in its_traced)
    return {
        "solver.backsolve.calls": metric(get("solver.backsolve", "calls"), "count"),
        "solver.backsolve.s": metric(get("solver.backsolve"), "s"),
        "solver.backsolve_per_newton": metric(
            get("solver.backsolve", "calls") / newton if newton else 0.0, "ratio"),
        "solver.factor.calls": metric(get("solver.factor", "calls"), "count"),
        "solver.factor.s": metric(get("solver.factor"), "s"),
        "solver.refactor_per_newton": metric(
            get("solver.factor", "calls") / newton if newton else 0.0, "ratio"),
        "solver.factor.fill_nnz": metric(sizes.get("fill_nnz", 0), "count"),
        "solver.factor.matrix_nnz": metric(sizes.get("s_nnz", 0), "count"),
        "solver.step.calls": metric(get("solver.step", "calls"), "count"),
        "solver.step.s": metric(get("solver.step"), "s"),
        "solver.step.self_s": metric(get("solver.step", "self_s"), "s"),
        "solver.step.p50_ms": metric(p50, "ms"),
        "solver.step.p90_ms": metric(p90, "ms"),
        "solver.newton_iters": metric(newton, "count"),
        "mesh.stiffness_matrix.calls": metric(get("mesh.stiffness_matrix", "calls"), "count"),
        "mesh.stiffness_matrix.s": metric(get("mesh.stiffness_matrix"), "s"),
        "model.source_S.s": metric(get("model.source_S"), "s"),
        "model.mobility_m.s": metric(get("model.mobility_m"), "s"),
        "model.si_quadrature.calls": metric(si_calls, "count"),
        "model.si_quadrature.s": metric(get("model.si_quadrature"), "s"),
        "model.source_S2.calls_per_quad": metric(s2_in_si / si_calls if si_calls else 0.0,
                                                 "ratio"),
        "output.snapshot.calls": metric(get("output.snapshot", "calls"), "count"),
        "output.snapshot.s": metric(get("output.snapshot"), "s"),
        "output.finish.s": metric(get("output.finish"), "s"),
        "output.bytes": metric(statistics.mean(it.output_bytes for it in its_traced), "bytes"),
        "analysis.track_interface.s": metric(get("analysis.track_interface"), "s"),
        "analysis.mode_amplitudes.s": metric(get("analysis.mode_amplitudes"), "s"),
        "analysis.reference_front_position.s": metric(
            get("analysis.reference_front_position"), "s"),
        "planar.integrate_q.calls": metric(get("planar.integrate_q", "calls"), "count"),
        "planar.integrate_q.s": metric(get("planar.integrate_q"), "s"),
        "planar.amplification.calls": metric(get("planar.amplification", "calls"), "count"),
        "planar.amplification.s": metric(get("planar.amplification"), "s"),
        "solver.free_energy.s": metric(get("solver.free_energy"), "s"),
        "config.parse_config.s": metric(get("config.parse_config"), "s"),
        "mesh.build_mesh.s": metric(get("mesh.build_mesh"), "s"),
        "initial.init_field.s": metric(get("initial.init_field"), "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.overhead_s": metric(traced_wall - base_wall, "s"),
    }


def self_test(wl, tracer, base, its_traced) -> list[dict]:
    """Traced runs must not change results, and the trace must add up."""
    tests = []
    for k, it in enumerate(its_traced):
        tests.append({"name": f"traced iteration {k} is bit-identical to untraced",
                      "ok": it.identity is not None and it.identity == base.identity})
        covered = tracer.self_time_sum(it.window)
        tests.append({"name": f"layer self times cover traced iteration {k}",
                      "ok": abs(covered - it.wall_s) <= SELF_TIME_TOL * it.wall_s,
                      "detail": f"{covered:.6f} s of {it.wall_s:.6f} s"})
    summary = tracer.summary()
    missing = [name for name in wl.expected_layers if name not in summary]
    tests.append({"name": "every expected layer was traced", "ok": not missing,
                  "detail": f"missing {missing}" if missing else ""})
    if "solver.step" in wl.expected_layers:
        back = summary.get("solver.backsolve", {}).get("calls", 0)
        fac = summary.get("solver.factor", {}).get("calls", 0)
        tests.append({"name": "back-solves >= Newton iterations >= factorizations >= 1",
                      "ok": back >= tracer.newton_iters >= fac >= 1,
                      "detail": f"{back} >= {tracer.newton_iters} >= {fac}"})
    return tests


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, WORKDIR)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer:  # raises TraceTargetMissing, before any work, if a target is gone
            pass

    with warnings.catch_warnings(record=True) as caught:
        # record every occurrence; nothing is suppressed
        warnings.simplefilter("always")
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                state = wl.setup()
                setup_samples.append(time.perf_counter() - t0)
                wl.cleanup(state)
        its = run_loop(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [it.setup_s for it in its]

    sizes = its[0].sizes or {}
    detail = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        **wl.describe(), "load": "closed loop, one single-threaded process",
        "iterations": len(its), "environment": environment(), "computed_sizes": sizes,
        "warnings": dict(Counter(w.category.__name__ for w in caught)),
        "warning_messages": sorted({str(w.message) for w in caught})[:10],
        "errors": [it.error for it in its if it.error],
        "checks": [dict(c, iteration=i) for i, it in enumerate(its) for c in it.checks
                   if i == 0 or not c["ok"]],
        "samples": {"setup_s": setup_samples, "wall_s": [it.wall_s for it in its]},
    }
    ok = all(it.ok for it in its)
    attempted = sum(it.ops for it in its)

    if args.trace:
        base, traced = its[0], its[1:]
        if traced and base.ok and traced[-1].error is None:
            tests = self_test(wl, tracer, base, traced)
            metrics = layer_metrics(tracer, traced, base.wall_s, sizes)
        else:
            tests, metrics = [{"name": "traced iteration ran", "ok": False}], {}
        ok = ok and all(t["ok"] for t in tests)
        detail["self_test"] = tests
        detail["layers"] = {name: {k: v for k, v in row.items() if k != "durations"}
                            for name, row in tracer.summary().items()}
        detail["counts"] = [[fn, enc, n] for (fn, enc), n in tracer.counts.items()]
        tracer.dump(WORKDIR / f"spans-{args.workload}.json")

    # a failed check fails every operation of the run
    failed = 0 if ok else attempted
    if not args.trace:
        metrics = {
            "wall_s": metric(statistics.median(it.wall_s for it in its), "s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "ok_share": metric((attempted - failed) / attempted, "ratio"),
        }
    accuracy = next((it.accuracy for it in reversed(its) if it.accuracy), {})
    detail["metrics"] = {
        **metrics, "fail_share": metric(failed / attempted, "ratio"),
        **{name: metric(value, unit) for name, (value, unit) in accuracy.items()},
    }
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
