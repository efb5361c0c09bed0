"""Out-of-program tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of the traced ``activech``
modules, a few methods, and the SciPy ``splu`` entry point the solver
calls.  Each wrapper records a span (name, parent, start, end) in memory;
nothing is written until the run ends.  Every binding of a wrapped object
inside the ``activech`` package is patched, because callers look names up
in their own module (``activech.solver.source_S``,
``activech.analysis.interface_position``, ...), so patching the defining
module alone would miss calls and report zero.

A required target that no longer exists raises :class:`TraceTargetMissing`
instead of producing an empty layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("model", "mesh", "solver", "analysis", "planar", "output", "config", "initial")

# Targets the per-layer metrics are computed from.  Each must exist; a
# rename in the program has to be mirrored here, never silently skipped.
REQUIRED_FUNCTIONS = (
    "model.source_S", "model.mobility_m", "model.si_quadrature", "model.source_S2",
    "mesh.build_mesh", "mesh.stiffness_matrix", "initial.init_field",
    "config.parse_config", "solver.run_simulation", "solver.free_energy",
    "analysis.track_interface", "analysis.mode_amplitudes",
    "analysis.reference_front_position", "analysis.convergence_study",
    "planar.integrate_q", "planar.amplification",
)
REQUIRED_METHODS = ("solver.Stepper.step", "output.RunWriter.snapshot",
                    "output.RunWriter.finish")
# Called hundreds of times per quadrature inside ``si_quadrature``; a span
# each would dominate the layer it measures, so these are only counted.
COUNT_ONLY = ("model.source_S2", "model.profile_Phi0")


class TraceTargetMissing(RuntimeError):
    """A function or method the traced run depends on is gone."""


class _LUProxy:
    """Stands in for a SuperLU object so that each back-solve is a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.backsolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []        # [name_id, parent, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()   # (name, enclosing span name) -> calls
        self.newton_iters = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [nid, parent, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _enclosing(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else ""

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name, self._enclosing()] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _step_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("solver.step"):
                out = fn(*args, **kwargs)
            self.newton_iters += out[2].iterations
            return out
        return wrapper

    def _splu_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("solver.factor"):
                lu = fn(*args, **kwargs)
            return _LUProxy(lu, self)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` in every activech module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "activech" or mod_name.startswith("activech.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self):
        import activech
        from activech import solver

        modules = {name: getattr(activech, name, None) for name in TRACED_MODULES}
        targets: dict[str, object] = {}
        for mod_name, mod in modules.items():
            if mod is None:
                raise TraceTargetMissing(f"module activech.{mod_name} is gone")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    # aliases share one object and are named after it
                    targets.setdefault(f"{mod_name}.{obj.__name__}", obj)
        for name in REQUIRED_FUNCTIONS + COUNT_ONLY:
            if name not in targets:
                raise TraceTargetMissing(f"traced function activech.{name} is gone")

        for name, fn in targets.items():
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            self._patch_everywhere(fn, make(name, fn))

        for name in REQUIRED_METHODS:
            mod_name, cls_name, meth = name.split(".")
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None or not inspect.isfunction(vars(cls).get(meth)):
                raise TraceTargetMissing(f"traced method activech.{name} is gone")
            fn = vars(cls)[meth]
            new = self._step_wrapper(fn) if name == "solver.Stepper.step" \
                else self._span_wrapper(f"{mod_name}.{meth}", fn)
            self._patch(cls, meth, new)

        splu = getattr(solver, "splu", None)
        if splu is None:
            raise TraceTargetMissing("activech.solver.splu is gone")
        self._patch_everywhere(splu, self._splu_wrapper(splu))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ------------------------------------------------------

    def arrays(self):
        """Name ids, starts, durations and self times of all spans."""
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 4)
        nid = arr[:, 0].astype(int)
        parent = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(arr))
        return nid, arr[:, 2], dur, dur - child

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, durations."""
        nid, _, dur, self_s = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            if sel.any():
                out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                             "self_s": float(self_s[sel].sum()),
                             "durations": dur[sel]}
        return out

    def self_time_sum(self, window) -> float:
        """Self time of the spans that start inside ``window`` = (t0, t1)."""
        _, start, _, self_s = self.arrays()
        keep = (start >= window[0]) & (start <= window[1])
        return float(self_s[keep].sum())

    def count(self, name: str, inside: str) -> int:
        """Calls of a count-only function made directly inside span ``inside``."""
        return self.counts[name, inside]

    def dump(self, path):
        """Write the raw spans: names plus rows of (name_id, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names,
               "spans": self.spans,
               "counts": [[fn, enc, n] for (fn, enc), n in self.counts.items()]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
