"""The four benchmark workloads.

Each workload loads a different layer of ``activech``:

* ``front2d``    -- SuperLU back-substitution and factorization at 16 641 nodes.
* ``ladder1d``   -- per-call overhead of scipy.sparse assembly at 17-257 nodes.
* ``spinodal2d`` -- refactorization (psi'' changes sign everywhere) and file output.
* ``sharp_sweep``-- the S_I quadrature of the model layer, through the CLI.

A workload is used in three phases: ``setup`` (timed as ``setup_s``),
``run`` (timed as ``wall_s``) and ``check`` (untimed; compares the outputs
with the reference values of the seed program in ``reference.json``).
Program functions are looked up as module attributes at call time, so a
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from activech import analysis, cli, config, initial, mesh, model, output, planar, solver
from activech.errors import ConfigurationError, NumericalError

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}

#: ROADMAP accuracy gate: q_h and energy equal the baseline within 1e-9 relative.
REL_TOL = 1e-9
#: The discrete mass is a sum of O(1) terms that cancel to ~1e-3, so it is
#: compared absolutely, at the same 1e-9 per unit domain volume.
MASS_ABS_TOL = 1e-9
#: Derived quantities: the growth-rate fit and the EOC.
DERIVED_REL_TOL = 1e-6
EOC_ABS_TOL = 1e-8
#: S_I from the quadrature (abs_tol 1e-10 per call) against the seed's values.
SI_ABS_TOL = 1e-8
#: Paper claim: first-order convergence of the diffuse front.
EOC_MIN = 0.9
#: Field seeds with reference results for spinodal2d; the benchmark seed is
#: reduced modulo this count.
SPINODAL_SEEDS = 64

PHYSICS = """
[physics]
beta = 0.1
s_plus = -1
s_minus = 1
k_plus = 0.2
k_minus = 0.2
m_plus = 1
m_minus = 1
"""

FRONT2D_CONFIG = """
[domain]
dim = 2
lengths = 1, 1
[discretization]
epsilon = 1/(16*pi)
h = 0.0078125
tau = 1e-3
t_end = 0.05
[initial]
kind = flat_front
q0 = 0.5
modes = 2
amplitudes = 0.02
[output]
stride = 10
modes_lmax = 8
""" + PHYSICS

LADDER1D_CONFIG = """
[domain]
dim = 1
lengths = 1
[discretization]
epsilon = 1/(2*pi)
tau = 1e-3
t_end = 0.2
[initial]
kind = flat_front
q0 = 0.3
[converge]
epsilons = 1/(2*pi), 1/(4*pi), 1/(8*pi), 1/(16*pi), 1/(32*pi)
dim = 1
""" + PHYSICS

SPINODAL2D_CONFIG = """
[domain]
dim = 2
lengths = 1, 1
[discretization]
epsilon = 1/(8*pi)
h = 0.015625
tau = 1e-3
t_end = 0.1
[initial]
kind = random_spinodal
bound = 0.05
[output]
stride = 10
vtk = true
checkpoint = true
""" + PHYSICS

PHYS_FLAGS = ["--beta", "0.1", "--splus", "-1", "--sminus", "1"]


class Checks:
    """Collects named pass/fail results for one iteration."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def close(self, name: str, got: float, ref: float | None, tol: float = REL_TOL,
              absolute: bool = False):
        if ref is None:
            self.add(name, False, "no reference value")
            return
        ok = abs(got - ref) <= (tol if absolute else tol * abs(ref))
        self.add(name, ok, f"got {got!r}, reference {ref!r}")


def _first_factor_sizes(mesh_obj, params, scfg, phi0) -> dict:
    """Sizes of the first Schur matrix and its LU factors (one step, untimed)."""
    seen = {}
    real = solver.splu

    def spy(A, *args, **kwargs):
        lu = real(A, *args, **kwargs)
        if not seen:
            seen.update(n=A.shape[0], s_nnz=int(A.nnz),
                        fill_nnz=int(lu.L.nnz + lu.U.nnz))
        return lu

    solver.splu = spy
    try:
        stepper = solver.Stepper(mesh_obj, params, scfg)
        stepper.step(phi0, stepper.initial_mu(phi0))
    finally:
        solver.splu = real
    # CSC storage: float64 values plus int32 row indices per stored entry
    seen["s_bytes"] = seen["s_nnz"] * 12 + (seen["n"] + 1) * 4
    seen["fill_bytes"] = seen["fill_nnz"] * 12 + 2 * (seen["n"] + 1) * 4
    return seen


class Workload:
    name = ""
    #: layers a traced run of this workload must see at least once
    expected_layers: tuple[str, ...] = ()
    #: operations per iteration: time steps, ladder rungs or table rows
    ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run(self, state, span=None):
        """``span(name)``, when given, opens a benchmark-side trace span."""
        raise NotImplementedError

    def check(self, state, out) -> tuple[Checks, dict]:
        """Returns the checks and the accuracy metrics {name: (value, unit)}."""
        raise NotImplementedError

    def identity(self, out) -> list[np.ndarray]:
        """Outputs that a traced run must reproduce bit for bit."""
        raise NotImplementedError

    def sizes(self, state, out) -> dict:
        return {}

    def output_bytes(self, state) -> int:
        return 0

    def cleanup(self, state):
        pass

    def describe(self) -> dict:
        return {"seed": self.seed}


class _Simulation(Workload):
    """A run_simulation workload described by an INI configuration."""

    text = ""
    track_interface = True

    def _output_options(self, cfg, directory):
        return output.OutputOptions(
            directory=directory, stride=cfg.stride, vtk=cfg.vtk,
            checkpoint=cfg.checkpoint, track_interface=self.track_interface,
            track_line=cfg.track_line, modes_lmax=cfg.modes_lmax,
            manifest_extra=cfg.as_manifest_dict())

    def _setup(self, overrides=None):
        cfg = config.parse_config(self.text, overrides)
        params = cfg.phase_field_params()
        mesh_obj = mesh.build_mesh(cfg.dim, cfg.lengths, cfg.mesh_size())
        phi0 = self.initial(cfg, params, mesh_obj)
        mesh.stiffness_matrix(mesh_obj)
        scfg = solver.SolverConfig(tau=cfg.tau)
        solver.Stepper(mesh_obj, params, scfg)
        return {"cfg": cfg, "params": params, "mesh": mesh_obj, "phi0": phi0, "scfg": scfg}

    def initial(self, cfg, params, mesh_obj):
        return initial.init_field(mesh_obj, cfg.init_kind, cfg.init_params, params.epsilon)

    def run(self, state, span=None):
        cfg = state["cfg"]
        return solver.run_simulation(
            state["params"], state["mesh"], state["phi0"], state["scfg"], cfg.t_end,
            outputs=self._output_options(cfg, cfg.directory))

    @property
    def ops(self) -> int:
        return self.expected_steps

    def identity(self, out):
        return [out.q_h, out.energy, out.mass, out.state.phi.values, out.state.mu.values]

    def sizes(self, state, out):
        sizes = {"nodes": state["mesh"].n_nodes, "steps": len(out.newton_iters),
                 "newton_iters": int(sum(out.newton_iters))}
        sizes.update(_first_factor_sizes(state["mesh"], state["params"], state["scfg"],
                                          state["phi0"].values))
        return sizes


class Front2D(_Simulation):
    name = "front2d"
    text = FRONT2D_CONFIG
    expected_steps = 50
    expected_layers = ("solver.step", "solver.factor", "solver.backsolve", "model.source_S",
                       "model.mobility_m", "mesh.stiffness_matrix", "solver.free_energy",
                       "analysis.track_interface", "analysis.mode_amplitudes",
                       "config.parse_config", "mesh.build_mesh", "initial.init_field")

    def setup(self):
        return self._setup()

    @staticmethod
    def mode2_rates(state, out) -> tuple[float, float]:
        """Fitted mode-2 growth rate and the one ``amplification`` predicts at q_h(0)."""
        width = state["cfg"].lengths[1]
        sharp = model.derive_sharp_params(state["params"], state["cfg"].lengths[0], width)
        predicted = planar.amplification(sharp, state["params"].beta, float(out.q_h[0]),
                                         planar.ModeIndex.of(2)).growth_rate
        amps = np.abs(out.mode_amps[:, 2])
        start, stop = analysis.growth_window(out.times, amps, width)
        return analysis.fit_growth_rate(out.times[start:stop], amps[start:stop]), predicted

    def check(self, state, out):
        ref = REFERENCE.get("front2d", {})
        checks = Checks()
        checks.add("steps", len(out.newton_iters) == self.expected_steps,
                   f"{len(out.newton_iters)} steps")
        checks.close("q_h", float(out.q_h[-1]), ref.get("q_h"))
        checks.close("energy", float(out.energy[-1]), ref.get("energy"))
        checks.close("max_abs_phi", out.max_abs_phi, ref.get("max_abs_phi"))
        fitted, predicted = self.mode2_rates(state, out)
        err = abs(fitted - predicted) / abs(predicted)
        checks.add("mode-2 rate has the predicted sign",
                   math.copysign(1, fitted) == math.copysign(1, predicted),
                   f"fitted {fitted:.6g}, predicted {predicted:.6g}")
        checks.close("growth_rate_err", err, ref.get("growth_rate_err"), DERIVED_REL_TOL)
        return checks, {"growth_rate_err": (err, "ratio"),
                        "max_abs_phi": (out.max_abs_phi, "1")}


class Spinodal2D(_Simulation):
    name = "spinodal2d"
    text = SPINODAL2D_CONFIG
    expected_steps = 100
    expected_layers = ("solver.step", "solver.factor", "solver.backsolve", "model.source_S",
                       "model.mobility_m", "mesh.stiffness_matrix", "solver.free_energy",
                       "output.snapshot", "output.finish",
                       "config.parse_config", "mesh.build_mesh")
    track_interface = False
    bound = 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.field_seed = seed % SPINODAL_SEEDS

    def describe(self):
        return {"seed": self.seed, "field_seed": self.field_seed}

    def initial(self, cfg, params, mesh_obj):
        # the benchmark generates the field; the program only receives it
        rng = np.random.default_rng(self.field_seed)
        values = rng.uniform(-self.bound, self.bound, size=mesh_obj.n_nodes)
        values -= np.dot(mesh_obj.lumped, values) / np.sum(mesh_obj.lumped)
        return mesh.NodalField(values, mesh_obj)

    def setup(self):
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="spinodal2d-", dir=self.workdir / "tmp")
        return self._setup({"output.directory": directory})

    def cleanup(self, state):
        shutil.rmtree(state["cfg"].directory, ignore_errors=True)

    def output_bytes(self, state) -> int:
        return sum(f.stat().st_size for f in Path(state["cfg"].directory).iterdir())

    def check(self, state, out):
        ref = REFERENCE.get("spinodal2d", {}).get(str(self.field_seed), {})
        checks = Checks()
        checks.add("steps", len(out.newton_iters) == self.expected_steps,
                   f"{len(out.newton_iters)} steps")
        checks.close("mass", float(out.mass[-1]), ref.get("mass"), MASS_ABS_TOL, absolute=True)
        checks.close("energy", float(out.energy[-1]), ref.get("energy"))
        checks.close("max_abs_phi", out.max_abs_phi, ref.get("max_abs_phi"))
        checks.add("phase field bounded", out.max_abs_phi <= solver.PHI_BOUND_WARN,
                   f"max |phi| = {out.max_abs_phi:.6g}")

        directory = Path(state["cfg"].directory)
        names = sorted(f.name for f in directory.iterdir())
        n_snap = self.expected_steps // state["cfg"].stride + 1
        expected = sorted([f"snap_{i * state['cfg'].stride:06d}.vtk" for i in range(n_snap)]
                          + ["checkpoint.bin", "diag.csv", "manifest.json"])
        checks.add("output files", names == expected, f"{len(names)} files")
        if names == expected:
            ckpt = output.read_checkpoint(directory / "checkpoint.bin")
            checks.add("checkpoint holds the final state",
                       np.array_equal(ckpt.phi, out.state.phi.values)
                       and np.array_equal(ckpt.mu, out.state.mu.values)
                       and ckpt.step == self.expected_steps)
            with open(directory / "diag.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            checks.add("diag.csv matches the record",
                       len(rows) == len(out.times)
                       and [float(r["energy"]) for r in rows] == list(out.energy)
                       and [float(r["mass"]) for r in rows] == list(out.mass))
            manifest = json.loads((directory / "manifest.json").read_text())
            checks.add("manifest is finished", manifest.get("end_time") is not None)
        return checks, {"max_abs_phi": (out.max_abs_phi, "1")}


class Ladder1D(Workload):
    name = "ladder1d"
    ops = 5
    expected_layers = ("solver.step", "solver.factor", "solver.backsolve", "model.source_S",
                       "model.mobility_m", "mesh.stiffness_matrix", "analysis.track_interface",
                       "analysis.reference_front_position", "planar.integrate_q",
                       "config.parse_config", "mesh.build_mesh", "initial.init_field")

    def setup(self):
        cfg = config.parse_config(LADDER1D_CONFIG)
        params = cfg.phase_field_params()
        q0 = float(cfg.init_params["q0"])
        scfg = solver.SolverConfig(tau=cfg.tau)
        rungs = []
        for eps in cfg.converge_epsilons:
            p_eps = model.PhaseFieldParams(params.beta, eps, params.potential,
                                           params.reaction, params.mobility)
            m = mesh.build_mesh(cfg.converge_dim, cfg.lengths[:1], analysis.auto_mesh_size(eps))
            phi0 = initial.init_field(m, "flat_front", {"q0": q0}, eps)
            mesh.stiffness_matrix(m)
            solver.Stepper(m, p_eps, scfg)
            rungs.append((m, p_eps, phi0))
        return {"cfg": cfg, "params": params, "q0": q0, "scfg": scfg, "rungs": rungs}

    def run(self, state, span=None):
        cfg = state["cfg"]
        return analysis.convergence_study(
            state["params"], cfg.converge_epsilons, cfg.t_end,
            lengths=(cfg.lengths[0], cfg.lengths[0]), q0=state["q0"], dim=cfg.converge_dim,
            cfg=state["scfg"], h=cfg.h, max_workers=1)

    def check(self, state, out):
        ref = REFERENCE.get("ladder1d", {"errors": [], "eoc": []})
        checks = Checks()
        checks.add("rungs", len(out.rows) == self.ops == len(ref["errors"]),
                   f"{len(out.rows)} rungs")
        for i, (row, err, eoc) in enumerate(zip(out.rows, ref["errors"], ref["eoc"])):
            checks.add(f"rung {i} ran", not row.note, row.note)
            checks.close(f"rung {i} error", row.error, err)
            if eoc is None:
                checks.add(f"rung {i} eoc", row.eoc is None, repr(row.eoc))
            else:
                checks.close(f"rung {i} eoc", row.eoc if row.eoc is not None else math.nan,
                             eoc, EOC_ABS_TOL, absolute=True)
        last = out.rows[-1].eoc if out.rows and out.rows[-1].eoc is not None else math.nan
        checks.add("first-order EOC on the last rung", last >= EOC_MIN, f"eoc {last:.4f}")
        finest = out.rows[-1].error if out.rows else math.nan
        return checks, {"front_err_finest": (finest, "1"), "eoc_last": (last, "1")}

    def identity(self, out):
        return [np.array([row.error for row in out.rows])]

    def sizes(self, state, out):
        m, p_eps, phi0 = state["rungs"][-1]
        sizes = {"nodes_per_rung": [r[0].n_nodes for r in state["rungs"]],
                 "steps_per_rung": int(round(state["cfg"].t_end / state["cfg"].tau)),
                 "finest_rung_nodes": m.n_nodes}
        sizes.update(_first_factor_sizes(m, p_eps, state["scfg"], phi0.values))
        return sizes


class SharpSweep(Workload):
    name = "sharp_sweep"
    expected_layers = ("model.si_quadrature", "planar.integrate_q", "planar.amplification",
                       "cli.si-table", "cli.stability", "cli.sharp-ode", "cli.check")
    RC = "0.5,0.6,0.7,0.8,0.9,1"
    KS = "0.1,0.5,1,2"
    LCOEF = "0,0.5"

    def setup(self):
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="sharp_sweep-", dir=self.workdir / "tmp"))
        argvs = [
            ["si-table", "--rc", self.RC, "--kplus", self.KS, "--kminus", self.KS,
             "--lcoef", self.LCOEF, "--out", str(directory / "si_table.csv")],
            ["stability", "-d", "3", "--lmax", "20", *PHYS_FLAGS,
             "--out", str(directory / "stability.csv")],
            ["sharp-ode", *PHYS_FLAGS, "--dt", "1e-5", "--t-end", "1",
             "--out", str(directory / "sharp_ode.csv")],
            ["check"],
        ]
        parser = cli.build_parser()
        return {"dir": directory, "commands": [parser.parse_args(a) for a in argvs]}

    def run(self, state, span=None):
        """Runs each subcommand as ``activech.cli.main`` would after parsing."""
        codes, stdout = [], io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for args in state["commands"]:
                with span(f"cli.{args.command}") if span else contextlib.nullcontext():
                    try:
                        codes.append(args.func(args))
                    except ConfigurationError as exc:
                        print(f"configuration error: {exc}")
                        codes.append(1)
                    except NumericalError as exc:
                        print(f"numerical failure: {exc}")
                        codes.append(2)
        return {"codes": codes, "stdout": stdout.getvalue(), "dir": state["dir"]}

    @staticmethod
    def _table(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def _read(self, out):
        d = out["dir"]
        return (self._table(d / "si_table.csv"), self._table(d / "stability.csv"),
                self._table(d / "sharp_ode.csv"))

    @property
    def ops(self):
        """si-table and stability rows, plus the ODE run and the check suite."""
        ref = REFERENCE.get("sharp_sweep", {})
        return len(ref.get("si", ())) + len(ref.get("stability_factor", ())) + 2

    def check(self, state, out):
        ref = REFERENCE.get("sharp_sweep", {"si": [], "stability_factor": [], "ode_q_end": None})
        checks = Checks()
        checks.add("exit codes", out["codes"] == [0, 0, 0, 0], repr(out["codes"]))
        checks.add("activech check passes", "all checks passed" in out["stdout"]
                   and "[FAIL]" not in out["stdout"])
        if out["codes"] != [0, 0, 0, 0]:
            return checks, {"si_err_max": (math.nan, "1")}
        si, stab, ode = self._read(out)
        got = np.array([float(r["s_i"]) for r in si])
        checks.add("si-table rows", len(got) == len(ref["si"]), f"{len(got)} rows")
        if len(got) == len(ref["si"]):
            diff = float(np.max(np.abs(got - np.asarray(ref["si"]))))
            checks.add("si-table values", diff <= SI_ABS_TOL, f"max |diff| = {diff:.3e}")
        pot = model.DoubleWellPotential.quartic()
        si_err = 0.0
        for r in si:
            if float(r["r_c"]) == 1.0:
                spec = model.ReactionSpec(0.0, 0.0, float(r["k_plus"]), float(r["k_minus"]),
                                          float(r["l_coef"]), 1.0)
                si_err = max(si_err, abs(float(r["s_i"]) - model.si_closed_form(spec, pot)))
        checks.add("S_I quadrature matches the closed form at r_c = 1", si_err <= SI_ABS_TOL,
                   f"max |diff| = {si_err:.3e}")
        factors = np.array([float(r["factor"]) for r in stab])
        checks.add("stability rows", len(factors) == len(ref["stability_factor"]),
                   f"{len(factors)} rows")
        if len(factors) == len(ref["stability_factor"]):
            ref_f = np.asarray(ref["stability_factor"])
            checks.add("stability factors",
                       bool(np.all(np.abs(factors - ref_f) <= REL_TOL * np.abs(ref_f) + 1e-15)))
        checks.close("sharp-ode q(T)", float(ode[-1]["q"]), ref["ode_q_end"])
        return checks, {"si_err_max": (si_err, "1")}

    def identity(self, out):
        si, stab, ode = self._read(out)
        return [np.array([float(r["s_i"]) for r in si]),
                np.array([float(r["factor"]) for r in stab]),
                np.array([float(r["q"]) for r in ode])]

    def sizes(self, state, out):
        si, stab, ode = self._read(out)
        return {"si_rows": len(si), "stability_rows": len(stab), "ode_samples": len(ode),
                "ode_steps": int(round(1.0 / 1e-5))}

    def cleanup(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Front2D, Ladder1D, Spinodal2D, SharpSweep)}
