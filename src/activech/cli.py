"""Command-line surface.

Subcommands: simulate, sharp-ode, stability, converge, modes, si-table,
check.  Exit codes: 0 success, 1 configuration error or an unusable input
or output path, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import GROWTH_TAKEOFF, convergence_study, fit_growth_rate, growth_window
from .config import parse_config, parse_epsilon
from .errors import ConfigurationError, NumericalError
from .model import (
    DoubleWellPotential,
    MobilitySpec,
    PhaseFieldParams,
    ReactionSpec,
    derive_sharp_params,
    profile_Phi0,
    psi,
    relaxation_rates,
    si_closed_form,
    si_quadrature,
    source_S,
)
from .output import OutputOptions, write_table
from .planar import (
    ModeIndex,
    _front_velocity,
    amplification,
    enumerate_modes,
    find_stationary,
    integrate_q,
    mode_representatives,
)
from .solver import SolverConfig, run_simulation


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _physics_flags(sub):
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--splus", type=float, required=True, help="bulk rate S+")
    sub.add_argument("--sminus", type=float, required=True, help="bulk rate S-")
    sub.add_argument("--rhoplus", type=float, default=1.0)
    sub.add_argument("--rhominus", type=float, default=1.0)
    sub.add_argument("--mplus", type=float, default=1.0)
    sub.add_argument("--mminus", type=float, default=1.0)
    sub.add_argument("--lcoef", type=float, default=0.0, help="interface production L")
    sub.add_argument("--rc", type=float, default=1.0)
    sub.add_argument("--L", type=float, default=1.0, help="domain length")


def _params_from_flags(args) -> PhaseFieldParams:
    if not 0.0 < args.beta < math.inf:   # checked before K+- = 2 beta rho+-, to name the flag
        raise ConfigurationError(f"--beta must be positive and finite, got {args.beta}")
    for flag in ("rhoplus", "rhominus"):
        if not math.isfinite(getattr(args, flag)):
            raise ConfigurationError(f"--{flag} must be finite, got {getattr(args, flag)}")
    k_plus, k_minus = relaxation_rates(args.beta, args.rhoplus, args.rhominus)
    reaction = ReactionSpec(s_plus=args.splus, s_minus=args.sminus, k_plus=k_plus,
                            k_minus=k_minus, l_coef=args.lcoef, r_c=args.rc)
    return PhaseFieldParams(beta=args.beta, epsilon=0.01,   # no sharp constant depends on eps
                            potential=DoubleWellPotential.quartic(), reaction=reaction,
                            mobility=MobilitySpec(args.mplus, args.mminus))


def _overrides(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects section.key=value, got {pair!r}")
        dotted, value = pair.split("=", 1)
        out[dotted.strip()] = value.strip()
    return out


def _load_config(args):
    path = Path(args.config)
    if not path.exists():
        raise ConfigurationError(f"configuration file not found: {path}")
    overrides = _overrides(args.set)
    if args.out:
        overrides["output.directory"] = args.out
    return parse_config(path.read_text(), overrides)


def _front_position(sharp, given: float | None, flag: str) -> float:
    """``given`` if set, else the stationary root of H, else NumericalError."""
    if given is not None:
        return given
    q = find_stationary(sharp)
    if q is None:
        raise NumericalError(f"no stationary front exists; give {flag} explicitly")
    return q


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_configured(cfg, modes_lmax: int | None):
    """Simulate a parsed configuration, extracting modes up to ``modes_lmax``."""
    opts = OutputOptions(
        directory=cfg.directory, stride=cfg.stride, vtk=cfg.vtk,
        checkpoint=cfg.checkpoint, track_interface=True,
        track_line=cfg.track_line, modes_lmax=modes_lmax,
        manifest_extra=cfg.as_manifest_dict(),
    )
    return run_simulation(
        cfg.params, (cfg.dim, cfg.lengths, cfg.mesh_size()),
        (cfg.init_kind, cfg.init_params),
        SolverConfig(tau=cfg.tau), cfg.t_end, outputs=opts,
    )


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    record = _run_configured(cfg, cfg.modes_lmax)
    q_final = record.q_h[-1]
    print(f"steps={len(record.newton_iters)} t_end={record.times[-1]:g} "
          f"mass={record.mass[-1]:.9g} energy={record.energy[-1]:.9g} "
          f"q_h={q_final:.9g} wall={record.wall_seconds:.1f}s")
    for message in record.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def _cmd_sharp_ode(args) -> int:
    sharp = derive_sharp_params(_params_from_flags(args), args.L, 1.0)   # H never reads Lt
    q0 = _front_position(sharp, args.q0, "--q0")
    traj = integrate_q(sharp, q0, args.dt, args.t_end, output_stride=args.stride)
    H = _front_velocity(sharp)   # the trajectory keeps q inside (0, L)
    write_table(args.out, ["t", "q", "H"],
                ((t, q, H(float(q))) for t, q in zip(traj.times, traj.q)))
    if traj.boundary_hit:
        print("warning: front reached the domain boundary; trajectory truncated",
              file=sys.stderr)
    print(f"wrote {args.out} ({len(traj.times)} samples, q(0)={q0:g}, "
          f"q(T)={traj.q[-1]:g})")
    return 0


def _cmd_stability(args) -> int:
    if args.lmax < 0:
        raise ConfigurationError(f"--lmax must be nonnegative, got {args.lmax}")
    sharp = derive_sharp_params(_params_from_flags(args), args.L, args.Lt)
    q = _front_position(sharp, args.q, "--q")
    modes = mode_representatives(enumerate_modes(args.d, args.lmax * args.lmax))
    rows = [amplification(sharp, args.beta, q, mode) for mode in modes]
    if args.out:
        write_table(args.out,
                    ["l_sq", "gamma_plus", "gamma_minus", "a_plus", "a_minus", "factor",
                     "beta_crit"],
                    ((r.mode.l_sq, r.gamma_plus, r.gamma_minus, r.a_plus, r.a_minus,
                      r.factor, r.beta_crit) for r in rows))
        print(f"wrote {args.out}")
    for row in rows:
        crit = "" if row.beta_crit is None else f" beta_crit={row.beta_crit:.6g}"
        print(f"l_sq={row.mode.l_sq:4d} factor={row.factor:+.6e}{crit}")
    best = max(rows, key=lambda r: r.factor)
    print(f"most amplified: |l|^2={best.mode.l_sq} "
          f"(l={best.mode.l_vec}) factor={best.factor:.6e} at q={q:g}")
    return 0


def _cmd_converge(args) -> int:
    cfg = _load_config(args)
    if not cfg.converge_epsilons:
        raise ConfigurationError("[converge] epsilons: required for the converge command")
    if cfg.init_kind != "flat_front":
        raise ConfigurationError("[initial] kind: converge needs a flat_front initial front")
    table = convergence_study(
        cfg.params, cfg.converge_epsilons, cfg.t_end, lengths=cfg.lengths if cfg.dim == 2
        else (cfg.lengths[0], cfg.lengths[0]),
        q0=cfg.init_params["q0"], dim=cfg.converge_dim,
        cfg=SolverConfig(tau=cfg.tau), h=cfg.h,
    )
    out_dir = Path(cfg.directory or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "convergence.csv", ["epsilon", "h", "error", "eoc"],
                ((r.epsilon, r.h, r.error, r.eoc) for r in table.rows))
    # two columns (epsilon, error) for external log-log plotting
    write_table(out_dir / "convergence_loglog.dat", [],
                ((r.epsilon, r.error) for r in table.rows), sep=" ")
    for row in table.rows:
        eoc = "  ---" if row.eoc is None else f"{row.eoc:5.2f}"
        note = f"  [{row.note}]" if row.note else ""
        print(f"eps={row.epsilon:.6e} h={row.h:g} error={row.error:.6e} eoc={eoc}{note}")
    print(f"wrote {out_dir / 'convergence.csv'}")
    return 0


def _cmd_modes(args) -> int:
    cfg = _load_config(args)
    if cfg.dim != 2:
        raise ConfigurationError("modes requires a 2D configuration")
    modes_lmax = cfg.modes_lmax if cfg.modes_lmax is not None else 10
    if modes_lmax < 1:
        raise ConfigurationError(f"[output] modes_lmax: modes needs at least 1, got {modes_lmax}")
    sharp = derive_sharp_params(cfg.params, cfg.lengths[0], cfg.lengths[1])
    record = _run_configured(cfg, modes_lmax)
    measured = np.all(np.isfinite(record.mode_amps), axis=1)   # a failed extraction is NaN
    if not measured.any():   # no record had a front to measure
        raise NumericalError("; ".join(w for w in record.warnings
                                       if w.startswith("mode extraction:")))
    l_max = record.mode_amps.shape[1] - 1
    out_dir = Path(cfg.directory or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "modes.csv", ["t"] + [f"A{l}" for l in range(l_max + 1)],
                np.column_stack([record.times, record.mode_amps]))
    times, mode_amps = record.times[measured], record.mode_amps[measured]
    dominant = 1 + int(np.argmax(np.abs(mode_amps[-1, 1:])))
    # the linearization's base state is the mean height A0(0), not the
    # tracking line's crossing, which includes the perturbation
    mean_height = float(record.mode_amps[0, 0])
    q_for_rate = mean_height if math.isfinite(mean_height) else cfg.lengths[0] / 2
    row = amplification(sharp, cfg.params.beta, q_for_rate, ModeIndex.of(dominant))
    amps = np.abs(mode_amps[:, dominant])
    start, stop = growth_window(times, amps, cfg.lengths[1])
    if not np.any(amps > GROWTH_TAKEOFF * amps[0]):   # start 0 is also a fallback after take-off
        print(f"warning: mode l={dominant} shows no take-off; the fit window is the "
              f"whole run, not the linear regime", file=sys.stderr)
    fitted = fit_growth_rate(times[start:stop], amps[start:stop])
    print(f"dominant mode l={dominant}; fitted rate {fitted:.4g} "
          f"vs predicted {row.growth_rate:.4g} at q={q_for_rate:.4g}, "
          f"beta_crit={row.beta_crit:.4g} "
          f"(window t=[{times[start]:g}, {times[stop - 1]:g}])")
    print(f"wrote {out_dir / 'modes.csv'}")
    return 0


def _parse_sweep(flag: str, text: str) -> list[float]:
    try:
        return [parse_epsilon(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _cmd_si_table(args) -> int:
    sweeps = [_parse_sweep(f"--{name}", getattr(args, name))
              for name in ("rc", "kplus", "kminus", "lcoef")]
    rows = []
    for r_c, k_plus, k_minus, l_coef in itertools.product(*sweeps):
        spec = ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus,
                            k_minus=k_minus, l_coef=l_coef, r_c=r_c)
        rows.append((k_plus, k_minus, l_coef, r_c, si_quadrature(spec)))
    write_table(args.out, ["k_plus", "k_minus", "l_coef", "r_c", "s_i"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_check(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        failures += 0 if ok else 1

    z = np.linspace(-6.0, 6.0, 257)
    phi = profile_Phi0(z)
    dphi = (1.0 / math.sqrt(2.0)) / np.cosh(z / math.sqrt(2.0)) ** 2
    eq_err = float(np.max(np.abs(0.5 * dphi**2 - psi(phi))))
    report("equipartition along the profile", eq_err < 1e-9, f"max={eq_err:.2e}")

    rng = random.Random(1234)   # the standard library's: numpy.random is not loaded for this
    worst, well = 0.0, DoubleWellPotential.quartic()
    for _ in range(20):
        spec = ReactionSpec(0.0, 0.0, *(rng.uniform(-10, 10) for _ in range(3)))
        worst = max(worst, abs(si_quadrature(spec) - si_closed_form(spec, well)))
    report("interfacial reaction quadrature", worst < 1e-12, f"max |diff|={worst:.2e}")

    spec = ReactionSpec(-2.0, 3.0, 1.3, 0.7, -0.4, r_c=0.5)
    h = 1e-7
    jump = max(abs(source_S(spec, 1.0, 0.5 - h) - source_S(spec, 1.0, 0.5 + h)),
               abs(source_S(spec, 1.0, -0.5 - h) - source_S(spec, 1.0, -0.5 + h)))
    report("source continuity at +-r_c", jump < 1e-5, f"jump={jump:.2e}")

    sharp = derive_sharp_params(
        PhaseFieldParams(0.1, 0.01, DoubleWellPotential.quartic(),
                         ReactionSpec(-1.0, 1.0, 0.2, 0.2), MobilitySpec(1.0, 1.0)), 1.0, 1.0)
    row = amplification(sharp, 0.1, 0.5, ModeIndex.of(0))
    expected = -2.0 / math.cosh(0.5) ** 2
    report("translational amplification", abs(row.factor - expected) < 1e-12,
           f"|diff|={abs(row.factor - expected):.2e}")

    crit = amplification(sharp, 0.1, 0.5, ModeIndex.of(2)).beta_crit
    res = amplification(sharp, crit, 0.5, ModeIndex.of(2)).factor
    report("critical beta is an amplification root", abs(res) < 1e-10, f"|factor|={res:.2e}")

    got2 = sorted({m.l_sq for m in enumerate_modes(2, 16)})
    got3 = sorted({m.l_sq for m in enumerate_modes(3, 10)})
    report("mode lattice enumeration",
           got2 == [0, 1, 4, 9, 16] and got3 == [0, 1, 2, 4, 5, 8, 9, 10],
           f"d=2: {got2}, d=3: {got3}")

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="activech",
                     description="Reactive Cahn-Hilliard simulator and validation suite")
    parser.add_argument("--version", action="version", version=f"activech {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    for name, func, text in (
            ("simulate", _cmd_simulate, "run a phase-field simulation"),
            ("converge", _cmd_converge, "diffuse-vs-sharp convergence ladder"),
            ("modes", _cmd_modes, "simulate and extract mode growth")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", help="output directory (overrides [output] directory)")
        cmd.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                         help="override a configuration field")
        cmd.set_defaults(func=func)

    ode = sub.add_parser("sharp-ode", help="integrate the planar front ODE")
    _physics_flags(ode)
    ode.add_argument("--q0", type=float, help="initial front position (default: q*)")
    ode.add_argument("--dt", type=float, default=1e-4)
    ode.add_argument("--t-end", type=float, default=1.0)
    ode.add_argument("--stride", type=int, default=100)
    ode.add_argument("--out", default="sharp_ode.csv")
    ode.set_defaults(func=_cmd_sharp_ode)

    stab = sub.add_parser("stability", help="tabulate transverse-mode amplification")
    _physics_flags(stab)
    stab.add_argument("--Lt", type=float, default=1.0, help="transverse width")
    stab.add_argument("--q", type=float, help="front position (default: q*)")
    stab.add_argument("--lmax", type=int, default=10)
    stab.add_argument("-d", type=int, default=2, choices=(2, 3))
    stab.add_argument("--out")
    stab.set_defaults(func=_cmd_stability)

    si = sub.add_parser("si-table", help="tabulate the interfacial reaction constant")
    si.add_argument("--kplus", default="0")
    si.add_argument("--kminus", default="0")
    si.add_argument("--lcoef", default="0")
    si.add_argument("--rc", default="1")
    si.add_argument("--out", default="si_table.csv")
    si.set_defaults(func=_cmd_si_table)

    check = sub.add_parser("check", help="run the model/planar invariant suite")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
