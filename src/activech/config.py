"""Run configuration: a flat INI-style document with typed sections.

Sections: [domain], [discretization], [physics], [initial], [output],
plus [converge] for ladder studies.  [physics] may give the rho pair or
the K pair, not both, with defaults m = rho = r_c = 1 and L = 0.  The
physics is stored once, as a :class:`activech.model.PhaseFieldParams` that
holds K+-: a rho pair becomes K+- = beta psi''(+-1) rho+- = 2 beta rho+-, and
only :func:`activech.model.derive_sharp_params` derives rho+- from K+-.

[initial] holds a ``kind`` and fields of that kind, each with the type and
default that :data:`activech.initial.KINDS` gives it: a number (a float or
1/(k*pi)), an integer, comma-separated numbers or integers, a point "x, y"
or points "x, y; x, y".  There is no [output] seed (the field seed is
[initial] seed) and no [physics] potential (the potential is the quartic).
An inline comment starts with '#' only, since ';' separates points.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError
from .initial import KINDS, resolve_initial
from .model import (
    DoubleWellPotential,
    MobilitySpec,
    PhaseFieldParams,
    ReactionSpec,
    relaxation_rates,
)

_EPS_SYMBOLIC = re.compile(r"^\s*1\s*/\s*\(\s*([0-9]*\.?[0-9]+)\s*\*\s*pi\s*\)\s*$")
_BOOLEANS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def parse_epsilon(text: str) -> float:
    """Accepts a float literal or the symbolic form '1/(k*pi)'."""
    match = _EPS_SYMBOLIC.match(text)
    try:
        return 1.0 / (float(match.group(1)) * math.pi) if match else float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"cannot parse epsilon value {text!r}") from None


@dataclass
class RunConfig:
    """Fully resolved configuration (all defaults expanded)."""

    dim: int
    lengths: tuple[float, ...]
    h: float | None
    tau: float
    t_end: float
    params: PhaseFieldParams
    init_kind: str
    init_params: dict
    directory: str | None
    stride: int
    vtk: bool
    checkpoint: bool
    track_line: float
    modes_lmax: int | None
    converge_epsilons: list[float] = field(default_factory=list)
    converge_dim: int = 1

    def phase_field_params(self) -> PhaseFieldParams:
        """``params``; kept as a method because the benchmark workloads call it."""
        return self.params

    def mesh_size(self) -> float:
        from .analysis import auto_mesh_size

        return self.h if self.h is not None else auto_mesh_size(self.params.epsilon)

    def as_manifest_dict(self) -> dict:
        return asdict(self)


_KNOWN = {
    "domain": {"dim", "lengths"},
    "discretization": {"epsilon", "h", "tau", "t_end"},
    "physics": {"beta", "s_plus", "s_minus", "rho_plus", "rho_minus", "k_plus",
                "k_minus", "l_coef", "r_c", "m_plus", "m_minus"},
    "output": {"directory", "stride", "vtk", "checkpoint", "track_line", "modes_lmax"},
    "converge": {"epsilons", "dim"},
}


def _items(read, sep=","):
    """A reader of ``sep``-separated values, each read by ``read``."""
    return lambda text: tuple(read(part) for part in text.split(sep) if part.strip())


def _point(text: str) -> tuple[float, float]:
    x, y = _items(parse_epsilon)(text)  # ValueError unless exactly two
    return x, y


# what a typed field accepts, and how it is read
_NUMBER = ("a number or 1/(k*pi)", parse_epsilon)
_NUMBERS = ("comma-separated numbers", _items(parse_epsilon))
_INTEGER = ("an integer", int)
_BOOLEAN = ("one of true/false/yes/no/on/off", lambda text: _BOOLEANS[text.lower()])
# the field types of initial.KINDS
_INITIAL_TYPES = {"number": _NUMBER, "integer": _INTEGER, "numbers": _NUMBERS,
                  "integers": ("comma-separated integers", _items(int)),
                  "point": ("two comma-separated numbers x, y", _point),
                  "points": ("points x, y separated by ';'", _items(_point, ";"))}


def _get(sections: dict, section: str, key: str, kind=None, default=None, required=False):
    """``[section] key`` read as ``kind`` (text if None), or ``default`` when absent."""
    value = sections.get(section, {}).get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"[{section}] {key}: required field is missing")
        return default
    if kind is None:
        return value
    expected, read = kind
    try:
        return read(value.strip())
    except (ValueError, LookupError, ConfigurationError):
        raise ConfigurationError(
            f"[{section}] {key}: expected {expected}, got {value!r}") from None


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a configuration document.

    ``overrides`` maps dotted 'section.key' names to raw string values and
    wins over the file (the CLI's flag-over-file rule).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from None

    sections = {section.lower(): {key.lower(): raw for key, raw in parser.items(section)}
                for section in parser.sections()}
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigurationError(f"override {dotted!r} must be 'section.key'")
        sec, key = dotted.lower().split(".", 1)
        sections.setdefault(sec, {})[key] = raw

    for section, keys in sections.items():
        if section == "initial":
            continue
        if section not in _KNOWN:
            raise ConfigurationError(f"unknown configuration section [{section}]")
        for key in keys:
            if key not in _KNOWN[section]:
                raise ConfigurationError(f"[{section}] {key}: unknown field")

    dim = _get(sections, "domain", "dim", _INTEGER, 1)
    if dim not in (1, 2):
        raise ConfigurationError(f"[domain] dim: must be 1 or 2, got {dim}")
    lengths = _get(sections, "domain", "lengths", _NUMBERS, (1.0,))
    if len(lengths) == 1 and dim == 2:
        lengths = (lengths[0], lengths[0])
    if len(lengths) != dim:
        raise ConfigurationError(f"[domain] lengths: expected {dim} entries, got {lengths}")

    epsilon = _get(sections, "discretization", "epsilon", _NUMBER, required=True)
    h = _get(sections, "discretization", "h", _NUMBER)
    tau = _get(sections, "discretization", "tau", _NUMBER, 1e-3)
    t_end = _get(sections, "discretization", "t_end", _NUMBER, 1.0)

    phys = sections.get("physics", {})
    beta = _get(sections, "physics", "beta", _NUMBER, required=True)
    s_plus = _get(sections, "physics", "s_plus", _NUMBER, required=True)
    s_minus = _get(sections, "physics", "s_minus", _NUMBER, required=True)

    has_rho = "rho_plus" in phys or "rho_minus" in phys
    has_k = "k_plus" in phys or "k_minus" in phys
    if has_rho and has_k:
        raise ConfigurationError(
            "[physics]: give either rho_plus/rho_minus or k_plus/k_minus, not both")
    if has_k:
        k_plus = _get(sections, "physics", "k_plus", _NUMBER, 0.0)
        k_minus = _get(sections, "physics", "k_minus", _NUMBER, 0.0)
    else:
        k_plus, k_minus = relaxation_rates(
            beta, _get(sections, "physics", "rho_plus", _NUMBER, 1.0),
            _get(sections, "physics", "rho_minus", _NUMBER, 1.0))
    reaction = ReactionSpec(s_plus, s_minus, k_plus, k_minus,
                            l_coef=_get(sections, "physics", "l_coef", _NUMBER, 0.0),
                            r_c=_get(sections, "physics", "r_c", _NUMBER, 1.0))
    mobility = MobilitySpec(_get(sections, "physics", "m_plus", _NUMBER, 1.0),
                            _get(sections, "physics", "m_minus", _NUMBER, 1.0))
    params = PhaseFieldParams(beta, epsilon, DoubleWellPotential.quartic(), reaction, mobility)

    init_kind = _get(sections, "initial", "kind", required=True).strip()
    types = {name: _INITIAL_TYPES[type_]
             for name, (type_, _) in KINDS.get(init_kind, {}).items()}
    # an unknown kind or field arrives as text, and resolve_initial rejects it
    init_params = resolve_initial(init_kind, {
        key: _get(sections, "initial", key, types.get(key))
        for key in sections.get("initial", {}) if key != "kind"})

    directory = _get(sections, "output", "directory")
    stride = _get(sections, "output", "stride", _INTEGER, 10)
    vtk = _get(sections, "output", "vtk", _BOOLEAN, True)
    checkpoint = _get(sections, "output", "checkpoint", _BOOLEAN, True)
    track_line = _get(sections, "output", "track_line", _NUMBER, 0.0)
    modes_lmax = _get(sections, "output", "modes_lmax", _INTEGER)

    converge_epsilons = list(_get(sections, "converge", "epsilons", _NUMBERS, ()))
    if not all(0.0 < eps < math.inf for eps in converge_epsilons):
        raise ConfigurationError(
            f"[converge] epsilons: must be positive and finite, got {converge_epsilons}")
    converge_dim = _get(sections, "converge", "dim", _INTEGER, 1)
    if converge_dim not in (1, 2):
        raise ConfigurationError(f"[converge] dim: must be 1 or 2, got {converge_dim}")

    return RunConfig(
        dim=dim, lengths=lengths, h=h, tau=tau, t_end=t_end, params=params,
        init_kind=init_kind, init_params=init_params, directory=directory, stride=stride,
        vtk=vtk, checkpoint=checkpoint, track_line=track_line, modes_lmax=modes_lmax,
        converge_epsilons=converge_epsilons, converge_dim=converge_dim,
    )
