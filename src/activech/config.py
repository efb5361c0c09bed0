"""Run configuration: a flat INI-style document with typed sections.

Sections: [domain], [discretization], [physics], [initial], [output],
plus [converge] for ladder studies.  Each key is declared once, with its type
and default, in one table: :data:`SECTIONS` for every section but [initial],
and :data:`activech.initial.KINDS`, per ``kind``, for [initial].  Every
section is read through its table by the readers of :data:`_TYPES`: a number
(a float or 1/(k*pi)), an integer, a boolean, text, comma-separated numbers or
integers, a point "x, y" or points "x, y; x, y".  A number must be finite: nan
and +-inf are rejected where they are read, by an error naming ``[section]
key``.  Only the rules that relate fields are code: dim is 1 or 2, one length
serves both sides of a 2D domain, the rho or the K pair, and the [converge]
epsilons and dim.

[physics] may give the rho pair or the K pair, not both, with defaults
m = rho = r_c = 1 and L = 0.  The physics is stored once, as a
:class:`activech.model.PhaseFieldParams` that holds K+-: a rho pair becomes
K+- = beta psi''(+-1) rho+- = 2 beta rho+-, and only
:func:`activech.model.derive_sharp_params` derives rho+- from K+-.  There is
no [output] seed (the field seed is [initial] seed) and no [physics] potential
(the potential is the quartic).  An inline comment starts with '#' only, since
';' separates points.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError
from .initial import KINDS, REQUIRED, resolve_initial
from .model import (DoubleWellPotential, MobilitySpec, PhaseFieldParams, ReactionSpec,
                    relaxation_rates)

_EPS_SYMBOLIC = re.compile(r"^\s*1\s*/\s*\(\s*([0-9]*\.?[0-9]+)\s*\*\s*pi\s*\)\s*$")
_BOOLEANS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def parse_epsilon(text: str) -> float:
    """Accepts a finite float literal or the symbolic form '1/(k*pi)'."""
    match = _EPS_SYMBOLIC.match(text)
    try:
        value = 1.0 / (float(match.group(1)) * math.pi) if match else float(text)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"cannot parse epsilon value {text!r} as a finite number")
    return value


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


def _items(read, sep=","):
    """A reader of ``sep``-separated values, each read by ``read``."""
    return lambda text: tuple(read(part) for part in text.split(sep) if part.strip())


def _point(text: str) -> tuple[float, float]:
    x, y = _items(parse_epsilon)(text)  # ValueError unless exactly two
    return x, y


#: Each field type of :data:`SECTIONS` and :data:`activech.initial.KINDS`: what
#: it accepts, and how it is read.
_TYPES = {
    "number": ("a finite number or 1/(k*pi)", parse_epsilon),
    "numbers": ("comma-separated finite numbers", _items(parse_epsilon)),
    "integer": ("an integer", int),
    "integers": ("comma-separated integers", _items(int)),
    "point": ("two comma-separated finite numbers x, y", _point),
    "points": ("points x, y of finite numbers separated by ';'", _items(_point, ";")),
    "boolean": ("one of true/false/yes/no/on/off", lambda text: _BOOLEANS[text.lower()]),
    "text": ("text", str),
}

#: The fields of every section but [initial]: section -> key -> (type, default),
#: as in :data:`activech.initial.KINDS`.  A REQUIRED field has no default; the
#: k pair's default applies when [physics] gives a k, the rho pair's otherwise.
SECTIONS = {
    "domain": {"dim": ("integer", 1), "lengths": ("numbers", (1.0,))},
    "discretization": {"epsilon": ("number", REQUIRED), "h": ("number", None),
                       "tau": ("number", 1e-3), "t_end": ("number", 1.0)},
    "physics": {"beta": ("number", REQUIRED), "s_plus": ("number", REQUIRED),
                "s_minus": ("number", REQUIRED), "rho_plus": ("number", 1.0),
                "rho_minus": ("number", 1.0), "k_plus": ("number", 0.0),
                "k_minus": ("number", 0.0), "l_coef": ("number", 0.0),
                "r_c": ("number", 1.0), "m_plus": ("number", 1.0), "m_minus": ("number", 1.0)},
    "output": {"directory": ("text", None), "stride": ("integer", 10),
               "vtk": ("boolean", True), "checkpoint": ("boolean", True),
               "track_line": ("number", 0.0), "modes_lmax": ("integer", None)},
    "converge": {"epsilons": ("numbers", ()), "dim": ("integer", 1)},
}


def _read(section: str, key: str, type_: str, raw: str | None, default=REQUIRED):
    """``[section] key``'s raw text read as ``type_``, or ``default`` if it is absent."""
    if raw is None:
        if default is REQUIRED:
            raise ConfigurationError(f"[{section}] {key}: required field is missing")
        return default
    expected, read = _TYPES[type_]
    try:
        return read(raw.strip())
    except (ValueError, LookupError):  # a ConfigurationError is a ValueError
        raise ConfigurationError(
            f"[{section}] {key}: expected {expected}, got {raw!r}") from None


def _read_section(section: str, fields: dict, given: dict) -> dict:
    """Each of ``[section]``'s ``fields``, read from ``given``'s raw text or at its default."""
    for key in given:
        if key not in fields:
            raise ConfigurationError(f"[{section}] {key}: unknown field")
    return {key: _read(section, key, type_, given.get(key), default)
            for key, (type_, default) in fields.items()}


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
    for section in sections:
        if section not in SECTIONS and section != "initial":
            raise ConfigurationError(f"unknown configuration section [{section}]")
    domain, disc, phys, out, conv = (_read_section(section, fields, sections.get(section, {}))
                                     for section, fields in SECTIONS.items())

    dim, lengths = domain["dim"], domain["lengths"]
    if dim not in (1, 2):
        raise ConfigurationError(f"[domain] dim: must be 1 or 2, got {dim}")
    if len(lengths) == 1 and dim == 2:
        lengths = (lengths[0], lengths[0])
    if len(lengths) != dim:
        raise ConfigurationError(f"[domain] lengths: expected {dim} entries, got {lengths}")

    given = sections.get("physics", {})
    has_k = "k_plus" in given or "k_minus" in given
    if has_k and ("rho_plus" in given or "rho_minus" in given):
        raise ConfigurationError(
            "[physics]: give either rho_plus/rho_minus or k_plus/k_minus, not both")
    k_pair = ((phys["k_plus"], phys["k_minus"]) if has_k else
              relaxation_rates(phys["beta"], phys["rho_plus"], phys["rho_minus"]))
    reaction = ReactionSpec(phys["s_plus"], phys["s_minus"], *k_pair,
                            l_coef=phys["l_coef"], r_c=phys["r_c"])
    mobility = MobilitySpec(phys["m_plus"], phys["m_minus"])
    params = PhaseFieldParams(phys["beta"], disc["epsilon"], DoubleWellPotential.quartic(),
                              reaction, mobility)

    given = sections.get("initial", {})
    init_kind = _read("initial", "kind", "text", given.get("kind"))
    fields = KINDS.get(init_kind, {})
    # an unknown kind or field arrives as text, and resolve_initial rejects it
    init_params = resolve_initial(init_kind, {
        key: _read("initial", key, fields.get(key, ("text",))[0], raw)
        for key, raw in given.items() if key != "kind"})

    if not all(eps > 0.0 for eps in conv["epsilons"]):
        raise ConfigurationError(
            f"[converge] epsilons: must be positive, got {list(conv['epsilons'])}")
    if conv["dim"] not in (1, 2):
        raise ConfigurationError(f"[converge] dim: must be 1 or 2, got {conv['dim']}")

    return RunConfig(
        dim=dim, lengths=lengths, h=disc["h"], tau=disc["tau"], t_end=disc["t_end"],
        params=params, init_kind=init_kind, init_params=init_params, **out,
        converge_epsilons=list(conv["epsilons"]), converge_dim=conv["dim"])
