"""Tests for configuration parsing and validation."""

import math

import numpy as np
import pytest

import activech as ac

MINIMAL = """
[discretization]
epsilon = 1/(4*pi)

[physics]
beta = 0.1
s_plus = -1
s_minus = 4

[initial]
kind = flat_front
q0 = 0.3
"""


def test_minimal_defaults():
    cfg = ac.parse_config(MINIMAL)
    params = cfg.params
    assert params.mobility == ac.MobilitySpec(1.0, 1.0)
    sharp = ac.derive_sharp_params(params, 1.0, 1.0)
    assert sharp.rho_plus == 1.0 and sharp.rho_minus == 1.0
    assert params.reaction.r_c == 1.0 and params.reaction.l_coef == 0.0
    # K derived through rho = K / (2 beta) for the quartic
    assert params.reaction.k_plus == pytest.approx(0.2)
    assert params.reaction.k_minus == pytest.approx(0.2)
    assert cfg.dim == 1
    assert cfg.tau == pytest.approx(1e-3)
    assert params.beta == 0.1
    assert cfg.phase_field_params() is params


def test_epsilon_symbolic_exact():
    cfg = ac.parse_config(MINIMAL.replace("1/(4*pi)", "1/(16*pi)"))
    assert cfg.params.epsilon == 1.0 / (16.0 * math.pi)
    assert ac.parse_epsilon("1/(16*pi)") == 1.0 / (16.0 * math.pi)
    assert ac.parse_epsilon("1/(2.5 * pi)") == 1.0 / (2.5 * math.pi)
    assert ac.parse_epsilon("0.05") == 0.05
    with pytest.raises(ac.ConfigurationError):
        ac.parse_epsilon("two pi")


def test_rho_and_k_are_mutually_exclusive():
    text = MINIMAL + "\n" + "[physics]\nrho_plus = 1\nk_plus = 0.2\n"
    # configparser forbids duplicate sections; build a fresh document instead
    doc = """
[discretization]
epsilon = 0.05

[physics]
beta = 0.1
s_plus = -1
s_minus = 4
rho_plus = 1
k_plus = 0.2

[initial]
kind = constant
value = 0
"""
    with pytest.raises(ac.ConfigurationError):
        ac.parse_config(doc)


def test_k_pair_derives_rho():
    doc = """
[discretization]
epsilon = 0.05

[physics]
beta = 0.1
s_plus = -1
s_minus = 4
k_plus = 0.2
k_minus = 0.02

[initial]
kind = constant
value = 0
"""
    cfg = ac.parse_config(doc)
    # K is stored as given; rho is derived from it only for the sharp limit
    assert (cfg.params.reaction.k_plus, cfg.params.reaction.k_minus) == (0.2, 0.02)
    sharp = ac.derive_sharp_params(cfg.params, 1.0, 1.0)
    assert sharp.rho_plus == pytest.approx(1.0)
    assert sharp.rho_minus == pytest.approx(0.1)


def test_k_pair_with_zero_beta_is_a_configuration_error():
    # K is stored as given, so nothing divides by beta before PhaseFieldParams checks it
    doc = MINIMAL.replace("s_minus = 4\n", "s_minus = 4\nk_plus = 0.2\nk_minus = 0.2\n")
    with pytest.raises(ac.ConfigurationError, match="beta must be positive"):
        ac.parse_config(doc, overrides={"physics.beta": "0"})


def test_unknown_field_reports_section():
    doc = MINIMAL + "\n[domain]\nwidth = 3\n"
    with pytest.raises(ac.ConfigurationError) as err:
        ac.parse_config(doc)
    assert "[domain]" in str(err.value)
    assert "width" in str(err.value)


def test_missing_required_field():
    doc = """
[discretization]
epsilon = 0.05

[physics]
beta = 0.1
s_plus = -1

[initial]
kind = constant
value = 0
"""
    with pytest.raises(ac.ConfigurationError) as err:
        ac.parse_config(doc)
    assert "s_minus" in str(err.value)


def test_unsupported_potential_kind():
    with pytest.raises(ac.ConfigurationError, match=r"\[physics\] potential: unknown field"):
        ac.parse_config(MINIMAL, overrides={"physics.potential": "cubic"})


def test_overrides_win_over_file():
    cfg = ac.parse_config(MINIMAL, overrides={"physics.beta": "0.5",
                                              "output.directory": "/tmp/x"})
    assert cfg.params.beta == 0.5
    assert cfg.directory == "/tmp/x"


def test_initial_params_pass_through():
    doc = """
[discretization]
epsilon = 0.05

[physics]
beta = 0.1
s_plus = -1
s_minus = 1

[domain]
dim = 2
lengths = 2, 1

[initial]
kind = disk
center = 1.0, 0.5
r0 = 0.25
"""
    cfg = ac.parse_config(doc)
    assert cfg.init_kind == "disk"
    assert cfg.init_params["center"] == (1.0, 0.5)
    assert cfg.init_params["r0"] == 0.25
    assert cfg.lengths == (2.0, 1.0)


@pytest.mark.parametrize("kind, body, raw", [
    ("flat_front", "q0 = 0.5\nmodes = 2\namplitudes = 0.02",
     {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}),
    ("flat_front", "q0 = 0.5\nn_random_modes = 3\nseed = 4",
     {"q0": 0.5, "n_random_modes": 3, "seed": 4}),
    ("perturbed_disk", "center = 0.5, 0.5\nr0 = 0.25", {"center": (0.5, 0.5), "r0": 0.25}),
    ("random_spinodal", "bound = 0.05", {"bound": 0.05}),
    ("three_disks", "centers = 0.3, 0.3; 0.7, 0.6\nradii = 0.1, 0.2",
     {"centers": [(0.3, 0.3), (0.7, 0.6)], "radii": [0.1, 0.2]}),
])
def test_initial_defaults_from_the_kind_table(kind, body, raw):
    doc = MINIMAL.replace("kind = flat_front\nq0 = 0.3", f"kind = {kind}\n{body}")
    cfg = ac.parse_config(doc + "\n[domain]\ndim = 2\nlengths = 1, 1\n")
    fields = ac.initial.KINDS[kind]
    assert cfg.init_params.keys() == fields.keys()
    for name, (_, default) in fields.items():
        if name not in raw:
            assert cfg.init_params[name] == default, name
    # the resolved dict and the raw one give the same field, bit for bit
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    eps = cfg.params.epsilon
    resolved = ac.init_field(mesh, kind, cfg.init_params, eps).values
    assert np.array_equal(resolved, ac.init_field(mesh, kind, raw, eps).values)


def test_converge_section():
    doc = MINIMAL + """
[converge]
epsilons = 1/(4*pi), 1/(8*pi)
dim = 1
"""
    cfg = ac.parse_config(doc)
    assert cfg.converge_epsilons == [1 / (4 * math.pi), 1 / (8 * math.pi)]
    assert cfg.converge_dim == 1


@pytest.mark.parametrize("bad", ["0", "-0.01", "nan", "inf"])
def test_converge_epsilons_must_be_positive_and_finite(bad):
    doc = MINIMAL + f"""
[converge]
epsilons = 1/(4*pi), {bad}
"""
    with pytest.raises(ac.ConfigurationError,
                       match=r"\[converge\] epsilons: (must be positive|expected)"):
        ac.parse_config(doc)


@pytest.mark.parametrize("dim", ["0", "3"])
def test_converge_dim_must_be_1_or_2(dim):
    doc = MINIMAL + f"""
[converge]
epsilons = 1/(4*pi)
dim = {dim}
"""
    with pytest.raises(ac.ConfigurationError, match=r"\[converge\] dim"):
        ac.parse_config(doc)


# a non-finite entry of each number type, as written in a configuration
NONFINITE = {"number": "{}", "numbers": "1, {}", "point": "0.5, {}",
             "points": "0.5, 0.5; 0.5, {}"}
NUMBER_FIELDS = (
    [({}, section, key, type_) for section, fields in ac.config.SECTIONS.items()
     for key, (type_, _) in fields.items() if type_ in NONFINITE]
    + [({"initial.kind": kind}, "initial", key, type_) for kind, fields in ac.initial.KINDS.items()
       for key, (type_, _) in fields.items() if type_ in NONFINITE])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("base, section, key, type_", NUMBER_FIELDS,
                         ids=[f"{b.get('initial.kind', s)}.{k}" for b, s, k, _ in NUMBER_FIELDS])
def test_every_number_field_rejects_non_finite_values(base, section, key, type_, bad):
    overrides = {**base, f"{section}.{key}": NONFINITE[type_].format(bad)}
    with pytest.raises(ac.ConfigurationError, match=rf"^\[{section}\] {key}: expected .*finite"):
        ac.parse_config(MINIMAL, overrides)


def test_typed_fields_accept_their_literals():
    cfg = ac.parse_config(MINIMAL, overrides={
        "output.vtk": "off", "output.checkpoint": "Yes", "output.stride": "5",
        "initial.seed": "+7", "domain.lengths": "2", "discretization.h": "1/(64*pi)"})
    assert (cfg.vtk, cfg.checkpoint, cfg.stride, cfg.init_params["seed"]) == (False, True, 5, 7)
    assert cfg.lengths == (2.0,) and cfg.h == 1 / (64 * math.pi)


@pytest.mark.parametrize("doc, overrides, message", [
    (MINIMAL + "[solver]\nx = 1\n", {}, r"^unknown configuration section \[solver\]$"),
    (MINIMAL, {"beta": "0.2"}, r"^override 'beta' must be 'section.key'$"),
    (MINIMAL, {"domain.dim": "3"}, r"^\[domain\] dim: must be 1 or 2, got 3$"),
    (MINIMAL, {"domain.lengths": "1, 2"}, r"^\[domain\] lengths: expected 1 entries"),
    (MINIMAL, {"domain.dim": "2", "domain.lengths": "1, 2, 3"},
     r"^\[domain\] lengths: expected 2 entries"),
])
def test_sections_overrides_and_domain_rules(doc, overrides, message):
    with pytest.raises(ac.ConfigurationError, match=message):
        ac.parse_config(doc, overrides)


def test_one_length_serves_both_sides_of_a_2d_domain():
    cfg = ac.parse_config(MINIMAL, {"domain.dim": "2", "domain.lengths": "2"})
    assert (cfg.dim, cfg.lengths) == (2, (2.0, 2.0))


def test_mesh_size_auto_rule():
    cfg = ac.parse_config(MINIMAL.replace("1/(4*pi)", "1/(16*pi)"))
    assert cfg.mesh_size() == pytest.approx(1 / 128)
    cfg2 = ac.parse_config(MINIMAL, overrides={"discretization.h": "0.01"})
    assert cfg2.mesh_size() == 0.01


def test_malformed_document():
    with pytest.raises(ac.ConfigurationError):
        ac.parse_config("not an ini file at all [[[")
