"""Exit-code contract, experiment registry and output stability of the command-line front end."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circleresp
from circleresp import (
    DegenerateFitError,
    NotExpandingError,
    NumericsError,
    cli,
    errors,
    spaces,
    transfer,
)
from circleresp.cli import EXPERIMENTS, main
from circleresp.config import CheckSpec, ExperimentConfig, load_config

SPECTRUM = """\
kind = spectrum
resolution = 32
map.sin = 0.1
param_box = 0.5
"""

HOELDER_SCAN = """\
kind = hoelder-scan
resolution = 32
map.sin = 0.1
map.cos = 0.05
param_box = 0.5
u0 = 0.1
seed = 7
"""

EXAMPLE_COMPOSITION = """\
kind = example-composition
seed = 11
radius = 0.5
param_radius = 0.2
interval_resolution = 65
samples = 4
check.second_abs_constant = le 1e-6
check.second_rel_linear = le 1e-4
"""

EXAMPLE_AFFINE = """\
kind = example-affine
seed = 11
regularity = holder
exponent = 0.5
interval_resolution = 65
check.slope = eq 0.525 0.075
"""


def run_cli(tmp_path, text, out="out", extra=()):
    config = tmp_path / "experiment.cfg"
    config.write_text(text, encoding="utf-8")
    return main(["--config", str(config), "--out", str(tmp_path / out), *extra])


def test_passing_check_exits_0(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.phi_min = ge 0.0\n") == 0
    assert "PASS phi_min >= 0" in capsys.readouterr().out
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_failing_check_exits_1(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.phi_min = le -1.0\n") == 1
    assert "FAIL phi_min <= -1" in capsys.readouterr().out


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_geometric_weight_has_the_lebesgue_weights_as_ell(tmp_path, capsys, n):
    # phi is the invariant density, of integral 1, so ell is the Lebesgue
    # weights 1/n: measured 7.7e-15, 3.1e-15 and 9.9e-16 at n = 64, 256, 1024
    text = (f"kind = spectrum\nresolution = {n}\nmap.sin = 0.2\nmap.cos = 0.1\nu0 = 0.15\n"
            "check.ell_lebesgue_dev = le 1e-13\n")
    assert run_cli(tmp_path, text) == 0, capsys.readouterr().out


def test_check_on_an_infinite_metric_fails(tmp_path, capsys):
    # phi_u = 1 for every u: every Taylor residual is below the fit floor and
    # fitted_order is inf, so nothing was fitted and no check may pass on it
    text = ("kind = taylor-check\nresolution = 32\nmap.sin = 0.1\nweight.kind = constant\n"
            "weight.value = 0.5\nu0 = 0.1\ncheck.fitted_order = ge 1.5\n")
    assert run_cli(tmp_path, text) == 1
    assert "FAIL fitted_order >= 1.5  [actual inf]" in capsys.readouterr().out


@pytest.mark.parametrize("beta", [0.9, 0.99])
def test_rounding_residuals_are_not_fitted(tmp_path, capsys, beta):
    # phi_u = 1 for every u, and at n = 256 the C^beta surrogate lifts the
    # rounding residuals above 1e-13; they stay below the floor that the
    # base's own fixed-point defect sets, so no order is fitted to them
    text = ("kind = taylor-check\nresolution = 256\nmap.sin = 0.1\nweight.kind = constant\n"
            f"weight.value = 0.5\nu0 = 0.1\nbeta = {beta}\n")
    assert run_cli(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "fitted_order = inf\n" in out
    assert "n_points = 0\n" in out


@pytest.mark.parametrize("actual", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("op, value, tol", [("le", 1.0, 0.0), ("ge", 1.0, 0.0), ("eq", 1.0, 1.0)])
def test_no_check_passes_a_non_finite_value(actual, op, value, tol):
    assert not CheckSpec("metric", op, value, tol).evaluate(actual)


def test_unknown_key_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "# a comment\nmap.bogus = 1\n") == 2
    err = capsys.readouterr().err
    assert "key 'map.bogus' is not read by kind 'spectrum'" in err
    assert "(line 6)" in err


def loaded(tmp_path, text, **overrides) -> ExperimentConfig:
    path = tmp_path / "experiment.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path, **overrides)


class TestRefuse:
    # lines: kind 1, resolution 2, map.sin 3, param_box 4, u0 5, direction 6
    TEXT = SPECTRUM + "u0 = 0.1\ndirection = 2\n"

    def read(self, cfg, *keys):
        for key in keys:
            cfg.get_str(key)
        return cfg

    def test_the_callers_order_wins_over_the_files(self, tmp_path):
        cfg = self.read(loaded(tmp_path, self.TEXT), "u0", "direction", "param_box")
        assert cfg.refuse("bad", "direction", "u0", "param_box").line == 6
        assert cfg.refuse("bad", "u0", "direction").line == 5

    def test_a_key_set_but_not_read_is_skipped(self, tmp_path):
        cfg = self.read(loaded(tmp_path, self.TEXT), "param_box")
        error = cfg.refuse("bad", "direction", "u0", "param_box")
        assert (error.line, str(error)) == (4, "bad (line 4)")

    def test_a_key_set_by_an_override_gives_no_line(self, tmp_path):
        cfg = self.read(loaded(tmp_path, self.TEXT, resolution_override=64), "resolution", "u0")
        error = cfg.refuse("bad", "resolution", "u0")
        assert (error.line, str(error)) == (None, "bad")

    def test_no_key_set_and_read_gives_no_line(self, tmp_path):
        cfg = self.read(loaded(tmp_path, self.TEXT), "weight.kind")
        assert cfg.refuse("bad", "weight.kind", "u0").line is None
        assert cfg.refuse("bad").line is None


def test_a_check_is_never_reported_unread(tmp_path):
    cfg = loaded(tmp_path, "check.lambda = ge 0\nkind = spectrum\nseed = 3\n")
    cfg.refuse_unread()  # loading reads the checks, the kind and the seed
    assert cfg.refuse("bad", "check.lambda").line == 1
    cfg = loaded(tmp_path, "check.lambda = ge 0\n" + SPECTRUM)
    # the first unread key is the kind's, after the check
    with pytest.raises(errors.ConfigError, match=r"key 'resolution' is not read .* \(line 3\)"):
        cfg.refuse_unread()


def test_unknown_check_metric_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.slope = le 1.0\n") == 2
    err = capsys.readouterr().err
    assert "unknown metric 'slope'" in err
    assert "(line 5)" in err


def test_unknown_kind_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, "# a comment\n" + SPECTRUM.replace("spectrum", "spectra")) == 2
    err = capsys.readouterr().err
    assert "unknown kind 'spectra'" in err
    assert "(line 2)" in err


@pytest.mark.parametrize("text, line", [
    (SPECTRUM + "u0 = abc\n", 5),
    (SPECTRUM + "weight.kind = bogus\n", 5),
    # a ValueError of the routines the kind runs
    (SPECTRUM + "weight.kind = constant\nweight.value = -1\n", 6),
    # weight.sin does not feed a constant weight, so its line is not the one named
    (SPECTRUM + "weight.kind = constant\nweight.sin = 0.5\nweight.value = -1\n", 7),
    (SPECTRUM + "weight.kind = exp-scaled\nweight.value = -1\n", 6),
    (SPECTRUM + "weight.kind = trig\nweight.const = 0.1\nweight.sin = 0.5\n", 6),
    (EXAMPLE_AFFINE.replace("regularity = holder", "regularity = smooth"), 3),
    (EXAMPLE_AFFINE + "epsilon = 2.0\n", 7),
    (EXAMPLE_AFFINE.replace("exponent = 0.5", "exponent = 1.5"), 4),
    # a delta outside [-epsilon, epsilon], where the forcing is not checked, and one
    # outside the interval itself
    (EXAMPLE_AFFINE + "epsilon = 0.15\ndeltas = 0.9 0.5 0.25 0.125\n", 8),
    (EXAMPLE_AFFINE + "deltas = 5 3 2\n", 7),
    (EXAMPLE_COMPOSITION.replace("radius = 0.5", "radius = 0.9"), 3),
    (HOELDER_SCAN + "alpha = 1.5\n", 8),
    (SPECTRUM.replace("spectrum", "taylor-check") + "beta = 0\n", 5),
    # order 29 derivatives on 16 samples: the C^beta surrogate is unreliable
    ("kind = taylor-check\nresolution = 16\nmap.sin = 0.1\nu0 = 0.1\nbeta = 30\n", 5),
    # the oracle solves at u = +-2 fd_delta h, outside the parameter ball
    (EXAMPLE_COMPOSITION.replace("param_radius = 0.2\n", "") + "fd_delta = 0.5\n", 8),
    # param_radius (line 4) is set too, but fd_delta is named first as the likelier culprit
    (EXAMPLE_COMPOSITION + "fd_delta = 0.5\n", 9),
    (EXAMPLE_COMPOSITION.replace("param_radius = 0.2", "param_radius = 0.015"), 4),
    # NumPy refused a negative degree, with no line
    (SPECTRUM + "map.degree = -2\n", 5),
    # |u|^-1 divided by zero at u0 = 0, and |u|^0 does not depend on u
    (SPECTRUM + "map.kink_exponent = -1\nu0 = 0\n", 5),
    (SPECTRUM + "map.kink_exponent = 0\nu0 = 0.1\n", 5),
    # NumPy refused a negative seed, with no line
    (SPECTRUM.replace("spectrum", "taylor-check") + "seed = -5\n", 5),
])
def test_config_error_found_while_running_exits_2(tmp_path, capsys, text, line):
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert f"(line {line})" in err  # an error of one key's value is reported at its line


def test_taylor_check_refuses_beta_0_before_assembling_an_operator(tmp_path, capsys,
                                                                    monkeypatch):
    # refused as the key is read, not by the coarse norm after the whole scan
    assembled = []
    for module in (cli, transfer):
        monkeypatch.setattr(module, "assemble_operator", lambda *args: assembled.append(args))
    text = SPECTRUM.replace("spectrum", "taylor-check") + "beta = 0\n"
    assert run_cli(tmp_path, text) == 2
    assert "config error: key 'beta' must be positive, got 0 (line 5)" in capsys.readouterr().err
    assert assembled == []


@pytest.mark.parametrize("text, resolution", [(EXAMPLE_AFFINE, 4), (EXAMPLE_COMPOSITION, 5)],
                         ids=["affine", "composition"])
def test_interval_resolution_below_8_exits_2_at_its_line(tmp_path, capsys, text, resolution):
    text = text.replace("interval_resolution = 65", f"interval_resolution = {resolution}")
    assert run_cli(tmp_path, text) == 2
    assert (f"config error: key 'interval_resolution' must be at least 8, got {resolution} "
            "(line 5)") in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (SPECTRUM.replace("resolution = 32", "resolution = abc"),
     "key 'resolution': expected an integer, got 'abc' (line 2)"),
    (SPECTRUM + "u0 = x\n", "key 'u0': expected a number, got 'x' (line 5)"),
    (HOELDER_SCAN + "enforce_gamma = yes\n",
     "key 'enforce_gamma': expected true/false, got 'yes' (line 8)"),
    (SPECTRUM.replace("map.sin = 0.1", "map.sin = 1 two"),
     "key 'map.sin': expected numbers, got '1 two' (line 3)"),
], ids=["int", "float", "bool", "float-list"])
def test_unparsable_value_exits_2_with_its_message_and_line(tmp_path, capsys, text, message):
    assert run_cli(tmp_path, text) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    (SPECTRUM + "weight.kind = geometric\nweight.value = 0.3\nweight.sin = 9.0\n",
     "weight.value"),
    (SPECTRUM.replace("spectrum", "pressure-check")
     + "observable.count = 1\nobservable.sin = 5.0\nobservable.const = 3.0\n", "observable.sin"),
    # map.sin = 2.0 does not expand: the key is still reported, before the map is checked
    ("kind = spectrum\nresolution = 32\nmap.sin = 2.0\nweight.value = 0.3\n", "weight.value"),
    ("kind = pressure-check\nresolution = 32\nmap.sin = 2.0\nobservable.count = 1\n"
     "observable.sin = 5.0\n", "observable.sin"),
    # a Lipschitz forcing has no Hölder exponent to read
    (EXAMPLE_AFFINE.replace("regularity = holder", "regularity = lipschitz"), "exponent"),
], ids=["weight", "observable", "weight-before-expansion", "observable-before-expansion",
        "exponent-with-lipschitz"])
def test_key_the_chosen_form_does_not_read_exits_2_with_its_line(tmp_path, capsys, text, key):
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}' is not read by" in err
    line = 1 + [row.split(" =")[0] for row in text.splitlines()].index(key)
    assert f"(line {line})" in err


# A pressure check on 16 nodes, which resolve sine modes up to 7 and cosine modes up to 8.
PRESSURE_16 = "kind = pressure-check\nresolution = 16\nmap.sin = 0.3\nmap.cos = 0.1\nu0 = 0.2\n"


@pytest.mark.parametrize("key, mode", [("observable.cos", 16), ("observable.sin", 8)])
def test_observable_mode_the_grid_does_not_resolve_exits_2_with_its_line(tmp_path, capsys,
                                                                         key, mode):
    # at the nodes cos(2 pi 16 x) is the constant 1 and sin(2 pi 8 x) is 0: the
    # mode-16 cosine once read 0.3 as both the derivative and the Gibbs value
    text = PRESSURE_16 + f"{key} = {' '.join(['0'] * (mode - 1))} 0.3\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}': mode {mode} is not resolved by 16 nodes" in err
    assert "(line 6)" in err


def test_nyquist_cosine_observable_is_resolved(tmp_path):
    # the interpolant carries mode n/2 as the cosine cos(n pi x), which it reproduces
    assert run_cli(tmp_path, PRESSURE_16 + "observable.cos = 0 0 0 0 0 0 0 0.3\n") == 0


# |u|^1.5 amplitude: the map family has no u-derivative callables
KINKED = ("resolution = 64\nmap.sin = 0.1\nmap.kink_exponent = 1.5\nu0 = 0.2\n"
          "weight.kind = trig\nweight.const = 0.5\nweight.sin = 0.2\n")


@pytest.mark.parametrize("kind, extra, status", [
    ("response", "", 2),
    ("taylor-check", "", 2),
    # the scan differences operators and never differentiates in u
    ("hoelder-scan", "enforce_gamma = false\n", 0),
])
def test_family_without_a_parameter_derivative_is_not_differentiated(tmp_path, capsys, kind,
                                                                     extra, status):
    assert run_cli(tmp_path, f"kind = {kind}\n" + KINKED + extra) == status
    if status == 2:  # at the line of map.kink_exponent
        assert "no parameter derivative, so d_u L is undefined (line 4)" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    HOELDER_SCAN + "deltas = 0.25\n",
    EXAMPLE_AFFINE + "deltas = 0.01\n",
    SPECTRUM.replace("spectrum", "taylor-check") + "deltas = 0.01\n",
    SPECTRUM.replace("spectrum", "taylor-check") + "deltas = 0.01 0.01 -0.02\n",
])
def test_ladder_without_two_distinct_positive_steps_exits_2_with_its_line(tmp_path, capsys, text):
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "config error: key 'deltas' needs two distinct positive values" in err
    assert f"(line {text.count(chr(10))})" in err


@pytest.mark.parametrize("text, key, least", [
    (SPECTRUM.replace("spectrum", "pressure-check") + "observable.count = -1\n",
     "observable.count", 0),
    (EXAMPLE_COMPOSITION.replace("samples = 4", "samples = 0"), "samples", 1),
], ids=["pressure-check", "example-composition"])
def test_count_that_makes_checks_vacuous_exits_2_with_its_line(tmp_path, capsys, text, key, least):
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}' must be at least {least}" in err
    line = 1 + [row.split(" =")[0] for row in text.splitlines()].index(key)
    assert f"(line {line})" in err


@pytest.mark.parametrize("value, message", [
    ("0", "key 'direction' must be non-zero and finite"),
    ("inf", "key 'direction' must be finite, got 'inf'"),
    ("nan", "key 'direction' must be finite, got 'nan'"),
], ids=["0", "inf", "nan"])
@pytest.mark.parametrize("kind", ["response", "taylor-check", "hoelder-scan"])
def test_direction_that_makes_metrics_vacuous_exits_2_with_its_line(tmp_path, capsys, kind,
                                                                   value, message):
    # with h = 0 the response and every step of the scans are 0, so each
    # metric that reads h compares zeros
    text = (f"kind = {kind}\nresolution = 32\nmap.sin = 0.2\nu0 = 0.1\n"
            f"direction = {value}\n")
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "(line 5)" in err


@pytest.mark.parametrize("text, message, line", [
    # dT/dx = 2 + 1.2 cos 2 pi x falls to 0.8 at u0 = 4; the map expands on [-0.5, 0.5] only
    ("kind = spectrum\nresolution = 32\nmap.sin = 0.3\nu0 = 4\n",
     "key 'u0': parameter u = ", 4),
    ("kind = response\nresolution = 32\nmap.sin = 0.1\nu0 = nan\n",
     "key 'u0' must be finite, got 'nan'", 4),
    # u0 + fd_delta leaves the box
    ("kind = response\nresolution = 32\nmap.sin = 0.1\nparam_box = 0.3\nu0 = 0.3\n"
     "fd_delta = 1e-4\n", "key 'fd_delta': parameter u = ", 6),
    # u0 + 1/4, the first default step of the scan, leaves the box
    ("kind = hoelder-scan\nresolution = 32\nmap.sin = 0.1\nu0 = 0.3\n",
     "key 'deltas': parameter u = ", 4),
    ("kind = taylor-check\nresolution = 32\nmap.sin = 0.1\nu0 = -0.3\ndirection = -1\n"
     "deltas = 0.5 0.25\n", "key 'deltas': parameter u = ", 6),
], ids=["u0-far-outside", "u0-nan", "fd-step", "scan-step", "taylor-step"])
def test_parameter_outside_the_certified_box_exits_2_with_its_line(tmp_path, capsys, text,
                                                                   message, line):
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert f"(line {line})" in err


@pytest.mark.parametrize("value, message", [
    ("nan", "key 'param_box' must be finite, got 'nan'"),
    ("inf", "key 'param_box' must be finite, got 'inf'"),
    ("0", "key 'param_box' must be finite and > 0"),
    ("-0.5", "key 'param_box' must be finite and > 0"),
], ids=["nan", "inf", "0", "-0.5"])
def test_box_that_is_not_finite_and_positive_exits_2_with_its_line(tmp_path, capsys, value,
                                                                  message):
    # a NaN box made the check that the map expands vacuous: dT/dx = 2 + 1.4 cos 2 pi x
    # falls to 0.6 at u0 = 0.7
    text = f"kind = spectrum\nresolution = 32\nmap.sin = 2.0\nparam_box = {value}\nu0 = 0.7\n"
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "(line 4)" in err


@pytest.mark.parametrize("text, key, line", [
    ("kind = solve\nresolution = 16\nmap.sin = 0.1\ntolerance = nan\n", "tolerance", 4),
    ("kind = pressure-check\nresolution = 16\nmap.sin = 0.1\nobservable.sin = nan\n",
     "observable.sin", 4),
    ("kind = spectrum\nresolution = 16\nmap.sin = nan\n", "map.sin", 3),
    ("kind = spectrum\nresolution = 16\nmap.sin = 0.1 inf\n", "map.sin", 3),
    ("kind = spectrum\nresolution = 16\nweight.kind = constant\nweight.value = nan\n",
     "weight.value", 4),
    ("kind = spectrum\nresolution = 16\nweight.kind = trig\nweight.sin = nan\n",
     "weight.sin", 4),
], ids=["tolerance", "observable", "map-nan", "map-inf", "weight-constant", "weight-trig"])
def test_number_that_is_not_finite_exits_2_with_its_line(tmp_path, capsys, text, key, line):
    # each of these ran 10,000 Picard or power iterations and exited 3
    assert run_cli(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"config error: key '{key}' must be finite, got " in err
    assert f"(line {line})" in err


@pytest.mark.parametrize("text, message, line", [
    (SPECTRUM.replace("resolution = 32", "resolution = 7"),
     "resolution must be an even integer >= 8, got 7", 2),
    ("kind = solve\nresolution = 16\nmap.sin = 0.1\ntolerance = -1\n",
     "key 'tolerance' must be positive, got -1", 4),
    ("kind = response\nresolution = 16\nmap.sin = 0.1\nu0 = 0.1\nfd_delta = 0\n",
     "key 'fd_delta' must be positive, got 0", 5),
], ids=["resolution", "tolerance", "fd_delta"])
def test_value_out_of_range_exits_2_with_its_line(tmp_path, capsys, text, message, line):
    assert run_cli(tmp_path, text) == 2
    assert f"config error: {message} (line {line})" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--resolution", "7", "resolution must be an even integer >= 8, got 7"),
    ("--seed", "-5", "option --seed must be non-negative, got -5"),
], ids=["resolution", "seed"])
def test_override_out_of_range_exits_2_without_a_line(tmp_path, capsys, option, value, message):
    assert run_cli(tmp_path, SPECTRUM, extra=(option, value)) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "(line" not in err


@pytest.mark.parametrize("check", [
    "le nan", "le inf", "ge nan", "ge -inf", "eq nan 0.1", "eq inf 0.1", "eq 0.5 nan",
    "eq 0.5 inf",
])
def test_check_with_a_non_finite_argument_exits_2_with_its_line(tmp_path, capsys, check):
    # 'le nan' ran the experiment and failed its check with exit 1
    assert run_cli(tmp_path, SPECTRUM + f"check.sigma = {check}\n") == 2
    err = capsys.readouterr().err
    assert f"config error: check 'sigma': arguments must be finite, got '{check}' (line 5)" in err


@pytest.mark.parametrize("check", ["eq 1 -1", "eq 0 -1e-300"])
def test_eq_check_with_a_negative_tolerance_exits_2_with_its_line(tmp_path, capsys, check):
    # no value is within a negative tolerance, so the experiment would run
    # only to fail its check with exit 1
    assert run_cli(tmp_path, SPECTRUM + f"check.phi_min = {check}\n") == 2
    err = capsys.readouterr().err
    assert (f"config error: check 'phi_min': tolerance must be non-negative, got '{check}' "
            "(line 5)") in err


def test_eq_check_with_tolerance_minus_0_is_an_exact_check(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(SPECTRUM + "check.phi_min = eq 1 -0\n", encoding="utf-8")
    assert load_config(path).checks == [CheckSpec("phi_min", "eq", 1.0, 0.0)]


def test_keys_no_runner_reads_exit_2(tmp_path, capsys):
    taylor = SPECTRUM.replace("spectrum", "taylor-check") + "alpha = 0.9\n"
    assert run_cli(tmp_path, taylor) == 2
    assert "key 'alpha' is not read by kind 'taylor-check'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [("example-composition", EXAMPLE_COMPOSITION),
                                        ("example-affine", EXAMPLE_AFFINE)],
                         ids=["example-composition", "example-affine"])
def test_resolution_override_on_an_interval_kind_names_the_option(tmp_path, capsys, kind, text):
    # the config file sets no key 'resolution': the refusal names the flag that set it
    assert run_cli(tmp_path, text, extra=("--resolution", "129")) == 2
    err = capsys.readouterr().err
    assert f"config error: option --resolution is not read by kind '{kind}'" in err
    assert "key 'resolution'" not in err and "(line" not in err


def test_a_directory_as_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read config file {tmp_path}" in err


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "experiment.cfg"
    config.write_bytes(SPECTRUM.encode("utf-8") + b"map.cos = 0.1 \xff\xfe\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read config file {config}: 'utf-8' codec can't decode" in err


@pytest.mark.parametrize("error, kind, text", [
    (NotExpandingError, "spectrum", SPECTRUM.replace("map.sin = 0.1", "map.sin = 2.0")),
    # every distance falls below the fit floor, so no slope can be fitted
    (DegenerateFitError, "example-affine",
     "kind = example-affine\nregularity = lipschitz\ninterval_resolution = 33\n"
     "deltas = 1e-18 2e-18\n"),
], ids=["not-expanding", "degenerate-fit"])
def test_numerical_failure_exits_3(tmp_path, capsys, error, kind, text):
    assert issubclass(error, NumericsError)
    assert run_cli(tmp_path, text) == 3
    assert f"numerical failure in '{kind}'" in capsys.readouterr().err


def test_only_config_and_cli_make_a_config_error():
    # below the CLI a routine raises ValueError or a NumericsError, so every
    # library error has one exit status, and _at_line_of places the ValueErrors
    library = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and cls.__module__ == errors.__name__]
    for cls in library:
        if cls is not errors.CircleRespError:
            assert issubclass(cls, errors.ConfigError) != issubclass(cls, NumericsError), cls
    config_errors = {cls.__name__ for cls in library if issubclass(cls, errors.ConfigError)}
    makers = set()
    for path in Path(circleresp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name in config_errors:
                    makers.add(path.name)
    assert makers == {"config.py", "cli.py"}


def test_cli_never_looks_up_where_a_key_was_set():
    # only the config places an error at a line: the CLI names keys to cfg.refuse
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "refuse" in attributes
    assert not attributes & {"values", "read"}


def test_response_defaults_to_64_nodes_like_every_circle_kind(tmp_path):
    assert run_cli(tmp_path, "kind = response\nmap.sin = 0.1\nu0 = 0.1\n") == 0
    rows = (tmp_path / "out" / "response.csv").read_bytes().count(b"\n")
    assert rows == 1 + 64  # header and one row per node


def test_taylor_and_hoelder_scans_norm_their_vectors_in_one_batch(tmp_path, monkeypatch):
    calls = []

    def counting(module):
        original = module.cr_norm

        def wrapper(f, *args, **kwargs):
            calls.append((module.__name__, getattr(f, "shape", None)))
            return original(f, *args, **kwargs)

        monkeypatch.setattr(module, "cr_norm", wrapper)

    counting(cli)
    counting(transfer)
    taylor = "kind = taylor-check\nresolution = 64\nmap.sin = 0.1\nu0 = 0.1\n"
    assert run_cli(tmp_path, taylor, out="taylor") == 0
    # the residual and z vectors of the nine default deltas, and the base's defect
    assert calls == [("circleresp.cli", (19, 64))]
    calls.clear()
    assert run_cli(tmp_path, HOELDER_SCAN.replace("resolution = 32", "resolution = 64"),
                   out="scan") == 0
    # the test function's scale, then the operator and phi differences of eight deltas
    assert calls == [("circleresp.transfer", (64,)), ("circleresp.transfer", (16, 64))]


def test_hoelder_scan_csv_is_byte_identical_across_runs(tmp_path):
    assert run_cli(tmp_path, HOELDER_SCAN, out="first") == 0
    assert run_cli(tmp_path, HOELDER_SCAN, out="second") == 0
    first = (tmp_path / "first" / "hoelder.csv").read_bytes()
    assert first.count(b"\n") == 9  # header and the eight default deltas
    assert first == (tmp_path / "second" / "hoelder.csv").read_bytes()


def test_example_composition_csvs_are_byte_identical_cold_and_warm(tmp_path):
    spaces._SPLINE_GRID_MEMO.clear()  # the first run builds the grid with its slope band
    assert run_cli(tmp_path, EXAMPLE_COMPOSITION, out="cold") == 0
    assert list(spaces._SPLINE_GRID_MEMO) == [65]
    assert run_cli(tmp_path, EXAMPLE_COMPOSITION, out="warm") == 0
    # header and three constraint rows; header and two direction rows
    for name, lines in (("composition_constraints.csv", 4),
                        ("composition_second_derivative.csv", 3)):
        cold = (tmp_path / "cold" / name).read_bytes()
        assert cold.count(b"\n") == lines
        assert cold == (tmp_path / "warm" / name).read_bytes()


# Small instances of every kind: each circle kind under every weight.kind,
# the pressure check under both observable forms, and both interval examples.
CIRCLE = "resolution = 16\nmap.sin = 0.1\nparam_box = 0.5\nu0 = 0.1\n"
CIRCLE_EXTRA = {
    "spectrum": "",
    "solve": "",
    "response": "",
    "taylor-check": "deltas = 0.0625 0.03125 0.015625\n",
    "hoelder-scan": "deltas = 0.25 0.125 0.0625\nenforce_gamma = false\n",
    "pressure-check": "observable.sin = 0.3\n",
}
WEIGHTS = (
    "weight.kind = geometric\n",
    "weight.kind = constant\nweight.value = 0.5\n",
    "weight.kind = exp-scaled\nweight.value = 0.5\nweight.rate = 1.0\n",
    "weight.kind = trig\nweight.const = 0.5\nweight.sin = 0.1\nweight.cos = 0.05\n",
)
SMALL_CONFIGS = [
    (kind, f"kind = {kind}\n" + CIRCLE + weight + extra)
    for kind, extra in CIRCLE_EXTRA.items() for weight in WEIGHTS
] + [
    ("pressure-check", "kind = pressure-check\n" + CIRCLE + "observable.count = 2\n"),
    ("example-composition",
     EXAMPLE_COMPOSITION.replace("interval_resolution = 65", "interval_resolution = 33")
     .replace("samples = 4", "samples = 2")),
    ("example-affine",
     EXAMPLE_AFFINE.replace("interval_resolution = 65", "interval_resolution = 33")
     + "deltas = 0.0625 0.03125 0.015625 0.0078125\n"),
]


def test_every_kind_exits_0_and_prints_its_declared_metrics(tmp_path, capsys):
    first = {}
    for kind, text in SMALL_CONFIGS:
        first.setdefault(kind, text)
    assert sorted(first) == sorted(EXPERIMENTS)
    for kind, text in first.items():
        assert run_cli(tmp_path, text, out=kind) == 0, kind
        printed = re.findall(r"^  (\w+) = ", capsys.readouterr().out, re.M)
        assert sorted(printed) == sorted(EXPERIMENTS[kind].metrics), kind
        assert not list((tmp_path / kind).glob("*.svg"))


# For each kind, a key that another kind reads and this one does not.
FOREIGN_KEY = {
    "spectrum": "alpha",
    "solve": "fd_delta",
    "response": "tolerance",
    "taylor-check": "enforce_gamma",
    "hoelder-scan": "fd_delta",
    "pressure-check": "direction",
    "example-composition": "deltas",
    "example-affine": "samples",
}


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
@pytest.mark.parametrize("foreign", [False, True], ids=["bogus", "foreign"])
def test_key_the_kind_does_not_read_exits_2_with_its_line(tmp_path, capsys, kind, foreign):
    key = FOREIGN_KEY[kind] if foreign else "bogus.key"
    text = dict(SMALL_CONFIGS)[kind] + f"{key} = 1\n"
    assert run_cli(tmp_path, text) == 2
    line = text.count("\n")
    assert (f"config error: key '{key}' is not read by kind '{kind}' (line {line})"
            in capsys.readouterr().err)


def test_config_seed_stays_valid_under_the_seed_flag(tmp_path):
    assert run_cli(tmp_path, SPECTRUM + "seed = 7\n", extra=("--seed", "3")) == 0
    assert load_config(tmp_path / "experiment.cfg", seed_override=3).seed == 3


def run_fresh_python(*args, check=True):
    """Run a fresh interpreter that imports circleresp from this checkout."""
    src = str(Path(circleresp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=60, check=check, env=env)


def test_parsing_a_config_imports_neither_cli_nor_reporting(tmp_path):
    (tmp_path / "valid.cfg").write_text(SPECTRUM, encoding="utf-8")
    (tmp_path / "unknown.cfg").write_text(SPECTRUM + "map.bogus = 1\n", encoding="utf-8")
    script = (
        "import sys\n"
        "import circleresp, circleresp.config\n"
        "for path in sys.argv[1:]:\n"
        "    circleresp.config.load_config(path)\n"
        "print(sorted(m for m in ('circleresp.cli', 'circleresp.reporting') if m in sys.modules))\n"
    )
    done = run_fresh_python("-c", script, tmp_path / "valid.cfg", tmp_path / "unknown.cfg")
    assert done.stdout.strip() == "[]"


def test_every_kind_through_python_m_loads_no_scipy(tmp_path):
    configs = [tmp_path / f"{i}.cfg" for i in range(len(SMALL_CONFIGS))]
    for path, (_, text) in zip(configs, SMALL_CONFIGS):
        path.write_text(text, encoding="utf-8")
    # each config as `python -m circleresp --config ... --out ...` would run it
    script = (
        "import runpy, sys\n"
        "out, configs = sys.argv[1], sys.argv[2:]\n"
        "for config in configs:\n"
        "    sys.argv = ['circleresp', '--config', config, '--out', out]\n"
        "    try:\n"
        "        runpy.run_module('circleresp', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as done:\n"
        "        if done.code != 0:\n"
        "            raise\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = run_fresh_python("-c", script, tmp_path / "out", *configs)
    assert len(re.findall(r"^experiment: ", done.stdout, re.M)) == len(configs) == 27
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_scipy_names_of_spaces_are_scipys_objects():
    import scipy.interpolate

    assert spaces.CubicSpline is scipy.interpolate.CubicSpline
    for name in ("dgttrf", "dgttrs", "dgtsv"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(spaces, name)


def test_patch_before_the_first_grid_is_seen_by_its_build():
    # one band build per grid, from the name the module holds, with no SciPy import
    script = (
        "import sys\n"
        "from circleresp import spaces\n"
        "calls = []\n"
        "building = spaces._end_block\n"
        "def counting(m):\n"
        "    calls.append(m)\n"
        "    return building(m)\n"
        "spaces._end_block = counting\n"
        "spaces._spline_grid(8)\n"
        "spaces._spline_grid(8)\n"
        "grid = spaces._spline_grid(8)\n"
        "print(calls, grid.end.flags.writeable,\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh_python("-c", script).stdout.strip() == "[8] False []"


def test_python_m_with_a_missing_config_exits_2(tmp_path):
    done = run_fresh_python("-m", "circleresp", "--config", tmp_path / "missing.cfg",
                            "--out", tmp_path / "out", check=False)
    assert done.returncode == 2
    assert "config error: config file not found" in done.stderr
