"""Exit-code contract and output stability of the command-line front end."""

import pytest

from circleresp import NotExpandingError, NumericsError, spaces
from circleresp.cli import main

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


def run_cli(tmp_path, text, out="out"):
    config = tmp_path / "experiment.cfg"
    config.write_text(text, encoding="utf-8")
    return main(["--config", str(config), "--out", str(tmp_path / out)])


def test_passing_check_exits_0(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.phi_min = ge 0.0\n") == 0
    assert "PASS phi_min >= 0" in capsys.readouterr().out
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_failing_check_exits_1(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.phi_min = le -1.0\n") == 1
    assert "FAIL phi_min <= -1" in capsys.readouterr().out


def test_unknown_key_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "# a comment\nmap.bogus = 1\n") == 2
    err = capsys.readouterr().err
    assert "unknown key 'map.bogus'" in err
    assert "(line 6)" in err


def test_unknown_check_metric_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, SPECTRUM + "check.slope = le 1.0\n") == 2
    err = capsys.readouterr().err
    assert "unknown metric 'slope'" in err
    assert "(line 5)" in err


def test_map_that_does_not_expand_exits_3(tmp_path, capsys):
    assert issubclass(NotExpandingError, NumericsError)
    text = SPECTRUM.replace("map.sin = 0.1", "map.sin = 2.0")
    assert run_cli(tmp_path, text) == 3
    assert "numerical failure in 'spectrum'" in capsys.readouterr().err


def test_hoelder_scan_csv_is_byte_identical_across_runs(tmp_path):
    assert run_cli(tmp_path, HOELDER_SCAN, out="first") == 0
    assert run_cli(tmp_path, HOELDER_SCAN, out="second") == 0
    first = (tmp_path / "first" / "hoelder.csv").read_bytes()
    assert first.count(b"\n") == 9  # header and the eight default deltas
    assert first == (tmp_path / "second" / "hoelder.csv").read_bytes()


def test_example_composition_csvs_are_byte_identical_cold_and_warm(tmp_path):
    spaces._SPLINE_GRID_MEMO.clear()  # the first run factors the grid's slope system
    assert run_cli(tmp_path, EXAMPLE_COMPOSITION, out="cold") == 0
    assert list(spaces._SPLINE_GRID_MEMO) == [(65, -1.0, 1.0)]
    assert run_cli(tmp_path, EXAMPLE_COMPOSITION, out="warm") == 0
    # header and three constraint rows; header and two direction rows
    for name, lines in (("composition_constraints.csv", 4),
                        ("composition_second_derivative.csv", 3)):
        cold = (tmp_path / "cold" / name).read_bytes()
        assert cold.count(b"\n") == lines
        assert cold == (tmp_path / "warm" / name).read_bytes()


@pytest.mark.parametrize("text", [EXAMPLE_COMPOSITION, EXAMPLE_AFFINE])
def test_interval_examples_build_no_scipy_spline(tmp_path, monkeypatch, text):
    builds = []
    scipy_spline = spaces.CubicSpline

    def counting(*args, **kwargs):
        builds.append(1)
        return scipy_spline(*args, **kwargs)

    monkeypatch.setattr(spaces, "CubicSpline", counting)
    assert run_cli(tmp_path, text) == 0
    assert builds == []
