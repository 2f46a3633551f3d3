"""Exit-code contract and output stability of the command-line front end."""

from circleresp import NotExpandingError, NumericsError
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
