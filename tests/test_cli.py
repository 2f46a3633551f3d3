"""Exit-code contract, experiment registry and output stability of the command-line front end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circleresp
from circleresp import NotExpandingError, NumericsError, spaces
from circleresp.cli import EXPERIMENTS, main
from circleresp.config import ExperimentConfig, load_config

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


def test_unknown_kind_exits_2_with_its_line(tmp_path, capsys):
    assert run_cli(tmp_path, "# a comment\n" + SPECTRUM.replace("spectrum", "spectra")) == 2
    err = capsys.readouterr().err
    assert "unknown kind 'spectra'" in err
    assert "(line 2)" in err


@pytest.mark.parametrize("text", [
    SPECTRUM + "u0 = abc\n",
    SPECTRUM + "weight.kind = bogus\n",
    SPECTRUM + "weight.kind = constant\nweight.value = -1\n",
    SPECTRUM + "weight.kind = exp-scaled\nweight.value = -1\n",
    SPECTRUM + "weight.kind = trig\nweight.const = 0.1\nweight.sin = 0.5\n",
    EXAMPLE_AFFINE.replace("regularity = holder", "regularity = smooth"),
    EXAMPLE_AFFINE + "epsilon = 2.0\n",
])
def test_config_error_found_while_running_exits_2(tmp_path, capsys, text):
    assert run_cli(tmp_path, text) == 2
    assert "config error:" in capsys.readouterr().err


def test_keys_no_runner_reads_exit_2(tmp_path, capsys):
    taylor = SPECTRUM.replace("spectrum", "taylor-check") + "alpha = 0.9\n"
    assert run_cli(tmp_path, taylor) == 2
    assert "unknown key 'alpha' for kind 'taylor-check'" in capsys.readouterr().err
    for text in (EXAMPLE_COMPOSITION, EXAMPLE_AFFINE):
        assert run_cli(tmp_path, text, extra=("--resolution", "4096")) == 2
        assert "unknown key 'resolution'" in capsys.readouterr().err


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


def test_runners_read_exactly_their_declared_keys(tmp_path, monkeypatch):
    configs = []
    for i, (_, text) in enumerate(SMALL_CONFIGS):
        path = tmp_path / f"{i}.cfg"
        path.write_text(text, encoding="utf-8")
        configs.append(load_config(path))
    read = {kind: set() for kind in EXPERIMENTS}
    raw = ExperimentConfig._raw

    def recording(self, key):
        read[self.kind].add(key)
        return raw(self, key)

    monkeypatch.setattr(ExperimentConfig, "_raw", recording)
    for cfg in configs:
        EXPERIMENTS[cfg.kind].run(cfg)
    for kind, experiment in EXPERIMENTS.items():
        assert read[kind] == experiment.keys - {"kind", "seed"}, kind


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
    src = str(Path(circleresp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "valid.cfg"), str(tmp_path / "unknown.cfg")],
        capture_output=True, text=True, timeout=60, check=True, env=env,
    )
    assert done.stdout.strip() == "[]"
