"""Checks of the benchmark's own machinery: tracer bindings, counts and accounting.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
from pathlib import Path

import pytest
from scipy.interpolate import CubicSpline

import run
import tracer as tracer_module
import workloads
from circleresp import cli, config, fixed_point, spaces, transfer

BENCH = Path(__file__).resolve().parent

RESPONSE_CFG = """\
kind = response
seed = 7
resolution = 64
map.degree = 2
map.sin = 0.2
map.cos = 0.1
param_box = 0.7
weight.kind = geometric
u0 = 0.15
check.rel_c0_error = le 1e-4
"""


@pytest.fixture
def response_cfg(tmp_path):
    path = tmp_path / "response.cfg"
    path.write_text(RESPONSE_CFG, encoding="utf-8")
    return config.load_config(path)


def _bindings():
    return {
        "cli.assemble_operator": cli.assemble_operator,
        "cli.cr_norm": cli.cr_norm,
        "transfer.assemble_operator": transfer.assemble_operator,
        "transfer.interpolation_matrix": transfer.interpolation_matrix,
        "transfer.sup_norm": transfer.sup_norm,
        "spaces.interpolation_matrix": spaces.interpolation_matrix,
        "spaces.CubicSpline": spaces.CubicSpline,
        "solve_fixed_point.__defaults__": fixed_point.solve_fixed_point.__defaults__,
    }


def test_pinned_counts_for_one_response_experiment(response_cfg, tmp_path):
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # Every binding of one function object points at the same wrapper.
        assert cli.assemble_operator is transfer.assemble_operator
        assert cli.assemble_operator is not before["cli.assemble_operator"]
        assert transfer.interpolation_matrix is spaces.interpolation_matrix
        assert fixed_point.solve_fixed_point.__wrapped__.__defaults__[-1] is fixed_point.sup_norm
        tracer.experiment = "e1"
        report = cli.run_experiment(response_cfg, tmp_path / "out")
        tracer.experiment = None
    finally:
        tracer.restore()
    assert report.passed
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
    assert calls["transfer.assemble_operator"] == 5
    assert calls["transfer.inverse_branches"] == 7
    assert calls["transfer.d_u_operator"] == 2
    assert calls["transfer.spectral_data"] == 4
    assert calls["cli.run_experiment"] == 1
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert spaces.CubicSpline is CubicSpline


def test_self_times_add_up_to_the_root_span(response_cfg, tmp_path):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.experiment = "e1"
        cli.run_experiment(response_cfg, tmp_path / "out")
        tracer.experiment = None
    finally:
        tracer.restore()
    root = next(s for s in tracer.spans if s[0] == "cli.run_experiment")
    assert tracer.experiment_self_s()["e1"] == pytest.approx(root[2] - root[1], rel=1e-9)
    assert all(own >= 0.0 for own in tracer.self_times())


def test_unique_ratio_keys_on_content(response_cfg, tmp_path):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cli.run_experiment(response_cfg, tmp_path / "out")
    finally:
        tracer.restore()
    stats = tracer.summary()
    # base, +fd and -fd need three branch sets; the linear response and the
    # normalized map repeat the base point.
    assert tracer.unique_ratio("transfer.inverse_branches",
                               stats["transfer.inverse_branches"]["calls"]) == pytest.approx(3 / 7)


def test_generator_is_seeded_and_never_repeats_inputs():
    for workload in workloads.WORKLOADS.values():
        first = workloads.pass_experiments(workload, 3, workloads.TIMED_STREAM, 0)
        again = workloads.pass_experiments(workload, 3, workloads.TIMED_STREAM, 0)
        assert [e.text for e in first] == [e.text for e in again]
        drawn = [e for i in range(8)
                 for e in workloads.pass_experiments(workload, 3, workloads.TIMED_STREAM, i)]
        drawn += workloads.pass_experiments(workload, 3, workloads.WARMUP_STREAM, 0)
        assert len({e.identity for e in drawn}) == len(drawn)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER]


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 21)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 50.0
