"""Benchmark for circleresp: seeded experiment sweeps through the public CLI entry point.

Usage (from the repository root):

    python3 bench/run.py --workload response-1024 --seed 1 --seconds 15 --trace 0

One process runs one workload. It generates the workload's configs from
--seed (bench/workloads.py), times fresh interpreters that import circleresp
and parse them (setup_s), warms up on inputs outside the timed set, then
runs the timed passes one experiment after another through
``cli.run_experiment``: a closed loop with one client, as a researcher runs
one config at a time. Every experiment carries the accuracy checks of its
kind; an experiment fails when a check fails (CLI exit class 1) or it raises
NumericsError (exit class 3). Its CSVs are then verified.

With --trace 1 the run wraps the public functions of every layer
(bench/tracer.py) for half as many passes, reports per-layer metrics per
traced pass, then restores the library and repeats the same passes
untraced as the base of trace.overhead_ratio. Repeating the inputs keeps
the ratio free of input-to-input variation; circleresp keeps no results
from one experiment to the next, so the repeat does no less work.

A run does a fixed number of passes, ceil(seconds / nominal pass time), at
least enough for ten experiments beyond the tail percentile, so two commits
compared at the same --seconds time the same experiments. The last line of
standard output is one JSON object; the full record (environment, every
config, every timing) goes to .bench_out/<workload>[-trace]/record.json.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = min(2, NPROC)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # The BLAS thread count must be fixed before numpy is first imported.
    for _var in BLAS_VARS:
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
TAIL_BEYOND = 10
# Self times of an experiment must add up to its wall time within this share.
COVERAGE_TOLERANCE = 0.03

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("exp_p50_s", "s"),
    ("exp_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

KINDS = tuple(dict.fromkeys(k for w in workloads.WORKLOADS.values() for k in w.kinds))

# (metric, unit, better); each is a per-traced-pass figure unless a ratio.
PER_LAYER = (
    ("spaces.interpolation_matrix.calls", "count", "lower"),
    ("spaces.interpolation_matrix.self_s", "s", "lower"),
    ("spaces.interpolation_matrix.unique_ratio", "ratio", "higher"),
    ("spaces.interpolation_matrix.mb", "MB", "lower"),
    ("spaces.cr_norm.calls", "count", "lower"),
    ("spaces.cr_norm.s", "s", "lower"),
    ("spaces.interval_interpolation_matrix.self_s", "s", "lower"),
    ("spaces.spline_builds", "count", "lower"),
    ("transfer.inverse_branches.calls", "count", "lower"),
    ("transfer.inverse_branches.self_s", "s", "lower"),
    ("transfer.inverse_branches.unique_ratio", "ratio", "higher"),
    ("transfer.assemble_operator.calls", "count", "lower"),
    ("transfer.assemble_operator.self_s", "s", "lower"),
    ("transfer.assemble_operator.unique_ratio", "ratio", "higher"),
    ("transfer.d_u_operator.self_s", "s", "lower"),
    ("transfer.spectral_data.calls", "count", "lower"),
    ("transfer.spectral_data.self_s", "s", "lower"),
    ("transfer.linear_response.self_s", "s", "lower"),
    ("transfer.pressure_s_derivative.s", "s", "lower"),
    ("transfer.holder_scan_operator.s", "s", "lower"),
    ("fixed_point.solve_fixed_point.calls", "count", "lower"),
    ("fixed_point.solve_fixed_point.self_s", "s", "lower"),
    ("fixed_point.solve_fixed_point.iterations", "count", "lower"),
    ("fixed_point.fixed_point_derivative.self_s", "s", "lower"),
    ("fixed_point.taylor_residual_scan.s", "s", "lower"),
    ("fixed_point.fixed_point_second_derivative.s", "s", "lower"),
    ("model_maps.composition_constraint_suite.self_s", "s", "lower"),
    ("model_maps.composition_second_derivative_check.s", "s", "lower"),
    ("model_maps.affine_holder_experiment.s", "s", "lower"),
    *((f"cli.kind.{kind}.s", "s", "lower") for kind in KINDS),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("reporting.emit_csv.s", "s", "lower"),
    ("reporting.csv_bytes", "bytes", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_coverage_min", "ratio", "higher"),
)

# The fewest experiments with a percentile that has TAIL_BEYOND samples above it.
MIN_EXPERIMENTS = TAIL_BEYOND + 1


@dataclass
class Outcome:
    exp_id: str
    kind: str
    wall_s: float
    status: str  # ok | check-failed | numerics | bad-output
    detail: str = ""
    metrics: dict = field(default_factory=dict)


def import_library():
    """Import circleresp from this checkout's src/ and nowhere else."""
    if not (SRC / "circleresp" / "__init__.py").is_file():
        raise SystemExit(f"error: no circleresp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circleresp
    from circleresp import cli, config
    from circleresp.errors import NumericsError

    if not Path(circleresp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: circleresp imported from {circleresp.__file__}")
    # Modules, not functions: calls look the names up, so the tracer sees them.
    return cli, config, NumericsError


def environment(seed: int, workload) -> dict:
    import scipy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "resolution": workload.resolution,
    }


def measure_setup(cfg_dir: Path) -> list[float]:
    """Fresh interpreter start to `import circleresp` done and configs parsed."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def expected_csv_rows(cfg) -> dict:
    n = cfg.get_int("resolution", 64)
    return {
        "spectrum": {"spectrum.csv": n},
        "solve": {"solve.csv": n},
        "response": {"response.csv": n},
        "pressure-check": {"pressure.csv": cfg.get_int("observable.count", 1)},
        "taylor-check": {"taylor.csv": len(cfg.get_float_list("deltas"))},
        "hoelder-scan": {"hoelder.csv": len(cfg.get_float_list("deltas"))},
        "example-composition": {"composition_constraints.csv": 3,
                                "composition_second_derivative.csv": 2},
        "example-affine": {"affine_holder.csv": len(cfg.get_float_list("deltas"))},
    }[cfg.kind]


def verify_outputs(report, expected: dict) -> str:
    """Empty string when the CSVs are exactly the expected, finite tables."""
    names = sorted(Path(p).name for p in report.csv_paths)
    if names != sorted(expected):
        return f"csv files {names}, expected {sorted(expected)}"
    for path in report.csv_paths:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        if len(body) != expected[Path(path).name]:
            return f"{Path(path).name}: {len(body)} rows, expected {expected[Path(path).name]}"
        for row in body:
            if len(row) != len(header):
                return f"{Path(path).name}: ragged row {row}"
            if not all(math.isfinite(float(cell)) for cell in row[1:]):
                return f"{Path(path).name}: non-finite value in {row}"
    bad = [k for k, v in report.metrics.items() if math.isnan(v)]
    return f"NaN metrics {bad}" if bad else ""


def run_pass(lib, experiments, cfg_dir: Path, out_dir: Path, tracer=None):
    """Run one pass back to back; returns (pass wall time, outcomes)."""
    cli, config, numerics_error = lib
    cfgs = [config.load_config(cfg_dir / f"{exp.exp_id}.cfg") for exp in experiments]
    outcomes = []
    reports = []
    pass_start = time.perf_counter()
    for exp, cfg in zip(experiments, cfgs):
        if tracer is not None:
            tracer.experiment = exp.exp_id
        start = time.perf_counter()
        try:
            report = cli.run_experiment(cfg, out_dir / exp.exp_id)
            wall = time.perf_counter() - start
            status, detail = "ok", ""
            if not report.passed:
                status = "check-failed"
                detail = "; ".join(f"{c.spec.describe()} [actual {c.actual:.6g}]"
                                   for c in report.checks if not c.passed)
        except numerics_error as exc:
            wall = time.perf_counter() - start
            report, status, detail = None, "numerics", f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.experiment = None
        outcomes.append(Outcome(exp.exp_id, exp.kind, wall, status, detail,
                                dict(report.metrics) if report else {}))
        reports.append(report)
    pass_wall = time.perf_counter() - pass_start
    for cfg, report, outcome in zip(cfgs, reports, outcomes):
        if outcome.status == "ok":
            problem = verify_outputs(report, expected_csv_rows(cfg))
            if problem:
                outcome.status, outcome.detail = "bad-output", problem
    return pass_wall, outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the nearest-rank percentile
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], passes: int,
                  overhead_ratio: float) -> dict:
    stats = tracer.summary()
    selfs = tracer.self_times()
    kind_of = {o.exp_id: o.kind for o in outcomes}
    kind_s = {kind: 0.0 for kind in KINDS}
    layer_s = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(tracer.spans, selfs):
        layer_s[span[0].split(".", 1)[0]] += own
        if span[0] == "cli.run_experiment" and span[4] in kind_of:
            kind_s[kind_of[span[4]]] += span[2] - span[1]
    own = tracer.experiment_self_s()
    coverage = min(own[o.exp_id] / o.wall_s for o in outcomes)
    values = {
        "spaces.interpolation_matrix.mb":
            tracer.counters["spaces.interpolation_matrix.bytes"] / 1e6 / passes,
        "spaces.spline_builds": tracer.counters["spaces.spline_builds"] / passes,
        "fixed_point.solve_fixed_point.iterations":
            tracer.counters["fixed_point.solve_fixed_point.iterations"] / passes,
        "reporting.csv_bytes": tracer.counters["reporting.csv_bytes"] / passes,
        "trace.overhead_ratio": overhead_ratio,
        "trace.self_coverage_min": coverage,
    }
    values.update({f"cli.kind.{kind}.s": s / passes for kind, s in kind_s.items()})
    values.update({f"{layer}.self_s": s / passes for layer, s in layer_s.items()})
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        function, stat = name.rsplit(".", 1)
        entry = stats.get(function, {"calls": 0, "self_s": 0.0, "s": 0.0})
        if stat == "unique_ratio":
            values[name] = tracer.unique_ratio(function, entry["calls"])
        else:
            values[name] = entry[stat] / passes
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def pass_count(workload, seconds: float) -> int:
    return max(math.ceil(seconds / workload.nominal_pass_s),
               math.ceil(MIN_EXPERIMENTS / len(workload.kinds)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg_dir = out_dir / "configs"
    cfg_dir.mkdir(parents=True)

    passes = pass_count(workload, args.seconds)
    traced_indices = range(math.ceil(passes / 2)) if args.trace else range(0)
    untraced_indices = traced_indices if args.trace else range(passes)
    timed = {i: workloads.pass_experiments(workload, args.seed, workloads.TIMED_STREAM, i)
             for i in untraced_indices}
    # One pass outside the timed set loads every code path, on grids near n = 64.
    warmup = workloads.pass_experiments(workload, args.seed, workloads.WARMUP_STREAM, 0, 64)
    everything = [exp for group in timed.values() for exp in group] + warmup
    if len({exp.identity for exp in everything}) != len(everything):
        raise RuntimeError("generated inputs repeat a (map, weight, u0) triple")
    for exp in everything:
        (cfg_dir / f"{exp.exp_id}.cfg").write_text(exp.text, encoding="utf-8")

    setup_samples = [] if args.trace else measure_setup(cfg_dir)

    _, warm_outcomes = run_pass(lib, warmup, cfg_dir, out_dir / "warmup")
    traced_walls, traced_outcomes = [], []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            for i in traced_indices:
                wall, got = run_pass(lib, timed[i], cfg_dir, out_dir / "traced", tracer)
                traced_walls.append(wall)
                traced_outcomes += got
        finally:
            tracer.restore()
        tracer.write_spans(out_dir / "spans.jsonl")

    pass_walls, outcomes = [], []
    for i in untraced_indices:
        wall, got = run_pass(lib, timed[i], cfg_dir, out_dir / "out")
        pass_walls.append(wall)
        outcomes += got

    all_outcomes = traced_outcomes + outcomes
    attempted = len(all_outcomes)
    failed = sum(o.status != "ok" for o in all_outcomes)
    walls = [o.wall_s for o in outcomes]
    details = {"passes": len(pass_walls), "experiments": len(walls),
               "fail_ratio": failed / attempted}
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(pass_walls) - 1.0
        metrics = layer_metrics(tracer, traced_outcomes, len(traced_walls), overhead)
        coverage_ok = metrics["trace.self_coverage_min"]["value"] >= 1.0 - COVERAGE_TOLERANCE
        details.update(traced_passes=len(traced_walls), spans=len(tracer.spans),
                       coverage_ok=coverage_ok)
        correct = failed == 0 and coverage_ok
    else:
        tail_value, tail_pct = tail(walls)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(pass_walls),
            "exp_p50_s": statistics.median(walls),
            "exp_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
        details.update(setup_samples=setup_samples, tail_percentile=tail_pct,
                       tail_samples_beyond=TAIL_BEYOND)
        correct = failed == 0

    record = {
        "workload": workload.name,
        "args": vars(args),
        "environment": environment(args.seed, workload),
        "details": details,
        "pass_walls": pass_walls,
        "traced_pass_walls": traced_walls,
        "metrics": metrics,
        "outcomes": [asdict(o) for o in all_outcomes],
        "warmup": [asdict(o) for o in warm_outcomes],
        "configs": {exp.exp_id: exp.text for exp in everything},
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"workload {workload.name}  seed {args.seed}  passes {len(pass_walls)}"
          f"{f' + {len(traced_walls)} traced' if args.trace else ''}"
          f"  experiments {attempted}  blas threads {env['blas_threads']} of nproc {env['nproc']}"
          f"  ({env['blas']}, numpy {env['numpy']}, scipy {env['scipy']})")
    for name, entry in metrics.items():
        print(f"  {name:50s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  exp_tail_s is p{tail_pct:.1f} of {len(walls)} experiments "
              f"({TAIL_BEYOND} beyond); setup_s is the median of {SETUP_PROBES} interpreters")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for o in all_outcomes:
        if o.status != "ok":
            print(f"  FAILED {o.exp_id}: {o.status} {o.detail}")
    print(f"  record: {out_dir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
