"""Command-line front end: config-driven experiments with CSV reports.

Every experiment kind is declared once, in ``EXPERIMENTS``: the metrics it
publishes and its runner.  A key is valid iff its kind's runner reads it:
each runner reads and checks its keys, then calls ``cfg.refuse_unread()``
before its first numerics.

Exit status contract: 0 when every configured assertion passes, 1 when some
assertion fails, 2 on configuration errors, 3 on numerical failures
(no spectral gap, singular system, missing contraction, ...).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .config import CheckSpec, ExperimentConfig, load_config
from .errors import ConfigError, NumericsError
from .fixed_point import fixed_point_derivative, solve_fixed_point, taylor_residual_scan
from .model_maps import (
    AffineMapConfig,
    CompositionMapConfig,
    affine_holder_experiment,
    composition_constraint_suite,
    composition_second_derivative_check,
)
from .reporting import emit_csv
from .spaces import TrigSeries, circle_nodes, cr_norm
from .transfer import (
    assemble_operator,
    check_expanding,
    constant_weight,
    exp_scaled_weight,
    geometric_weight,
    holder_scan_operator,
    linear_response,
    normalized_map,
    pressure_s_derivatives,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
)


@dataclass(frozen=True)
class CheckResult:
    spec: CheckSpec
    actual: float
    passed: bool


@dataclass
class RunReport:
    kind: str
    config_path: str
    metrics: dict
    checks: list[CheckResult]
    csv_paths: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Experiment:
    """Declaration of one experiment kind.

    ``metrics`` are the names its runner publishes, and ``run(cfg)``, which
    reads the keys the kind accepts, returns ``(metrics, csvs)`` with each
    csv a ``(filename, schema, rows)`` triple.
    """

    metrics: tuple
    run: Callable[[ExperimentConfig], tuple]


EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(kind: str, metrics: tuple):
    """Declare the decorated runner as experiment ``kind`` in EXPERIMENTS."""

    def declare(run):
        EXPERIMENTS[kind] = Experiment(metrics, run)
        return run

    return declare


# ---------------------------------------------------------------------------
# experiment construction helpers
# ---------------------------------------------------------------------------

@contextmanager
def _at_line_of(cfg: ExperimentConfig, *keys: str):
    """Re-raise a ValueError or line-less ConfigError at the first set and read key of ``keys``.

    The keys are taken in the order given, so the caller names the likeliest culprit first.
    """
    try:
        yield
    except (ValueError, ConfigError) as exc:
        if getattr(exc, "line", None) is not None:
            raise
        line = next((cfg.values[key][1] for key in keys
                     if key in cfg.values and key in cfg.read), None)
        raise ConfigError(str(exc), line=line) from exc


def _weight_from(cfg: ExperimentConfig, family):
    kind = cfg.get_str("weight.kind", "geometric")
    if kind == "geometric":
        return geometric_weight(family)
    if kind == "constant":
        return constant_weight(cfg.get_float("weight.value", 1.0 / family.degree))
    if kind == "exp-scaled":
        return exp_scaled_weight(
            base=cfg.get_float("weight.value", 0.5), rate=cfg.get_float("weight.rate", 1.0)
        )
    if kind == "trig":
        return trig_weight(
            cfg.get_float("weight.const", 0.5),
            cfg.get_float_list("weight.sin", ()),
            cfg.get_float_list("weight.cos", ()),
        )
    raise ConfigError(f"unknown weight.kind {kind!r}", line=cfg.values["weight.kind"][1])


def _resolution(cfg: ExperimentConfig) -> int:
    n = cfg.get_int("resolution", 64)
    if n < 8 or n % 2 != 0:
        raise ConfigError(f"resolution must be an even integer >= 8, got {n}",
                          line=cfg.values["resolution"][1])
    return n


def _circle_setup(cfg: ExperimentConfig, steps: dict):
    """(n, family, weight, u0) of a circle-map experiment; n defaults to 64.

    Every key is parsed and checked before the first numerics, the check that
    the map expands on [-param_box, param_box]; each runner parses its own
    keys first, and the unread ones are refused.  u0 and u0 + each offset in
    ``steps``, a dict from the key to the offsets it makes the kind evaluate,
    must lie in that box.
    """
    n = _resolution(cfg)
    family = trig_perturbed_family(
        degree=cfg.get_int("map.degree", 2),
        sin_coeffs=cfg.get_float_list("map.sin", ()),
        cos_coeffs=cfg.get_float_list("map.cos", ()),
        kink_exponent=cfg.get_float("map.kink_exponent", None),
    )
    with _at_line_of(cfg, "weight.value", "weight.const", "weight.sin", "weight.cos"):
        weight = _weight_from(cfg, family)
    u0 = cfg.get_float("u0", 0.0)
    box = cfg.get_float("param_box", 0.5)
    if box <= 0.0:
        raise ConfigError(f"key 'param_box' must be finite and > 0, got {box}",
                          line=cfg.values["param_box"][1])
    for key, u in (("u0", u0), *((k, u0 + s) for k, offsets in steps.items() for s in offsets)):
        if not abs(u) <= box:  # the defaults stay inside, so one of these keys is set
            culprits = (key, "direction", "u0", "param_box")
            raise ConfigError(f"key '{key}': parameter u = {u:g} lies outside [-param_box, "
                              f"param_box] = [{-box:g}, {box:g}]",
                              line=next(cfg.values[k][1] for k in culprits if k in cfg.values))
    cfg.refuse_unread()
    check_expanding(family, np.linspace(-box, box, 9))
    return n, family, weight, u0


def _direction(cfg: ExperimentConfig) -> float:
    """The direction h of u: non-zero and finite, or every metric that reads it is vacuous."""
    h = cfg.get_float("direction", 1.0)
    if h == 0.0:
        raise ConfigError(f"key 'direction' must be non-zero and finite, got {h}",
                          line=cfg.values["direction"][1])
    return h


def _deltas(cfg: ExperimentConfig, default) -> list[float]:
    """The step ladder ``deltas``: a fit needs at least two distinct positive steps."""
    deltas = cfg.get_float_list("deltas", default)
    if len({d for d in deltas if d > 0.0}) < 2:
        raise ConfigError(f"key 'deltas' needs two distinct positive values, got {deltas}",
                          line=cfg.values["deltas"][1])
    return deltas


def _positive(cfg: ExperimentConfig, key: str, default: float) -> float:
    """The number ``key``, which must be positive."""
    value = cfg.get_float(key, default)
    if value <= 0.0:
        raise ConfigError(f"key '{key}' must be positive, got {value:g}", line=cfg.values[key][1])
    return value


def _count(cfg: ExperimentConfig, key: str, default: int, least: int) -> int:
    """The integer ``key``, at least ``least``: a smaller count would make its checks vacuous."""
    count = cfg.get_int(key, default)
    if count < least:
        raise ConfigError(f"key '{key}' must be at least {least}, got {count}",
                          line=cfg.values[key][1])
    return count


# ---------------------------------------------------------------------------
# runners, each under its declaration
# ---------------------------------------------------------------------------


@_experiment("spectrum",
             ("lambda", "sigma", "sigma_power", "eigen_residual", "phi_min", "phi_const_dev",
              "ell_lebesgue_dev"))
def _run_spectrum(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg, {})
    data = spectral_data(assemble_operator(family, weight, u0, n))
    phi, wts = data.phi, data.ell
    xs = circle_nodes(n)
    # phi has integral 1, so phi_const_dev is the sup distance of phi from
    # the uniform density, and ell_lebesgue_dev that of ell from the Lebesgue
    # weights 1/n, which a geometric weight's ell is up to rounding.  sigma is
    # the gap bound in the diagonal norm fitted to R/lambda at the power
    # sigma_power, the first of 1, 2, 4, ..., 32 that certifies.
    metrics = {
        "lambda": data.lam,
        "sigma": data.sigma_estimate,
        "sigma_power": float(data.sigma_power),
        "eigen_residual": data.eigen_residual,
        "phi_min": float(np.min(phi)),
        "phi_const_dev": float(np.max(np.abs(phi - 1.0))),
        "ell_lebesgue_dev": float(np.max(np.abs(wts - 1.0 / n))),
    }
    rows = [(j, xs[j], phi[j], wts[j]) for j in range(n)]
    csvs = [("spectrum.csv", ("node", "x", "phi", "ell_weight"), rows)]
    return metrics, csvs


@_experiment("solve", ("residual", "iterations", "contraction_estimate"))
def _run_solve(cfg: ExperimentConfig):
    tol = _positive(cfg, "tolerance", 1e-12)
    n, family, weight, u0 = _circle_setup(cfg, {})
    base = spectral_data(assemble_operator(family, weight, u0, n))
    fmap = normalized_map(family, weight, base.ell, n)
    result = solve_fixed_point(fmap, [u0], np.ones(n), tol=tol)
    xs = circle_nodes(n)
    metrics = {
        "residual": result.residual,
        "iterations": float(result.iterations),
        "contraction_estimate": result.contraction_estimate,
    }
    rows = [(j, xs[j], result.phi_star[j]) for j in range(n)]
    csvs = [("solve.csv", ("node", "x", "phi"), rows)]
    return metrics, csvs


def _fixed_point_route(family, weight, ell, phi0, u0, h, n: int) -> np.ndarray:
    """(Id - Q0)^-1 P0 h of the map normalized by ell, at its fixed point phi0.

    One checked Krylov solve on products of Q0, from a system assembled apart
    from :func:`linear_response`'s, so that the two routes check each other.
    """
    fmap = normalized_map(family, weight, ell, n)
    p0 = fmap.p_product([u0], phi0)
    q0 = fmap.q_product([u0], phi0)
    return fixed_point_derivative(p0, q0, [h])


@_experiment("response",
             ("lambda", "max_abs_diff", "rel_c0_error", "route_equiv_dev", "ell_pairing_dev"))
def _run_response(cfg: ExperimentConfig):
    """The linear response phi' at u0 along ``direction``, against two routes.

    ``max_abs_diff`` and ``rel_c0_error`` compare it with the central
    difference of phi at u0 +- ``fd_delta``.  At the default fd_delta = 1e-4
    they read about 1e-9 relative or less, and there the rounding of the two
    power iterations (which stop at an increment of 1e-13, divided by
    2 fd_delta) is as large as the truncation of the difference (order
    fd_delta^2) or larger: they bound the response's error but do not
    resolve it, and a change of rounding moves them.  ``route_equiv_dev``
    compares it with the fixed-point route (Id - Q0)^-1 P0 h, and
    ``ell_pairing_dev`` is |<ell, phi'>|, which vanishes analytically.
    """
    h = _direction(cfg)
    fd_delta = _positive(cfg, "fd_delta", 1e-4)
    n, family, weight, u0 = _circle_setup(cfg, {"fd_delta": (fd_delta * h, -fd_delta * h)})

    # Everything at u0 first, so its branch set is built once.
    with _at_line_of(cfg, "map.kink_exponent"):  # a kinked family has no u-derivative
        response = linear_response(family, weight, u0, h, n).phi_dot
    base = spectral_data(assemble_operator(family, weight, u0, n))
    lam, ell, phi0 = base.lam, base.ell, base.phi
    alt = _fixed_point_route(family, weight, ell, phi0, u0, h, n)
    plus = spectral_data(assemble_operator(family, weight, u0 + fd_delta * h, n), ell_ref=ell).phi
    minus = spectral_data(assemble_operator(family, weight, u0 - fd_delta * h, n), ell_ref=ell).phi
    fd = (plus - minus) / (2.0 * fd_delta)

    xs = circle_nodes(n)
    diff = np.abs(response - fd)
    metrics = {
        "lambda": lam,
        "max_abs_diff": float(np.max(diff)),
        "rel_c0_error": float(np.max(diff) / max(np.max(np.abs(response)), 1e-300)),
        "route_equiv_dev": float(np.max(np.abs(response - alt))),
        "ell_pairing_dev": abs(float(ell @ response)),
    }
    rows = [(j, xs[j], response[j], fd[j], diff[j]) for j in range(n)]
    csvs = [("response.csv", ("node", "x", "response", "fd_value", "abs_diff"), rows)]
    return metrics, csvs


@_experiment("taylor-check",
             ("fitted_order", "n_points", "max_normalized_residual"))
def _run_taylor(cfg: ExperimentConfig):
    beta = cfg.get_float("beta", 0.3)
    deltas = _deltas(cfg, [2.0**-k for k in range(4, 13)])
    direction = _direction(cfg)
    seed = cfg.seed
    n, family, weight, u0 = _circle_setup(cfg, {"deltas": [d * direction for d in deltas]})

    base = spectral_data(assemble_operator(family, weight, u0, n))
    fmap = normalized_map(family, weight, base.ell, n)
    phi0 = base.phi

    def coarse_norm(vs):
        with _at_line_of(cfg, "beta"):
            return cr_norm(vs, beta, seed=seed)

    with _at_line_of(cfg, "map.kink_exponent"):  # a kinked family has no u-derivative
        p0 = fmap.p_product([u0], phi0)
    report = taylor_residual_scan(
        fmap, [u0], phi0, p0, fmap.q_product([u0], phi0), [direction], deltas, coarse_norm,
    )
    metrics = {
        "fitted_order": report.fitted_order,
        "n_points": float(report.n_points),
        "max_normalized_residual": max(r.normalized_residual for r in report.rows),
    }
    rows = [
        (deltas[i], r.h_norm, r.z_norm, r.residual_norm, r.normalized_residual)
        for i, r in enumerate(report.rows)
    ]
    csvs = [("taylor.csv",
             ("delta", "h_norm", "z_norm", "residual", "normalized_residual"), rows)]
    return metrics, csvs


@_experiment("hoelder-scan", ("op_slope", "fp_slope", "gamma"))
def _run_hoelder(cfg: ExperimentConfig):
    alpha = cfg.get_float("alpha", 0.9)
    beta = cfg.get_float("beta", 0.1)
    deltas = _deltas(cfg, [2.0**-k for k in range(2, 10)])
    enforce = cfg.get_bool("enforce_gamma", True)
    direction = _direction(cfg)
    n, family, weight, u0 = _circle_setup(cfg, {"deltas": [d * direction for d in deltas]})
    with _at_line_of(cfg, "alpha", "beta"):
        report = holder_scan_operator(
            family, weight, u0, direction, deltas, alpha, beta, n,
            seed=cfg.seed, enforce_gamma=enforce,
        )
    metrics = {
        "op_slope": report.operator_slope,
        "fp_slope": report.fixed_point_slope,
        "gamma": report.gamma,
    }
    rows = [(r.delta, r.operator_diff, r.fixed_point_diff) for r in report.rows]
    csvs = [("hoelder.csv", ("delta", "operator_diff", "fixed_point_diff"), rows)]
    return metrics, csvs


def _pressure_observables(cfg: ExperimentConfig, n: int) -> list[TrigSeries]:
    """The observables of a pressure check: ``observable.count`` seeded draws, or the keys' series.

    A draw has modes 1..3 with coefficients c/m, c standard normal.  A key's
    non-zero coefficient at a mode that n nodes do not resolve, a sine at
    m >= n/2 or a cosine at m > n/2, is a config error at its line: at the
    nodes that mode reads as a lower one, so the Gibbs expectation would be
    that of another observable.
    """
    count = _count(cfg, "observable.count", 0, 0)
    if count:
        rng = np.random.default_rng(cfg.seed)
        modes = np.arange(1, 4)
        draws = [rng.standard_normal(6) for _ in range(count)]
        return [TrigSeries(0.0, c[0::2] / modes, c[1::2] / modes) for c in draws]
    const = cfg.get_float("observable.const", 0.0)
    sin_c = cfg.get_float_list("observable.sin", ())
    cos_c = cfg.get_float_list("observable.cos", ())
    for key, coeffs, top, name in (("observable.sin", sin_c, n // 2 - 1, "sine"),
                                   ("observable.cos", cos_c, n // 2, "cosine")):
        high = [m for m, c in enumerate(coeffs, start=1) if m > top and c != 0.0]
        if high:
            raise ConfigError(f"key '{key}': mode {high[0]} is not resolved by {n} nodes, "
                              f"which resolve {name} modes up to {top}",
                              line=cfg.values[key][1])
    return [TrigSeries(const, sin_c, cos_c)]


@_experiment("pressure-check", ("max_rel_diff", "n_observables"))
def _run_pressure(cfg: ExperimentConfig):
    """Each observable's pressure derivative d/ds log lambda against its Gibbs expectation.

    ``s_derivative`` is <ell, L_A phi> / lambda, from the base decomposition
    alone, and ``gibbs_expectation`` is <ell, A phi> at the nodes.  They are
    equal analytically, so ``rel_diff`` is the consistency of the
    discretization: the interpolation error of A phi at the branch points,
    at rounding level once n resolves A phi (n = 64 on the benchmark's
    families) and larger below.
    """
    observables = _pressure_observables(cfg, _resolution(cfg))
    n, family, weight, u0 = _circle_setup(cfg, {})
    rows = []
    worst = 0.0
    pairs = pressure_s_derivatives(family, weight, u0, observables, n)
    for index, (derivative, expectation) in enumerate(pairs):
        rel = abs(derivative - expectation) / max(1.0, abs(expectation))
        worst = max(worst, rel)
        rows.append((index, derivative, expectation, rel))
    metrics = {"max_rel_diff": worst, "n_observables": float(len(observables))}
    csvs = [("pressure.csv",
             ("observable", "s_derivative", "gibbs_expectation", "rel_diff"), rows)]
    return metrics, csvs


@_experiment("example-composition",
             ("ball_max", "ball_violations", "contraction_max", "contraction_violations",
              "q_norm_max", "q_norm_violations", "second_abs_constant", "second_rel_linear"))
def _run_example_composition(cfg: ExperimentConfig):
    ccfg = CompositionMapConfig(
        radius=cfg.get_float("radius", 0.5),
        param_radius=cfg.get_float("param_radius", 0.2),
        resolution=_count(cfg, "interval_resolution", 257, 8),
    )
    n_samples = _count(cfg, "samples", 100, 1)
    fd_delta = _positive(cfg, "fd_delta", 1e-2)
    cfg.refuse_unread()
    with _at_line_of(cfg, "radius", "param_radius"):
        suite = composition_constraint_suite(ccfg, n_samples=n_samples, seed=cfg.seed)
    with _at_line_of(cfg, "fd_delta", "param_radius"):
        second = composition_second_derivative_check(ccfg, fd_delta=fd_delta)
    by_label = {row.label: row for row in second}
    metrics = {
        "ball_max": suite.ball_max,
        "ball_violations": float(suite.ball_violations),
        "contraction_max": suite.contraction_max,
        "contraction_violations": float(suite.contraction_violations),
        "q_norm_max": suite.q_norm_max,
        "q_norm_violations": float(suite.q_norm_violations),
        "second_abs_constant": by_label["constant"].abs_error,
        "second_rel_linear": by_label["linear"].rel_error,
    }
    rows = [
        ("ball_norm", suite.ball_max, suite.ball_bound),
        ("contraction_ratio", suite.contraction_max, suite.contraction_bound),
        ("q_norm", suite.q_norm_max, suite.q_norm_bound),
    ]
    second_rows = [(r.label, r.engine_sup, r.fd_sup, r.abs_error, r.rel_error)
                   for r in second]
    csvs = [
        ("composition_constraints.csv", ("quantity", "observed_max", "bound"), rows),
        ("composition_second_derivative.csv",
         ("direction", "engine_sup", "fd_sup", "abs_error", "rel_error"), second_rows),
    ]
    return metrics, csvs


@_experiment("example-affine", ("slope", "n_points"))
def _run_example_affine(cfg: ExperimentConfig):
    regularity = cfg.get_str("regularity", "holder")
    epsilon = cfg.get_float("epsilon", 0.15)
    m = _count(cfg, "interval_resolution", 257, 8)
    deltas = _deltas(cfg, [2.0**-k for k in range(4, 12)])
    if regularity == "holder":
        exponent = cfg.get_float("exponent", 0.5)

        def g(t, u):
            return abs(u) ** exponent * np.cos(t)
    elif regularity == "lipschitz":
        exponent = 1.0

        def g(t, u):
            return 0.35 * u * np.cos(t)
    else:
        raise ConfigError(f"unknown regularity {regularity!r}",
                          line=cfg.values["regularity"][1])
    cfg.refuse_unread()
    # the exponent and epsilon are checked one at a time, so each error names its own line
    with _at_line_of(cfg, "exponent"):
        acfg = AffineMapConfig(g, regularity, holder_exponent=exponent, resolution=m)
    with _at_line_of(cfg, "epsilon"):
        acfg = replace(acfg, epsilon=epsilon)
    with _at_line_of(cfg, "exponent", "epsilon"):
        acfg.validate_forcing_ball(seed=cfg.seed)
    report = affine_holder_experiment(acfg, deltas)
    metrics = {"slope": report.slope, "n_points": float(report.n_points)}
    rows = [(r.delta, r.distance) for r in report.rows]
    csvs = [("affine_holder.csv", ("delta", "c0_distance"), rows)]
    return metrics, csvs


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _validate(cfg: ExperimentConfig) -> Experiment:
    """The declaration of cfg's kind, once every check of cfg names one of its metrics."""
    experiment = EXPERIMENTS.get(cfg.kind)
    if experiment is None:
        raise ConfigError(
            f"unknown kind {cfg.kind!r}; expected one of {', '.join(EXPERIMENTS)}",
            line=cfg.values["kind"][1],
        )
    for spec in cfg.checks:
        if spec.metric not in experiment.metrics:
            raise ConfigError(
                f"check references unknown metric '{spec.metric}' for kind '{cfg.kind}' "
                f"(known: {', '.join(experiment.metrics)})",
                line=cfg.values[f"check.{spec.metric}"][1],
            )
    return experiment


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunReport:
    """Run cfg's kind, which reads and checks its keys, and write its CSVs."""
    start = time.perf_counter()
    experiment = _validate(cfg)
    try:
        metrics, csvs = experiment.run(cfg)
    except ValueError as exc:  # a configured value that the kind's routines reject
        raise ConfigError(f"kind '{cfg.kind}': {exc}") from exc
    if set(metrics) != set(experiment.metrics):
        raise RuntimeError(
            f"kind '{cfg.kind}' published metrics {sorted(metrics)}, "
            f"declared {sorted(experiment.metrics)}"
        )
    out_dir = Path(out_dir)
    csv_paths = []
    for filename, schema, rows in csvs:
        target = out_dir / filename
        emit_csv(rows, schema, target)
        csv_paths.append(str(target))
    checks = [
        CheckResult(spec, float(metrics[spec.metric]),
                    spec.evaluate(float(metrics[spec.metric])))
        for spec in cfg.checks
    ]
    return RunReport(
        kind=cfg.kind,
        config_path=cfg.path,
        metrics=metrics,
        checks=checks,
        csv_paths=csv_paths,
        duration_seconds=time.perf_counter() - start,
    )


def _print_report(report: RunReport) -> None:
    print(f"experiment: {report.kind} ({report.config_path})")
    for name, value in report.metrics.items():
        print(f"  {name} = {value:.12g}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  {status} {check.spec.describe()}  [actual {check.actual:.12g}]")
    for path in report.csv_paths:
        print(f"  csv: {path}")
    outcome = "ok" if report.passed else "ASSERTIONS FAILED"
    print(f"  done in {report.duration_seconds:.2f}s: {outcome}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="circleresp",
        description="Config-driven transfer-operator and fixed-point experiments.",
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="override the config seed")
    parser.add_argument("--resolution", type=int, default=None,
                        help="override the grid resolution")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          resolution_override=args.resolution)
        report = run_experiment(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(
            f"numerical failure in '{cfg.kind}' ({cfg.path}): {exc}", file=sys.stderr
        )
        return 3
    _print_report(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
