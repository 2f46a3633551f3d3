"""Command-line front end: config-driven experiments with CSV reports.

Every experiment kind is declared once, in ``EXPERIMENTS``: the config keys it
accepts, the metrics it publishes and its runner.  ``run_experiment``
validates a parsed config against that declaration before it runs the kind.

Exit status contract: 0 when every configured assertion passes, 1 when some
assertion fails, 2 on configuration errors, 3 on numerical failures
(no spectral gap, singular system, missing contraction, ...).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
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
from .spaces import GridFunction, circle_nodes, cr_norm
from .transfer import (
    assemble_operator,
    certify_family,
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

    ``keys`` are the config keys the kind accepts (besides ``check.*``),
    ``metrics`` the names its runner publishes, and ``run(cfg)`` returns
    ``(metrics, csvs)`` with each csv a ``(filename, schema, rows)`` triple.
    """

    keys: frozenset
    metrics: tuple
    run: Callable[[ExperimentConfig], tuple]


EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(kind: str, keys, metrics: tuple):
    """Declare the decorated runner as experiment ``kind`` in EXPERIMENTS."""

    def declare(run):
        EXPERIMENTS[kind] = Experiment(frozenset(keys), metrics, run)
        return run

    return declare


# ---------------------------------------------------------------------------
# experiment construction helpers
# ---------------------------------------------------------------------------

# The keys that _circle_setup reads, common to every circle-map kind.
_CIRCLE_KEYS = frozenset({
    "kind", "seed", "resolution", "param_box", "u0",
    "map.degree", "map.sin", "map.cos", "map.kink_exponent",
    "weight.kind", "weight.value", "weight.rate", "weight.const", "weight.sin", "weight.cos",
})


def _family_from(cfg: ExperimentConfig):
    family = trig_perturbed_family(
        degree=cfg.get_int("map.degree", 2),
        sin_coeffs=cfg.get_float_list("map.sin", ()),
        cos_coeffs=cfg.get_float_list("map.cos", ()),
        kink_exponent=cfg.get_float("map.kink_exponent", None),
    )
    return certify_family(family, cfg.get_float("param_box", 0.5))


def _weight_from(cfg: ExperimentConfig, family):
    kind = cfg.get_str("weight.kind", "geometric")
    try:
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
    except ValueError as exc:  # the constructor rejected the configured values
        raise ConfigError(f"weight.kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown weight.kind {kind!r}")


def _circle_setup(cfg: ExperimentConfig, default_resolution: int = 64):
    """(n, family, weight, u0) of a circle-map experiment."""
    n = cfg.get_int("resolution", default_resolution)
    family = _family_from(cfg)
    weight = _weight_from(cfg, family)
    return n, family, weight, np.array([cfg.get_float("u0", 0.0)])


def _direction(cfg: ExperimentConfig) -> np.ndarray:
    return np.array([cfg.get_float("direction", 1.0)])


# ---------------------------------------------------------------------------
# runners, each under its declaration
# ---------------------------------------------------------------------------


@_experiment("spectrum", _CIRCLE_KEYS,
             ("lambda", "sigma", "sigma_power", "eigen_residual", "phi_min", "phi_const_dev",
              "ell_lebesgue_dev"))
def _run_spectrum(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg)
    data = spectral_data(assemble_operator(family, weight, u0, n))
    phi = data.phi.samples
    wts = data.ell.weights
    xs = circle_nodes(n)
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


@_experiment("solve", _CIRCLE_KEYS | {"tolerance"},
             ("residual", "iterations", "contraction_estimate"))
def _run_solve(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg)
    tol = cfg.get_float("tolerance", 1e-12)
    base = spectral_data(assemble_operator(family, weight, u0, n))
    fmap = normalized_map(family, weight, base.ell, n)
    result = solve_fixed_point(fmap, u0, np.ones(n), tol=tol)
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

    The map's cached operator and u-derivative are released before the solve.
    """
    fmap = normalized_map(family, weight, ell, n)
    p0 = fmap.p_matrix(u0, phi0)
    q0 = fmap.q_matrix(u0, phi0)
    del fmap
    return fixed_point_derivative(p0, q0, h)


@_experiment("response", _CIRCLE_KEYS | {"direction", "fd_delta"},
             ("lambda", "max_abs_diff", "rel_c0_error", "route_equiv_dev", "ell_pairing_dev"))
def _run_response(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg, default_resolution=128)
    h = _direction(cfg)
    fd_delta = cfg.get_float("fd_delta", 1e-4)

    # Everything at u0 first, so its branch set is built once.
    response = linear_response(family, weight, u0, h, n).samples
    base = spectral_data(assemble_operator(family, weight, u0, n))
    lam, ell, phi0 = base.lam, base.ell, base.phi.samples
    del base  # only its eigendata are read below, not its R
    alt = _fixed_point_route(family, weight, ell, phi0, u0, h, n)
    plus = spectral_data(
        assemble_operator(family, weight, u0 + fd_delta * h, n), ell_ref=ell
    ).phi.samples
    minus = spectral_data(
        assemble_operator(family, weight, u0 - fd_delta * h, n), ell_ref=ell
    ).phi.samples
    fd = (plus - minus) / (2.0 * fd_delta)

    xs = circle_nodes(n)
    diff = np.abs(response - fd)
    metrics = {
        "lambda": lam,
        "max_abs_diff": float(np.max(diff)),
        "rel_c0_error": float(np.max(diff) / max(np.max(np.abs(response)), 1e-300)),
        "route_equiv_dev": float(np.max(np.abs(response - alt))),
        "ell_pairing_dev": abs(float(ell.weights @ response)),
    }
    rows = [(j, xs[j], response[j], fd[j], diff[j]) for j in range(n)]
    csvs = [("response.csv", ("node", "x", "response", "fd_value", "abs_diff"), rows)]
    return metrics, csvs


@_experiment("taylor-check", _CIRCLE_KEYS | {"direction", "deltas", "beta"},
             ("fitted_order", "n_points", "max_normalized_residual"))
def _run_taylor(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg)
    beta = cfg.get_float("beta", 0.3)
    deltas = cfg.get_float_list("deltas", [2.0**-k for k in range(4, 13)])
    direction = _direction(cfg)
    seed = cfg.seed

    base = spectral_data(assemble_operator(family, weight, u0, n))
    fmap = normalized_map(family, weight, base.ell, n)
    phi0 = base.phi.samples

    def coarse_norm(v):
        return cr_norm(GridFunction(v), beta, seed=seed).value

    report = taylor_residual_scan(
        fmap, u0, phi0,
        fmap.p_matrix(u0, phi0), fmap.q_matrix(u0, phi0),
        direction, deltas, coarse_norm,
    )
    metrics = {
        "fitted_order": report.fitted_order,
        "n_points": float(len(report.rows)),
        "max_normalized_residual": max(r.normalized_residual for r in report.rows),
    }
    rows = [
        (deltas[i], r.h_norm, r.z_norm, r.residual_norm, r.normalized_residual)
        for i, r in enumerate(report.rows)
    ]
    csvs = [("taylor.csv",
             ("delta", "h_norm", "z_norm", "residual", "normalized_residual"), rows)]
    return metrics, csvs


@_experiment("hoelder-scan",
             _CIRCLE_KEYS | {"direction", "deltas", "alpha", "beta", "enforce_gamma"},
             ("op_slope", "fp_slope", "gamma"))
def _run_hoelder(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg)
    alpha = cfg.get_float("alpha", 0.9)
    beta = cfg.get_float("beta", 0.1)
    deltas = cfg.get_float_list("deltas", [2.0**-k for k in range(2, 10)])
    enforce = cfg.get_bool("enforce_gamma", True)
    report = holder_scan_operator(
        family, weight, u0, [_direction(cfg)], deltas, alpha, beta, n,
        seed=cfg.seed, enforce_gamma=enforce,
    )
    metrics = {
        "op_slope": report.operator_slopes[0],
        "fp_slope": report.fixed_point_slopes[0],
        "gamma": report.gamma,
    }
    rows = [(r.delta, r.operator_diff, r.fixed_point_diff) for r in report.rows]
    csvs = [("hoelder.csv", ("delta", "operator_diff", "fixed_point_diff"), rows)]
    return metrics, csvs


def _pressure_observables(cfg: ExperimentConfig, n: int):
    count = cfg.get_int("observable.count", 0)
    xs = circle_nodes(n)
    if count:
        rng = np.random.default_rng(cfg.seed)
        out = []
        for _ in range(count):
            coeffs = rng.standard_normal(6)
            vals = np.zeros(n)
            for m in range(1, 4):
                vals += coeffs[2 * m - 2] / m * np.sin(2 * np.pi * m * xs)
                vals += coeffs[2 * m - 1] / m * np.cos(2 * np.pi * m * xs)
            out.append(GridFunction(vals))
        return out
    const = cfg.get_float("observable.const", 0.0)
    sin_c = cfg.get_float_list("observable.sin", ())
    cos_c = cfg.get_float_list("observable.cos", ())
    vals = np.full(n, const)
    for m, c in enumerate(sin_c, start=1):
        vals += c * np.sin(2 * np.pi * m * xs)
    for m, c in enumerate(cos_c, start=1):
        vals += c * np.cos(2 * np.pi * m * xs)
    return [GridFunction(vals)]


@_experiment("pressure-check",
             _CIRCLE_KEYS | {"observable.count", "observable.const", "observable.sin",
                             "observable.cos"},
             ("max_rel_diff", "n_observables"))
def _run_pressure(cfg: ExperimentConfig):
    n, family, weight, u0 = _circle_setup(cfg)
    observables = _pressure_observables(cfg, n)
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
             {"kind", "seed", "radius", "param_radius", "interval_resolution", "samples",
              "fd_delta"},
             ("ball_max", "ball_violations", "contraction_max", "contraction_violations",
              "q_norm_max", "q_norm_violations", "second_abs_constant", "second_rel_linear"))
def _run_example_composition(cfg: ExperimentConfig):
    ccfg = CompositionMapConfig(
        radius=cfg.get_float("radius", 0.5),
        param_radius=cfg.get_float("param_radius", 0.2),
        resolution=cfg.get_int("interval_resolution", 257),
    )
    suite = composition_constraint_suite(
        ccfg, n_samples=cfg.get_int("samples", 100), seed=cfg.seed
    )
    second = composition_second_derivative_check(
        ccfg, fd_delta=cfg.get_float("fd_delta", 1e-2)
    )
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


@_experiment("example-affine",
             {"kind", "seed", "regularity", "exponent", "epsilon", "interval_resolution",
              "deltas"},
             ("slope", "n_points"))
def _run_example_affine(cfg: ExperimentConfig):
    regularity = cfg.get_str("regularity", "holder")
    exponent = cfg.get_float("exponent", 0.5)
    epsilon = cfg.get_float("epsilon", 0.15)
    m = cfg.get_int("interval_resolution", 257)
    deltas = cfg.get_float_list("deltas", [2.0**-k for k in range(4, 12)])
    if regularity == "holder":
        acfg = AffineMapConfig(
            g=lambda t, u: abs(u) ** exponent * np.cos(t),
            regularity="holder",
            holder_exponent=exponent,
            epsilon=epsilon,
            resolution=m,
        )
    elif regularity == "lipschitz":
        acfg = AffineMapConfig(
            g=lambda t, u: 0.35 * u * np.cos(t),
            regularity="lipschitz",
            holder_exponent=1.0,
            epsilon=epsilon,
            resolution=m,
            g_du=lambda t, u: 0.35 * np.cos(t),
            g_duu=lambda t, u: np.zeros_like(t),
        )
    else:
        raise ConfigError(f"unknown regularity {regularity!r}")
    acfg.validate_forcing_ball(seed=cfg.seed)
    report = affine_holder_experiment(acfg, deltas)
    metrics = {"slope": report.slope, "n_points": float(report.fit.n_points)}
    rows = [(r.delta, r.distance) for r in report.rows]
    csvs = [("affine_holder.csv", ("delta", "c0_distance"), rows)]
    return metrics, csvs


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _validate(cfg: ExperimentConfig) -> Experiment:
    """The declaration of cfg's kind, once every key and check of cfg is known to it."""
    experiment = EXPERIMENTS.get(cfg.kind)
    if experiment is None:
        raise ConfigError(
            f"unknown kind {cfg.kind!r}; expected one of {', '.join(EXPERIMENTS)}",
            line=cfg.values["kind"][1],
        )
    for key, (_, line) in cfg.values.items():
        if key.startswith("check."):
            metric = key[len("check."):]
            if metric not in experiment.metrics:
                raise ConfigError(
                    f"check references unknown metric '{metric}' for kind '{cfg.kind}' "
                    f"(known: {', '.join(experiment.metrics)})",
                    line=line,
                )
        elif key not in experiment.keys:
            raise ConfigError(f"unknown key {key!r} for kind '{cfg.kind}'", line=line)
    return experiment


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunReport:
    """Validate cfg against its kind's declaration, run it and write its CSVs."""
    start = time.perf_counter()
    experiment = _validate(cfg)
    metrics, csvs = experiment.run(cfg)
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
