"""Seeded experiment configs for the three benchmark workloads.

Every input is drawn from the documented valid domain of its experiment kind
and from nothing else; no draw is ever repeated, filtered or re-seeded
because an experiment fails.

* Circle maps: T(u, x) = 2x + u * s(x) with 1-3 sin/cos modes whose summed
  |coefficients| A satisfy PARAM_BOX * A <= 0.3, so |dT/dx| >= 1.7 for every
  |u| <= PARAM_BOX. The CLI passes each family through ``certify_family``.
* Weights: the geometric weight 1/|dT/dx|, or a trig weight
  0.5 + sum_m [a_m sin + b_m cos](2 pi m y) with sum |a_m| + |b_m| < 0.5.
* u0 is uniform in [-0.4, 0.4]; with the largest Hölder-scan delta (1/4) the
  scanned parameters stay inside the certified box [-0.7, 0.7].
* Interval examples: composition radii inside the feasibility region of
  ``CompositionMapConfig``, Hölder forcing exponents in [0.4, 0.6] with
  epsilon in [0.1, 0.15] (so ||g(., u)||_{C^alpha} <= 0.15^0.4 < 1/2), and
  grid sizes (the workload resolution +- 16) and delta ladders drawn per
  experiment so that no two experiments repeat the same computation. A pass
  is one composition check on COMPOSITION_SAMPLES ball samples and
  AFFINE_PER_CLASS affine scans of each regularity class.

Each experiment of a pass gets its own u0 (circle) or its own map (interval),
so no two experiments of a run share a (map, weight, u0) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAM_BOX = 0.7
MIN_EXPANSION = 1.7

# Step ladders, written out so that every config states its work. The Hölder
# scan keeps the CLI default: a shorter ladder (2^-2 .. 2^-7) fitted a slope
# of 0.663 on one certified family and failed the enforced gamma bound, which
# the default ladder passes at 0.733. The Taylor scan stops at 2^-9 instead
# of 2^-12 so that a run of twelve scans, the fewest with a tail percentile,
# stays near a minute on a slow host.
SCAN_DELTAS = {
    "taylor-check": 2.0 ** -np.arange(4, 10),
    "hoelder-scan": 2.0 ** -np.arange(2, 10),
}

COMPOSITION_SAMPLES = 12
AFFINE_PER_CLASS = 2

TIMED_STREAM = 0
WARMUP_STREAM = 1

# Accuracy gates, fixed from the paper's claims and the test suite's
# tolerances before any timed run. They are never tuned to the outputs.
CHECKS = {
    "response": (
        "check.rel_c0_error = le 1e-4",        # response vs central FD of phi
        "check.route_equiv_dev = le 1e-9",      # spectral route vs (Id - Q)^-1 P h
        "check.ell_pairing_dev = le 1e-10",     # <ell, response> = 0
    ),
    "pressure-check": (
        "check.max_rel_diff = le 1e-6",         # d/ds log lambda = Gibbs expectation
    ),
    "spectrum": (
        "check.eigen_residual = le 1e-9",
        "check.phi_min = ge 0",
    ),
    "solve": (
        "check.residual = le 1e-12",
        "check.contraction_estimate = le 1",
    ),
    "taylor-check": (
        "check.fitted_order = ge 1.5",          # increment expansion is o(|h|)
    ),
    "hoelder-scan": (),                         # gamma bound: enforce_gamma = true
    "example-composition": (
        "check.ball_violations = eq 0 0",
        "check.contraction_violations = eq 0 0",
        "check.q_norm_violations = eq 0 0",
        "check.second_abs_constant = le 1e-6",  # D^2 phi along constants is 0
        "check.second_rel_linear = le 1e-4",    # engine vs Richardson oracle
    ),
    "example-affine": (),                       # slope window: added per class below
}


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    resolution: int
    # Typical time of one pass on the reference host (2-vCPU Xeon VM,
    # OpenBLAS, 2 threads; it drifts by about 25% with host load). A run does
    # ceil(seconds / nominal_pass_s) passes, so every commit compared at the
    # same --seconds times the same experiments.
    nominal_pass_s: float


WORKLOADS = {
    w.name: w
    for w in (
        # Dense transfer work and the resolvent solve, with much reuse at a
        # fixed u (one pressure check assembles 11 operators on one branch
        # set); no cr_norm call.
        Workload(
            "response-1024",
            ("response", "pressure-check", "spectrum", "solve"),
            1024,
            7.4,
        ),
        # Every scan step is a fresh u, so transfer gets no reuse; the time
        # is the circle cr_norm and its many-point interpolation kernels.
        Workload(
            "scan-256",
            ("taylor-check", "hoelder-scan"),
            256,
            6.2,
        ),
        # Splines, interval cr_norm and Picard solves; never touches transfer
        # or the trigonometric interpolant. Grids near 1025 points make the
        # composition check mostly array and LAPACK work, whose speed varies
        # less with load on a shared host than the interpreter-bound per-call
        # overhead that dominates it near 257 points.
        Workload(
            "interval-examples",
            ("example-composition",) + ("example-affine",) * (2 * AFFINE_PER_CLASS),
            1025,
            3.5,
        ),
    )
}


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    kind: str
    text: str
    # (map, weight, u0) identity used to prove that inputs never repeat
    identity: tuple


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _circle_family(rng: np.random.Generator) -> list[str]:
    modes = int(rng.integers(1, 4))
    sin_c = rng.standard_normal(modes)
    cos_c = rng.standard_normal(modes)
    total = float(np.sum(np.abs(sin_c)) + np.sum(np.abs(cos_c)))
    target = (2.0 - MIN_EXPANSION) / PARAM_BOX * rng.uniform(0.5, 1.0)
    sin_c *= target / total
    cos_c *= target / total
    lines = ["map.degree = 2", f"map.sin = {_fmt(sin_c)}", f"map.cos = {_fmt(cos_c)}",
             f"param_box = {PARAM_BOX!r}"]
    if rng.random() < 0.5:
        lines.append("weight.kind = geometric")
    else:
        wmodes = int(rng.integers(1, 3))
        wsin = rng.standard_normal(wmodes)
        wcos = rng.standard_normal(wmodes)
        scale = 0.5 * rng.uniform(0.2, 0.6) / float(np.sum(np.abs(wsin)) + np.sum(np.abs(wcos)))
        lines += ["weight.kind = trig", "weight.const = 0.5",
                  f"weight.sin = {_fmt(wsin * scale)}", f"weight.cos = {_fmt(wcos * scale)}"]
    return lines


def _circle_experiment(kind: str, family: list[str], rng, n: int, exp_id: str) -> Experiment:
    u0 = float(rng.uniform(-0.4, 0.4))
    seed = int(rng.integers(0, 2**31))
    lines = [f"kind = {kind}", f"seed = {seed}", f"resolution = {n}", *family,
             f"u0 = {u0!r}"]
    if kind == "pressure-check":
        lines.append("observable.count = 2")
    if kind in SCAN_DELTAS:
        lines.append(f"deltas = {_fmt(SCAN_DELTAS[kind])}")
    if kind == "hoelder-scan":
        lines.append("enforce_gamma = true")
    lines += CHECKS[kind]
    return Experiment(exp_id, kind, "\n".join(lines) + "\n", (tuple(family), u0))


def _odd_grid(rng, centre: int) -> int:
    half = centre // 2
    return int(2 * rng.integers(half - 8, half + 9) + 1)  # centre +- 16


def _delta_ladder(rng) -> str:
    scale = rng.uniform(0.8, 1.2)
    return _fmt(scale * 2.0 ** -np.arange(4, 12))


def _composition(rng, centre: int, exp_id: str) -> Experiment:
    r = float(rng.uniform(0.3, 0.6))
    bound = min(r / 2.0, r - r * r * (1.0 + r) / 2.0)
    rp = float(bound * rng.uniform(0.4, 0.9))
    m = _odd_grid(rng, centre)
    seed = int(rng.integers(0, 2**31))
    fd_delta = float(rng.uniform(0.008, 0.012))
    lines = ["kind = example-composition", f"seed = {seed}", f"radius = {r!r}",
             f"param_radius = {rp!r}", f"interval_resolution = {m}",
             f"samples = {COMPOSITION_SAMPLES}",
             f"fd_delta = {fd_delta!r}", *CHECKS["example-composition"]]
    return Experiment(exp_id, "example-composition", "\n".join(lines) + "\n",
                      ("composition", r, rp, m, seed))


def _affine(rng, regularity: str, centre: int, exp_id: str) -> Experiment:
    epsilon = float(rng.uniform(0.1, 0.15))
    m = _odd_grid(rng, centre)
    seed = int(rng.integers(0, 2**31))
    deltas = _delta_ladder(rng)
    lines = ["kind = example-affine", f"seed = {seed}", f"regularity = {regularity}",
             f"epsilon = {epsilon!r}", f"interval_resolution = {m}", f"deltas = {deltas}"]
    exponent = 1.0
    if regularity == "holder":
        exponent = float(rng.uniform(0.4, 0.6))
        lines.append(f"exponent = {exponent!r}")
        # the library's window [alpha - 0.05, alpha + 0.1] as one eq check
        lines.append(f"check.slope = eq {exponent + 0.025!r} 0.075")
    else:
        lines.append("check.slope = ge 0.95")
    return Experiment(exp_id, "example-affine", "\n".join(lines) + "\n",
                      ("affine", regularity, exponent, epsilon, m, deltas))


def pass_experiments(workload: Workload, seed: int, stream: int, index: int,
                     resolution: int | None = None) -> list[Experiment]:
    """The experiments of pass ``index``; the same arguments give the same configs.

    ``resolution`` replaces the workload's resolution: the circle grid, or the
    centre of the drawn interval grids.
    """
    rng = np.random.default_rng([seed, stream, index])
    prefix = f"s{stream}p{index:03d}"
    n = resolution or workload.resolution
    if workload.name == "interval-examples":
        return [_composition(rng, n, f"{prefix}-composition")] + [
            _affine(rng, regularity, n, f"{prefix}-affine-{regularity}-{i}")
            for i in range(AFFINE_PER_CLASS) for regularity in ("holder", "lipschitz")
        ]
    family = _circle_family(rng)
    return [_circle_experiment(kind, family, rng, n, f"{prefix}-{kind}")
            for kind in workload.kinds]
