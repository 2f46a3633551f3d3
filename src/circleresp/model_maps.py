"""Two self-contained fixed-point problems on the interval [-1, 1].

A state phi is the vector of its samples at the M equispaced nodes of
[-1, 1] (``spaces.interval_nodes``), read through their not-a-knot cubic
spline: its values and derivatives at other points come from
``spaces.interval_values``, its C^r norm from ``spaces.interval_cr_norm``.
The *composition map* F(u, phi) = phi o phi / 2 + u acts on a ball of
C^{1,1} functions; the parameter u is itself a sample vector on the same
grid.  The *affine map* F(u, phi)(t) = phi((t+u)/2) / 2 + g(t, u) acts on
C^0 with a scalar parameter; its fixed point is also a closed-form Neumann
series, which the tests use as an oracle independent of the Picard solver.
Both carry the analytic coefficients of their increment expansions as
products made once at the base point: P and Q of order 1 and the symmetric
bilinear order-2 product of ``q2_product``, whose diagonal is the order-2
term of the development.  They are used to exercise the fixed-point engine
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError
from .fitting import theil_sen_loglog
from .fixed_point import (
    ParametrizedMap,
    fixed_point_second_derivatives,
    solve_fixed_point,
    solve_fixed_points,
    sup_norm,
)
from .spaces import (
    DEFAULT_SEED,
    INTERVAL_A,
    INTERVAL_B,
    interval_cr_norm,
    interval_locate,
    interval_nodes,
    interval_slopes,
    interval_values,
)

# Allowed overshoot of |phi| beyond 1 before composition is declared broken:
# the ball conditions guarantee range containment analytically, so a larger
# excursion signals a misconfigured run, not roundoff.
_RANGE_SLACK = 1e-9
# Picard tolerance of the experiments' fixed-point solves.
_PICARD_TOL = 1e-13
# Random states of the constraint suite are drawn inside this fraction of their radius.
_BALL_MARGIN = 0.95


@dataclass(frozen=True)
class CompositionMapConfig:
    """Ball radii (state, parameter) and grid resolution for the composition map.

    Feasibility requires the invariance conditions
    r/2 + r' <= r, r^2/2 + r' <= r, (r^2/2)(1+r) + r' <= r
    and the contraction conditions (1+r)/2 < 1, (2r+r^2)/2 < 1.  The record
    is validated at construction: ValueError names every violated condition.
    """

    radius: float = 0.5
    param_radius: float = 0.2
    resolution: int = 257

    def __post_init__(self):
        r, rp = self.radius, self.param_radius
        bad = []
        if not (0.0 < r < 1.0 and 0.0 < rp < 1.0):
            bad.append("radii must lie in (0, 1)")
        if r / 2 + rp > r:
            bad.append(f"r/2 + r' = {r / 2 + rp:.4g} > r")
        if r**2 / 2 + rp > r:
            bad.append(f"r^2/2 + r' = {r ** 2 / 2 + rp:.4g} > r")
        if (r**2 / 2) * (1 + r) + rp > r:
            bad.append(f"(r^2/2)(1+r) + r' = {(r ** 2 / 2) * (1 + r) + rp:.4g} > r")
        if (1 + r) / 2 >= 1.0:
            bad.append(f"(1+r)/2 = {(1 + r) / 2:.4g} >= 1")
        if (2 * r + r**2) / 2 >= 1.0:
            bad.append(f"(2r+r^2)/2 = {(2 * r + r ** 2) / 2:.4g} >= 1")
        if bad:
            raise ValueError("; ".join(bad))

    @property
    def contraction_constant(self) -> float:
        r = self.radius
        return max((1 + r) / 2, (2 * r + r**2) / 2)


def _clamped_inner(phi: np.ndarray) -> np.ndarray:
    excess = float(np.max(np.abs(phi))) - 1.0
    if excess > _RANGE_SLACK:
        raise ValueError(
            f"|phi| reaches 1 + {excess:.3e}: outside the composition ball (config bug?)"
        )
    return np.clip(phi, INTERVAL_A, INTERVAL_B)


def composition_map(cfg: CompositionMapConfig) -> ParametrizedMap:
    """F(u, phi) = phi o phi / 2 + u on M samples of [-1, 1], u a grid function too.

    Increment coefficients, as products made at the base point (u, phi):
    P h = h, Q z = [phi' o phi * z + z o phi] / 2, and the order-2 product,
    which does not depend on h,

        b(h1, z1, h2, z2) = [z1' o phi * z2 + z2' o phi * z1] / 4
                            + phi'' o phi * (z1 z2) / 4,

    symmetric bitwise, whose diagonal z' o phi * z / 2 + phi'' o phi * z^2 / 4
    is the exact quadratic term of the expansion.  Q and b locate phi o phi
    once, when they are made, and b reads phi'' o phi then; each b call
    reads z1' and z2' once.  ``cfg`` was validated at its construction.
    """
    m = cfg.resolution

    def apply(u, phi):
        inner = _clamped_inner(phi)
        return 0.5 * interval_values(phi, inner) + u

    def q_product(u, phi):
        inner = interval_locate(_clamped_inner(phi), m)
        dphi_at = interval_values(phi, inner, 1)
        return lambda z: 0.5 * (dphi_at * z + interval_values(z, inner))

    def q2_product(u, phi):
        inner = interval_locate(_clamped_inner(phi), m)
        curvature = interval_values(phi, inner, 2)

        def b(h1, z1, h2, z2):
            slopes = interval_values(z1, inner, 1) * z2 + interval_values(z2, inner, 1) * z1
            return 0.25 * slopes + 0.25 * (curvature * (z1 * z2))

        return b

    return ParametrizedMap(
        apply=apply,
        p_product=lambda u, phi: lambda h: np.asarray(h, dtype=float),
        q_product=q_product,
        q2_product=q2_product,
    )


@dataclass(frozen=True)
class AffineMapConfig:
    """F(u, phi)(t) = phi((t+u)/2)/2 + g(t, u) with scalar u in [-epsilon, epsilon].

    ``g`` is vectorized in t.  ``regularity`` declares the parameter
    regularity class of g ("lipschitz" or "holder" with ``holder_exponent``);
    the class drives which slope window the Hölder experiment asserts.
    ``g_du`` / ``g_duu`` supply parameter derivatives where they exist.
    """

    g: Callable[[np.ndarray, float], np.ndarray]
    regularity: str = "lipschitz"
    holder_exponent: float = 0.5
    epsilon: float = 0.15
    resolution: int = 257
    g_du: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    g_duu: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if self.regularity not in ("lipschitz", "holder"):
            raise ValueError(f"unknown regularity class {self.regularity!r}")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ValueError("holder_exponent must lie in (0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")

    def validate_forcing_ball(self, seed: int = DEFAULT_SEED):
        """Check ||g(., u)||_{C^alpha} <= 1/2 at 5 parameters spanning [-epsilon, epsilon]."""
        alpha = self.holder_exponent
        ts = interval_nodes(self.resolution)
        for u in np.linspace(-self.epsilon, self.epsilon, 5):
            norm = interval_cr_norm(self.g(ts, float(u)), alpha, seed=seed)
            if norm > 0.5 + 1e-9:
                raise ValueError(
                    f"||g(., {u:.4g})||_C^{alpha:.3g} = {norm:.4g} > 1/2"
                )


def affine_map(cfg: AffineMapConfig) -> ParametrizedMap:
    """The affine interval map as a ParametrizedMap of the one-entry parameter [u].

    Increment coefficients, as products made at the base point (u, phi):
    P h = [phi'((t+u)/2)/4 + g_u(t,u)] h, Q z = z((t+u)/2)/2, and the
    order-2 product

        b(h1, z1, h2, z2) = col h1 h2 + [z2'((t+u)/2) h1 + z1'((t+u)/2) h2] / 8,

    col = phi''((t+u)/2)/16 + g_uu(t,u)/2, symmetric bitwise, whose diagonal
    is the exact quadratic term of the expansion.  P exists only when g_u is
    given, and b only when g_u and g_uu are; col is read once, when b is
    made.
    One slot keeps the most recent stack of parameters, one row per
    parameter, with its points (t+u)/2 located on the grid and its forcings
    g(., u): a Picard solve passes the same stack at every step
    (:func:`solve_fixed_points`), so it locates its points and evaluates g
    once, and another stack replaces the slot.  ``apply_rows`` reads every
    row's spline with one slope solve (:func:`interval_values` of the
    stack).  A single parameter u is the one-row stack [u]: ``apply`` is row
    0 of ``apply_rows``, and ``p_product``, ``q_product`` and
    ``q2_product`` each take its located points once, when they are made, so
    a product never locates, even after another stack has replaced the slot.
    """
    m = cfg.resolution
    ts = interval_nodes(m)
    # (parameters, located points, forcings) of the most recent stack
    slot = None

    def _rows_at(us):
        """(the points (t+u_r)/2 located with one row per parameter, the k x m forcings)."""
        nonlocal slot
        key = tuple(us[:, 0].tolist())
        if slot is None or slot[0] != key:
            slot = None
            forcing = np.array([cfg.g(ts, u) for u in key], dtype=float)
            forcing.flags.writeable = False
            slot = (key, interval_locate((ts + us[:, :1]) / 2.0, m), forcing)
        return slot[1:]

    def apply_rows(us, phis):
        shifted, forcing = _rows_at(us)
        return 0.5 * interval_values(phis, shifted) + forcing

    def apply(u, phi):
        return apply_rows(np.asarray(u, dtype=float)[None], np.asarray(phi)[None])[0]

    def q_product(u, phi):
        points = _rows_at(np.asarray(u, dtype=float)[None])[0]
        return lambda z: 0.5 * interval_values(z, points)[0]

    def p_product(u, phi):
        points = _rows_at(np.asarray(u, dtype=float)[None])[0]
        col = 0.25 * interval_values(phi, points, 1)[0] + cfg.g_du(ts, float(u[0]))
        return lambda h: col * float(h[0])

    def q2_product(u, phi):
        points = _rows_at(np.asarray(u, dtype=float)[None])[0]
        col = interval_values(phi, points, 2)[0] / 16.0 + 0.5 * cfg.g_duu(ts, float(u[0]))

        def b(h1, z1, h2, z2):
            slopes = (interval_values(z2, points, 1)[0] * h1[0]
                      + interval_values(z1, points, 1)[0] * h2[0])
            return col * (h1[0] * h2[0]) + slopes / 8.0

        return b

    return ParametrizedMap(
        apply=apply,
        p_product=p_product if cfg.g_du is not None else None,
        q_product=q_product,
        q2_product=q2_product if cfg.g_du is not None and cfg.g_duu is not None else None,
        apply_rows=apply_rows,
    )


@dataclass(frozen=True)
class HolderExperimentRow:
    delta: float
    distance: float


@dataclass(frozen=True)
class HolderExperimentReport:
    regularity: str
    exponent: float
    slope: float
    n_points: int
    rows: list[HolderExperimentRow]


def affine_holder_experiment(
    cfg: AffineMapConfig,
    deltas: Sequence[float],
) -> HolderExperimentReport:
    """Fit the exponent of u -> ||phi_u - phi_0||_C0 near u = 0.

    The exponent is the Theil–Sen log-log slope of the distances against the
    deltas, over the distances above twice the base's plus the largest
    shifted Picard residual: the map contracts by 1/2, so a solve stopped at
    residual r is about 2r from its fixed point.  For a forcing of declared
    Hölder class alpha the slope must lie in [alpha - 0.05, alpha + 0.1],
    for Lipschitz forcing slope >= 0.95.  Raises DegenerateFitError when
    fewer than two distances at distinct deltas lie above the floor.  The
    base fixed point at u = 0 starts one stacked Picard solve of every delta
    (:func:`solve_fixed_points`), whose rows are the one-row solves.
    """
    fmap = affine_map(cfg)
    base = solve_fixed_point(fmap, np.zeros(1), np.zeros(cfg.resolution), tol=_PICARD_TOL)
    deltas = [float(delta) for delta in deltas]
    shifted = solve_fixed_points(fmap, np.array(deltas)[:, None], base.phi_star,
                                 tol=_PICARD_TOL)
    rows = [HolderExperimentRow(delta, sup_norm(result.phi_star - base.phi_star))
            for delta, result in zip(deltas, shifted)]
    worst_residual = max((result.residual for result in shifted), default=0.0)
    slope, kept = theil_sen_loglog([r.delta for r in rows], [r.distance for r in rows],
                                   2.0 * (base.residual + worst_residual))
    if cfg.regularity == "holder":
        lo, hi = cfg.holder_exponent - 0.05, cfg.holder_exponent + 0.1
        if not lo <= slope <= hi:
            raise ConsistencyError(f"fitted slope {slope:.4f} outside [{lo:.4f}, {hi:.4f}]")
    elif slope < 0.95:
        raise ConsistencyError(f"fitted slope {slope:.4f} < 0.95 for Lipschitz forcing")
    return HolderExperimentReport(cfg.regularity, cfg.holder_exponent, slope, kept, rows)


def _richardson_second_difference(solve_at: Callable[[float], np.ndarray],
                                  delta: float, f0: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated second central difference over steps delta, 2*delta.

    ``f0`` is the value at 0, ``solve_at(0.0)``, which the caller already holds.
    """
    d2 = solve_at(delta) - 2.0 * f0 + solve_at(-delta)
    d2_wide = solve_at(2.0 * delta) - 2.0 * f0 + solve_at(-2.0 * delta)
    return (16.0 * d2 - d2_wide) / (12.0 * delta**2)


@dataclass(frozen=True)
class SecondDerivativeRow:
    label: str
    engine_sup: float
    fd_sup: float
    abs_error: float
    rel_error: float


def composition_second_derivative_check(
    cfg: CompositionMapConfig,
    directions: Optional[Sequence] = None,
    fd_delta: float = 1e-2,
) -> list[SecondDerivativeRow]:
    """Second derivative of the composition-map fixed point vs a Richardson oracle.

    Default directions are the constant function and t -> t (as parameter
    perturbations around u = 0).  Along constants the fixed point is affine
    in the parameter and the second derivative vanishes.  The oracle solves
    at u = +-2 fd_delta h, so ValueError is raised when 2 fd_delta ||h||
    exceeds ``param_radius`` for some direction, in the C^{1,1} norm of the
    constraint suite's ball bound and with its slack.

    The base fixed point f0 at u = 0 is solved once.  It starts the engine's
    base solve, which returns it bitwise, so every direction shares one
    Q0 product (:func:`fixed_point_second_derivatives`), whose checked
    Krylov solves make no m x m array, and it is the oracle's value at 0.
    Each direction then needs only its four shifted Picard solves.
    """
    fmap = composition_map(cfg)
    m = cfg.resolution
    ts = interval_nodes(m)
    if directions is None:
        directions = [("constant", np.ones(m)), ("linear", ts.copy())]
    for label, h in directions:
        reach = 2.0 * fd_delta * interval_cr_norm(h, 2.0)
        if reach > cfg.param_radius + 1e-9:
            raise ValueError(f"fd_delta = {fd_delta:g}: the oracle's parameter along {label} "
                             f"reaches {reach:.4g} > param_radius = {cfg.param_radius:g}")
    u0 = np.zeros(m)
    f0 = solve_fixed_point(fmap, u0, np.zeros(m), tol=_PICARD_TOL).phi_star
    engines = fixed_point_second_derivatives(fmap, u0, f0, [(h, h) for _, h in directions],
                                             tol=_PICARD_TOL)
    rows = []
    for (label, h), engine in zip(directions, engines):

        def solve_at(c):
            return solve_fixed_point(fmap, u0 + c * h, np.zeros(m), tol=_PICARD_TOL).phi_star

        fd = _richardson_second_difference(solve_at, fd_delta, f0)
        abs_err = sup_norm(engine - fd)
        fd_scale = sup_norm(fd)
        rel_err = abs_err / fd_scale if fd_scale > 1e-9 else abs_err
        rows.append(SecondDerivativeRow(label, sup_norm(engine), fd_scale, abs_err, rel_err))
    return rows


# ---------------------------------------------------------------------------
# Ball sampling and the constraint suite
# ---------------------------------------------------------------------------


def random_ball_function(rng: np.random.Generator, m: int, target_norm: float) -> np.ndarray:
    """Random smooth interval function scaled to C^{1,1} surrogate norm <= target."""
    ts = interval_nodes(m)
    c = rng.standard_normal(5)
    raw = (
        c[0]
        + c[1] * ts
        + c[2] * ts**2 / 2.0
        + c[3] * np.sin(ts)
        + c[4] * np.cos(2.0 * ts) / 2.0
    )
    norm = interval_cr_norm(raw, 2.0)
    if norm == 0.0:
        return np.zeros(m)
    return raw * (target_norm / norm)


def c1_norm(vals: np.ndarray) -> float:
    """max(sup |f|, sup |f'|) over nodes, the C^1 norm surrogate."""
    return max(sup_norm(vals), sup_norm(interval_slopes(vals)))


@dataclass(frozen=True)
class ConstraintSuiteReport:
    samples: int
    ball_bound: float
    ball_max: float
    ball_violations: int
    contraction_bound: float
    contraction_max: float
    contraction_violations: int
    q_norm_bound: float
    q_norm_max: float
    q_norm_violations: int


def composition_constraint_suite(
    cfg: CompositionMapConfig,
    n_samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> ConstraintSuiteReport:
    """Ball preservation, contraction constant and Q-norm bound on random samples.

    States are drawn inside 0.95 times the radius (the analytic bounds
    assume exact ball membership; the margin absorbs the surrogate-norm
    scaling).  The Q operator-norm estimate probes random smooth directions,
    so it is a lower bound of the true norm, consistent with the claimed
    upper bound (1 + r)/2.  Q z is the map's own product at each sampled
    state.
    """
    fmap = composition_map(cfg)
    m = cfg.resolution
    rng = np.random.default_rng(seed)
    r, rp = cfg.radius, cfg.param_radius
    k_bound = cfg.contraction_constant + 0.01
    q_bound = (1.0 + r) / 2.0

    ball_max = 0.0
    ball_violations = 0
    contraction_max = 0.0
    contraction_violations = 0
    q_max = 0.0
    q_violations = 0
    for _ in range(n_samples):
        phi = random_ball_function(rng, m, _BALL_MARGIN * r * rng.uniform(0.2, 1.0))
        psi = random_ball_function(rng, m, _BALL_MARGIN * r * rng.uniform(0.2, 1.0))
        u = random_ball_function(rng, m, _BALL_MARGIN * rp * rng.uniform(0.2, 1.0))

        image = fmap.apply(u, phi)
        image_norm = interval_cr_norm(image, 2.0)  # the C^{1,1} norm surrogate
        ball_max = max(ball_max, image_norm)
        if image_norm > r + 1e-9:
            ball_violations += 1

        diff_in = c1_norm(phi - psi)
        if diff_in > 0.0:
            ratio = c1_norm(image - fmap.apply(u, psi)) / diff_in
            contraction_max = max(contraction_max, ratio)
            if ratio > k_bound:
                contraction_violations += 1

        z = random_ball_function(rng, m, rng.uniform(0.2, 1.0))
        zn = sup_norm(z)
        if zn > 0.0:
            q_ratio = sup_norm(fmap.q_product(u, phi)(z)) / zn
            q_max = max(q_max, q_ratio)
            if q_ratio > q_bound + 1e-6:
                q_violations += 1

    return ConstraintSuiteReport(
        samples=n_samples,
        ball_bound=r + 1e-9,
        ball_max=ball_max,
        ball_violations=ball_violations,
        contraction_bound=k_bound,
        contraction_max=contraction_max,
        contraction_violations=contraction_violations,
        q_norm_bound=q_bound,
        q_norm_max=q_max,
        q_norm_violations=q_violations,
    )
