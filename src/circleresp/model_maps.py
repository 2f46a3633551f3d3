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
end to end.  Both maps apply to a stack of parameters and states at once,
each row bitwise its one-row apply, and the composition map's Q product
takes stacks the same way, so the composition example runs its ball
samples and their Q products (:func:`composition_constraint_suite`) and
the shifted solves of its Richardson oracle
(:func:`composition_second_derivative_check`) as stacks.  Its C^{1,1}
norm is :func:`interval_cr_norm` at r = 2, whose Lipschitz seminorm of the
spline of the node slopes is exact, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._allocator import kept
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
# Samples the constraint suite holds as stacks at once: its memory stays that
# of one block, whatever the sample count.
_SAMPLE_BLOCK = 16


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
    reads z1' and z2' once.  ``apply`` and Q also take k x m stacks of u,
    phi and z: they read row r of phi and z at row r of phi's clamped
    values (:func:`interval_values` of the stack, one slope solve), so row
    r is bitwise the one-row result.  ``cfg`` was validated at its
    construction.
    """
    m = cfg.resolution

    def apply(u, phi):
        return 0.5 * interval_values(phi, _clamped_inner(phi)) + u

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
    ``g_du`` / ``g_duu`` supply parameter derivatives where they exist.  The
    forcing is checked on [-epsilon, epsilon] (:meth:`validate_forcing_ball`),
    so the deltas of :func:`affine_holder_experiment` must lie there too.
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
        """Check ||g(., u)||_{C^alpha} <= 1/2 at 5 parameters spanning [-epsilon, epsilon].

        The five forcings are one 5-row stack of :func:`interval_cr_norm`,
        whose row norms are the one-row norms: exact at alpha = 1, and read
        over one pair set, drawn once for all five, at alpha < 1.
        """
        alpha = self.holder_exponent
        ts = interval_nodes(self.resolution)
        us = np.linspace(-self.epsilon, self.epsilon, 5)
        norms = interval_cr_norm(np.array([self.g(ts, float(u)) for u in us]), alpha, seed=seed)
        for u, norm in zip(us, norms):
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
    One slot (:func:`~circleresp._allocator.kept`) keeps the most recent
    stack of parameters, one row per parameter, with its points (t+u)/2
    located on the grid and its forcings g(., u): a Picard solve passes the
    same stack at every step (:func:`solve_fixed_points`), so it locates its
    points and evaluates g once, and another stack replaces the slot.
    ``apply`` reads every row's spline with one slope solve
    (:func:`interval_values` of the stack).  A single parameter u is the
    one-row stack [u]: ``apply`` of a vector is row 0 of that stack's, and
    ``p_product``, ``q_product`` and ``q2_product`` each take its located
    points once, when they are made, so a product never locates, even after
    another stack has replaced the slot.
    """
    m = cfg.resolution
    ts = interval_nodes(m)
    # {parameters: (located points, forcings)} of the most recent stack
    slot: dict = {}

    def _rows_at(us):
        """(the points (t+u_r)/2 located with one row per parameter, the k x m forcings)."""
        key = tuple(us[:, 0].tolist())

        def build():
            forcing = np.array([cfg.g(ts, u) for u in key], dtype=float)
            forcing.flags.writeable = False
            return interval_locate((ts + us[:, :1]) / 2.0, m), forcing

        return kept(slot, key, build)

    def apply(u, phi):
        us, phis = np.atleast_2d(np.asarray(u, dtype=float), phi)
        shifted, forcing = _rows_at(us)
        image = 0.5 * interval_values(phis, shifted) + forcing
        return image if np.ndim(phi) == 2 else image[0]

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
    )


@dataclass(frozen=True)
class HolderExperimentRow:
    delta: float
    distance: float


@dataclass(frozen=True)
class HolderExperimentReport:
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
    (:func:`solve_fixed_points`), whose rows are the one-row solves.  Every
    delta must lie in [-epsilon, epsilon], where the forcing is checked;
    ValueError names the first that does not, before any solve.
    """
    deltas = [float(delta) for delta in deltas]
    for delta in deltas:
        if not abs(delta) <= cfg.epsilon:
            raise ValueError(f"delta {delta:g} lies outside [-epsilon, epsilon] = "
                             f"[{-cfg.epsilon:g}, {cfg.epsilon:g}]")
    fmap = affine_map(cfg)
    base = solve_fixed_point(fmap, np.zeros(1), np.zeros(cfg.resolution), tol=_PICARD_TOL)
    shifted = solve_fixed_points(fmap, np.array(deltas)[:, None], base.phi_star,
                                 tol=_PICARD_TOL)
    rows = [HolderExperimentRow(delta, sup_norm(result.phi_star - base.phi_star))
            for delta, result in zip(deltas, shifted)]
    worst_residual = max((result.residual for result in shifted), default=0.0)
    slope, n_points = theil_sen_loglog([r.delta for r in rows], [r.distance for r in rows],
                                       2.0 * (base.residual + worst_residual))
    if cfg.regularity == "holder":
        lo, hi = cfg.holder_exponent - 0.05, cfg.holder_exponent + 0.1
        if not lo <= slope <= hi:
            raise ConsistencyError(f"fitted slope {slope:.4f} outside [{lo:.4f}, {hi:.4f}]")
    elif slope < 0.95:
        raise ConsistencyError(f"fitted slope {slope:.4f} < 0.95 for Lipschitz forcing")
    return HolderExperimentReport(slope, n_points, rows)


def _richardson_second_difference(shifted: Sequence[np.ndarray], f0: np.ndarray,
                                  delta: float) -> np.ndarray:
    """Richardson-extrapolated second central difference over steps delta, 2*delta.

    ``shifted`` holds the values at +delta, -delta, +2 delta and -2 delta, in
    that order, and ``f0`` the value at 0.
    """
    plus, minus, plus2, minus2 = shifted
    d2 = plus - 2.0 * f0 + minus
    d2_wide = plus2 - 2.0 * f0 + minus2
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
    constraint suite's ball bound (:func:`interval_cr_norm` at r = 2, whose
    Lipschitz seminorm is exact) and with its slack.

    The base fixed point f0 at u = 0 is solved once.  It starts the engine's
    base solve, which returns it bitwise, so every direction shares one
    Q0 product (:func:`fixed_point_second_derivatives`), whose checked
    Krylov solves make no m x m array, and it is the oracle's value at 0.
    The oracle's shifted fixed points, at +-fd_delta and +-2 fd_delta along
    every direction, are one stacked Picard solve (:func:`solve_fixed_points`),
    whose rows are bitwise the one-row solves.
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
    steps = (fd_delta, -fd_delta, 2.0 * fd_delta, -2.0 * fd_delta)
    shifted = solve_fixed_points(fmap, [u0 + c * h for _, h in directions for c in steps],
                                 np.zeros(m), tol=_PICARD_TOL)
    rows = []
    for i, ((label, h), engine) in enumerate(zip(directions, engines)):
        fd = _richardson_second_difference(
            [result.phi_star for result in shifted[4 * i : 4 * i + 4]], f0, fd_delta)
        abs_err = sup_norm(engine - fd)
        fd_scale = sup_norm(fd)
        rel_err = abs_err / fd_scale if fd_scale > 1e-9 else abs_err
        rows.append(SecondDerivativeRow(label, sup_norm(engine), fd_scale, abs_err, rel_err))
    return rows


# ---------------------------------------------------------------------------
# Ball sampling and the constraint suite
# ---------------------------------------------------------------------------


def _ball_rows(coeffs: np.ndarray, targets: np.ndarray, m: int) -> np.ndarray:
    """The k x m ball functions of the k x 5 coefficient rows, each scaled to its target norm.

    Row r is c0 + c1 t + c2 t^2 / 2 + c3 sin t + c4 cos(2t) / 2 for
    c = coeffs[r], scaled to C^{1,1} norm targets[r] (a zero row stays 0).
    The norms are one :func:`interval_cr_norm` call on the stack, and every
    other step is elementwise, so each row is bitwise the one-row function.
    """
    ts = interval_nodes(m)
    c = [coeffs[:, j : j + 1] for j in range(5)]
    raw = c[0] + c[1] * ts + c[2] * ts**2 / 2.0 + c[3] * np.sin(ts) + c[4] * np.cos(2.0 * ts) / 2.0
    norms = interval_cr_norm(raw, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = raw * (targets / norms)[:, None]
    rows[norms == 0.0] = 0.0
    return rows


def random_ball_function(rng: np.random.Generator, m: int, target_norm: float) -> np.ndarray:
    """Random smooth interval function scaled to C^{1,1} norm surrogate ``target_norm``.

    It draws 5 standard normal coefficients and is the one-row
    :func:`_ball_rows`.  The norm is :func:`interval_cr_norm` at r = 2,
    whose seminorm is the exact Lipschitz constant of the spline of the
    node slopes, so the function's surrogate norm is the target to rounding.
    """
    return _ball_rows(rng.standard_normal((1, 5)), np.array([target_norm]), m)[0]


def c1_norm(vals: np.ndarray):
    """max(sup |f|, sup |f'|) over nodes, the C^1 norm surrogate; a k x m stack gives k norms."""
    vals = np.asarray(vals, dtype=float)
    norms = np.maximum(np.max(np.abs(vals), axis=-1),
                       np.max(np.abs(interval_slopes(vals)), axis=-1))
    return float(norms) if vals.ndim == 1 else norms


@dataclass(frozen=True)
class ConstraintSuiteReport:
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

    The samples are taken in blocks of _SAMPLE_BLOCK.  A block first draws
    its samples, each a phi, psi, u and z in that order (a target fraction,
    then 5 coefficients), as the rng gives them one sample at a time; then
    it builds each role as one stack (:func:`_ball_rows`) and reads the
    images, the Q products, the C^{1,1} norms and the C^1 norms one stack
    at a time (``apply``, ``q_product``, :func:`interval_cr_norm`,
    :func:`c1_norm`), and tallies them with reductions over the block.
    Every stacked row is bitwise its one-row value, so the report is that
    of one sample at a time, with no more than a block of rows held at
    once.
    """
    fmap = composition_map(cfg)
    m = cfg.resolution
    rng = np.random.default_rng(seed)
    r, rp = cfg.radius, cfg.param_radius
    k_bound = cfg.contraction_constant + 0.01
    q_bound = (1.0 + r) / 2.0
    # the target norm of phi, psi, u and z is this scale times its drawn fraction
    scales = np.array([_BALL_MARGIN * r, _BALL_MARGIN * r, _BALL_MARGIN * rp, 1.0])

    ball_max = 0.0
    ball_violations = 0
    contraction_max = 0.0
    contraction_violations = 0
    q_max = 0.0
    q_violations = 0
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, n_samples - start)
        fractions = np.empty((count, 4))
        coeffs = np.empty((count, 4, 5))
        for sample in range(count):
            for role in range(4):
                fractions[sample, role] = rng.uniform(0.2, 1.0)
                coeffs[sample, role] = rng.standard_normal(5)
        phi, psi, u, z = (_ball_rows(coeffs[:, role], scales[role] * fractions[:, role], m)
                          for role in range(4))

        image = fmap.apply(u, phi)
        image_norms = interval_cr_norm(image, 2.0)  # the C^{1,1} norm surrogate
        ball_max = max(ball_max, float(np.max(image_norms)))
        ball_violations += int(np.count_nonzero(image_norms > r + 1e-9))

        diffs_in = c1_norm(phi - psi)
        apart = diffs_in > 0.0
        ratios = c1_norm(image - fmap.apply(u, psi))[apart] / diffs_in[apart]
        contraction_max = max(contraction_max, float(np.max(ratios, initial=0.0)))
        contraction_violations += int(np.count_nonzero(ratios > k_bound))

        zn = np.max(np.abs(z), axis=1)
        nonzero = zn > 0.0
        q_ratios = np.max(np.abs(fmap.q_product(u, phi)(z)), axis=1)[nonzero] / zn[nonzero]
        q_max = max(q_max, float(np.max(q_ratios, initial=0.0)))
        q_violations += int(np.count_nonzero(q_ratios > q_bound + 1e-6))

    return ConstraintSuiteReport(
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
