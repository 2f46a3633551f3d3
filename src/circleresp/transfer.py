"""Weighted transfer operators of expanding circle maps and their response theory.

A degree-d expanding map of R/Z is represented by its lift T(u, x) (with
T(u, x+1) = T(u, x) + d) depending on a finite-dimensional parameter u.  The
associated weighted operator

    (L_u phi)(x) = sum_{T_u y = x} g(u, y) phi(y)

is discretized by collocation on N equispaced nodes with trigonometric
interpolation at the branch preimages.  The module computes leading spectral
data (lambda, phi, ell, Pi, R), the renormalized fixed-point map
F(u, phi) = L_u phi / <ell_ref, L_u phi>, the parameter derivative of the
operator, the linear response of the eigenfunction, derivative of the
eigenvalue, Gibbs measures, the pressure derivative along an exponential
twist, and Hölder-continuity scans of operator and spectral data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BranchNewtonError,
    ConsistencyError,
    MaxIterExceededError,
    NoSpectralGapError,
    NonPositiveEigenfunctionError,
    NormalizationVanishesError,
    NotExpandingError,
    NumericsError,
)
from .fitting import fit_loglog
from .fixed_point import ParametrizedMap, _checked_solve, sup_norm
from .spaces import (
    DEFAULT_SEED,
    DualFunctional,
    GridFunction,
    circle_nodes,
    cr_norm,
    interpolation_derivative_matrix,
    interpolation_matrix,
)

_POWER_TOL = 1e-13
_MAX_POWER_ITER = 10_000
_SIGMA_POWER = 20


@dataclass(frozen=True)
class MapFamily:
    """Parametrized degree-d expanding circle map, given through its lift.

    ``forward(u, x)`` evaluates the lift (so forward(u, x+1) = forward(u, x)
    + degree), ``dx_forward`` its space derivative, ``du_forward`` the
    parameter gradient with shape (len(x), param_dim).  ``dxx_forward`` and
    ``dxu_forward`` are needed only by weights derived from T (geometric
    weight).  ``lambda_min`` is a certified expansion bound from
    :func:`check_expanding`, or None when not yet certified.
    """

    degree: int
    param_dim: int
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dx_forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    du_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dxx_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dxu_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    lambda_min: Optional[float] = None


@dataclass(frozen=True)
class Weight:
    """Positive weight g(u, y) with optional parameter and space derivatives.

    ``du_value(u, y)`` has shape (len(y), param_dim); a None derivative means
    identically zero.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    du_value: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dx_value: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class SpectralData:
    """Leading spectral bundle of one assembled operator.

    Normalized so that <ell_ref, phi> = 1 and <ell, phi> = 1; Pi is the
    rank-one projector z -> <ell, z> phi and R = L - lambda * Pi.
    ``sigma_estimate`` is ||(R/lambda)^m||_inf^(1/m) at m = 20.
    """

    lam: float
    phi: GridFunction
    ell: DualFunctional
    pi: np.ndarray
    r: np.ndarray
    sigma_estimate: float
    eigen_residual: float


def trig_perturbed_family(
    degree: int = 2,
    sin_coeffs: Sequence[float] = (1.0,),
    cos_coeffs: Sequence[float] = (),
    kink_exponent: Optional[float] = None,
) -> MapFamily:
    """One-parameter family T(u, x) = degree*x + a(u) * s(x).

    The shape is s(x) = sum_m [sc_m sin(2 pi m x) + cc_m cos(2 pi m x)]
    / (2 pi m), so dT/dx = degree + a(u) * sum_m [sc_m cos - cc_m sin].
    The amplitude is a(u) = u, or |u|^kappa when ``kink_exponent`` is set
    (which forces a non-smooth parameter dependence; derivative callables
    are then absent).
    """
    sc = np.asarray(sin_coeffs, dtype=float)
    cc = np.asarray(cos_coeffs, dtype=float)
    ms = np.arange(1, max(sc.size, cc.size) + 1)
    sc_full = np.zeros(ms.size)
    sc_full[: sc.size] = sc
    cc_full = np.zeros(ms.size)
    cc_full[: cc.size] = cc

    def shape(x):
        x = np.asarray(x, dtype=float)
        if ms.size == 0:
            return np.zeros_like(x)
        angles = 2.0 * np.pi * np.outer(x, ms)
        return (np.sin(angles) @ (sc_full / (2.0 * np.pi * ms))
                + np.cos(angles) @ (cc_full / (2.0 * np.pi * ms)))

    def shape_dx(x):
        x = np.asarray(x, dtype=float)
        if ms.size == 0:
            return np.zeros_like(x)
        angles = 2.0 * np.pi * np.outer(x, ms)
        return np.cos(angles) @ sc_full - np.sin(angles) @ cc_full

    def shape_dxx(x):
        x = np.asarray(x, dtype=float)
        if ms.size == 0:
            return np.zeros_like(x)
        angles = 2.0 * np.pi * np.outer(x, ms)
        return -(np.sin(angles) @ (sc_full * 2.0 * np.pi * ms)
                 + np.cos(angles) @ (cc_full * 2.0 * np.pi * ms))

    if kink_exponent is None:
        def amp(u):
            return float(u[0])

        def forward(u, x):
            return degree * np.asarray(x, dtype=float) + amp(u) * shape(x)

        def dx_forward(u, x):
            return degree + amp(u) * shape_dx(x)

        def du_forward(u, x):
            return shape(x)[:, None]

        def dxx_forward(u, x):
            return amp(u) * shape_dxx(x)

        def dxu_forward(u, x):
            return shape_dx(x)[:, None]

        return MapFamily(degree, 1, forward, dx_forward, du_forward, dxx_forward, dxu_forward)

    kappa = float(kink_exponent)

    def amp_kink(u):
        return abs(float(u[0])) ** kappa

    def forward_kink(u, x):
        return degree * np.asarray(x, dtype=float) + amp_kink(u) * shape(x)

    def dx_forward_kink(u, x):
        return degree + amp_kink(u) * shape_dx(x)

    # |u|^kappa is not differentiable at u = 0: no parameter derivatives.
    return MapFamily(degree, 1, forward_kink, dx_forward_kink, None, None, None)


def doubling_family() -> MapFamily:
    """The unperturbed doubling map T(x) = 2x."""
    return trig_perturbed_family(degree=2, sin_coeffs=())


def constant_weight(value: float) -> Weight:
    if value <= 0.0:
        raise ValueError("constant weight must be positive")

    def val(u, y):
        return np.full(np.asarray(y).shape, value)

    return Weight(val, None, None)


def geometric_weight(family: MapFamily) -> Weight:
    """g = 1/|dT/dx|: the weight whose leading eigendata give the a.c.i.m."""

    def val(u, y):
        return 1.0 / np.abs(family.dx_forward(u, y))

    dx_val = None
    if family.dxx_forward is not None:
        def dx_val(u, y):
            dx = family.dx_forward(u, y)
            return -family.dxx_forward(u, y) / (dx * np.abs(dx))

    du_val = None
    if family.dxu_forward is not None:
        def du_val(u, y):
            dx = family.dx_forward(u, y)
            return -family.dxu_forward(u, y) / (dx * np.abs(dx))[:, None]

    return Weight(val, du_val, dx_val)


def exp_scaled_weight(base: float = 0.5, rate: float = 1.0) -> Weight:
    """g(u, y) = base * exp(rate * u[0]): scales the operator, hence the eigenvalue."""
    if base <= 0.0:
        raise ValueError("base must be positive")

    def val(u, y):
        return np.full(np.asarray(y).shape, base * np.exp(rate * float(u[0])))

    def du_val(u, y):
        return (rate * val(u, y))[:, None]

    return Weight(val, du_val, None)


def trig_weight(
    const: float,
    sin_coeffs: Sequence[float] = (),
    cos_coeffs: Sequence[float] = (),
    check_resolution: int = 4096,
) -> Weight:
    """Parameter-independent weight g(y) = const + sum_m [sc_m sin + cc_m cos](2 pi m y)."""
    sc = np.asarray(sin_coeffs, dtype=float)
    cc = np.asarray(cos_coeffs, dtype=float)
    ms = np.arange(1, max(sc.size, cc.size, 1) + 1)
    sc_full = np.zeros(ms.size)
    sc_full[: sc.size] = sc
    cc_full = np.zeros(ms.size)
    cc_full[: cc.size] = cc

    def val(u, y):
        angles = 2.0 * np.pi * np.outer(np.asarray(y, dtype=float), ms)
        return const + np.sin(angles) @ sc_full + np.cos(angles) @ cc_full

    def dx_val(u, y):
        angles = 2.0 * np.pi * np.outer(np.asarray(y, dtype=float), ms)
        return (np.cos(angles) @ (sc_full * 2.0 * np.pi * ms)
                - np.sin(angles) @ (cc_full * 2.0 * np.pi * ms))

    probe = val(np.zeros(1), circle_nodes(check_resolution))
    if np.min(probe) <= 0.0:
        raise ValueError(f"trig weight not positive (min {np.min(probe):.3e})")
    return Weight(val, None, dx_val)


def twisted_weight(g: Weight, s: float, observable: GridFunction) -> Weight:
    """Weight g(u, y) * exp(s * A(y)) realizing the twisted operator L(e^{sA} phi)."""

    def val(u, y):
        return g.value(u, y) * np.exp(s * observable.eval(y))

    return Weight(val, None, None)


def check_expanding(family: MapFamily, u_grid: Sequence, x_resolution: int = 512) -> float:
    """Certified min of |dT/dx| over the grid; raises NotExpandingError if <= 1."""
    xs = circle_nodes(x_resolution)
    worst = np.inf
    worst_loc = (None, None)
    for u in u_grid:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        dx = np.abs(family.dx_forward(u, xs))
        idx = int(np.argmin(dx))
        if dx[idx] < worst:
            worst = float(dx[idx])
            worst_loc = (u.copy(), float(xs[idx]))
    if worst <= 1.0:
        raise NotExpandingError(
            f"|dT/dx| = {worst:.6g} <= 1 at u={worst_loc[0]}, x={worst_loc[1]:.6g}",
            u=worst_loc[0],
            x=worst_loc[1],
        )
    return worst


def certify_family(family: MapFamily, param_box: float, grid_points: int = 9,
                   x_resolution: int = 512) -> MapFamily:
    """Attach a certified lambda_min over the parameter box [-param_box, param_box]^d."""
    axes = [np.linspace(-param_box, param_box, grid_points)] * family.param_dim
    grid = [np.array(u) for u in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, family.param_dim)]
    lam_min = check_expanding(family, grid, x_resolution)
    return replace(family, lambda_min=lam_min)


def inverse_branches(family: MapFamily, u, x, tol: float = 1e-13, max_steps: int = 50):
    """All d preimages y in [0, 1) of x (mod 1) under T(u, .), by Newton on the lift.

    Accepts a scalar or a vector of targets; returns shape (d,) or (d, len(x)).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xs = np.atleast_1d(x_arr) % 1.0
    lift_origin = float(family.forward(u, np.zeros(1))[0])
    k_start = np.ceil(lift_origin - xs - 1e-12)
    branches = np.empty((family.degree, xs.size))
    for b in range(family.degree):
        target = xs + k_start + b
        y = (target - lift_origin) / family.degree
        converged = np.zeros(xs.size, dtype=bool)
        for _ in range(max_steps):
            residual = family.forward(u, y) - target
            converged = np.abs(residual) < tol
            if converged.all():
                break
            y = y - residual / family.dx_forward(u, y)
        if not converged.all():
            bad = int(np.argmax(~converged))
            raise BranchNewtonError(
                f"branch {b} Newton failed at x={xs[bad]:.6g} after {max_steps} steps "
                f"(residual {abs(float(residual[bad])):.3e}); map may not be expanding"
            )
        branches[b] = y % 1.0
    return branches[:, 0] if scalar else branches


def assemble_operator(family: MapFamily, g: Weight, u, n: int) -> np.ndarray:
    """Dense N x N collocation matrix of L_u phi(x_i) = sum_branches g(y) phi(y)."""
    if n < 8 or n % 2 != 0:
        raise ValueError("resolution must be an even integer >= 8")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    lmat = np.zeros((n, n))
    for b in range(family.degree):
        weights = g.value(u, ys[b])
        if np.min(weights) <= 0.0:
            raise NumericsError(
                f"weight must be positive everywhere (min {np.min(weights):.3e})"
            )
        lmat += weights[:, None] * interpolation_matrix(ys[b], n)
    return lmat


def d_u_operator(family: MapFamily, g: Weight, u, h, n: int) -> np.ndarray:
    """Matrix of phi -> (d_u L . h) phi, assembled per inverse branch.

    With psi an inverse branch, d_u psi . h = -(dT/du . h)(psi) / (dT/dx)(psi)
    and the branch contribution is (dg/du . h)(psi) phi(psi)
    + d/dy[g phi](psi) * (d_u psi . h).  The slope phi'(psi) is the exact
    derivative of the interpolant that :func:`assemble_operator` evaluates
    (:func:`interpolation_derivative_matrix`), so this matrix is the
    parameter derivative of the assembled matrix.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    out = np.zeros((n, n))
    needs_branch_motion = family.du_forward is not None
    for b in range(family.degree):
        yb = ys[b]
        interp = interpolation_matrix(yb, n)
        if needs_branch_motion:
            du_t = family.du_forward(u, yb) @ h
            if np.any(du_t != 0.0):
                branch_motion = -du_t / family.dx_forward(u, yb)
                if g.dx_value is not None:
                    out += (branch_motion * g.dx_value(u, yb))[:, None] * interp
                slopes = interpolation_derivative_matrix(yb, n)
                out += (branch_motion * g.value(u, yb))[:, None] * slopes
        if g.du_value is not None:
            out += (g.du_value(u, yb) @ h)[:, None] * interp
    return out


def _power_vector(mat: np.ndarray, name: str) -> np.ndarray:
    """Leading vector of ``mat`` by sup-normalized power iteration from the ones vector."""
    vec = np.ones(mat.shape[0])
    for _ in range(_MAX_POWER_ITER):
        nxt = mat @ vec
        scale = np.max(np.abs(nxt))
        if scale == 0.0:
            raise NumericsError(f"{name} annihilates the constant cone direction")
        nxt /= scale
        increment = float(np.max(np.abs(nxt - vec)))
        if increment < _POWER_TOL:
            return nxt
        if np.max(np.abs(nxt + vec)) < _POWER_TOL:
            raise NonPositiveEigenfunctionError(
                f"{name} flips the sign of its leading vector (negative leading eigenvalue)"
            )
        vec = nxt
    raise MaxIterExceededError(
        f"{name} power iteration not converged after {_MAX_POWER_ITER} iterations "
        f"(final increment {increment:.3e}, tol {_POWER_TOL:.1e})"
    )


def spectral_data(lmat: np.ndarray, ell_ref: Optional[DualFunctional] = None,
                  tol: float = 1e-3) -> SpectralData:
    """Leading eigendata by power iteration from the positive cone.

    ``ell_ref`` fixes the normalization <ell_ref, phi> = 1 (the adjoint
    eigenvector computed here is used when absent).  Raises
    MaxIterExceededError when either power iteration has not converged
    within its iteration budget, NoSpectralGapError when the subdominant
    ratio estimate reaches 1 - tol and NonPositiveEigenfunctionError when
    the leading vector changes sign, or flips sign at every power step (a
    negative leading eigenvalue).
    """
    lmat = np.asarray(lmat, dtype=float)
    phi = _power_vector(lmat, "operator")
    ell = _power_vector(lmat.T, "adjoint operator")
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi = -phi
    if ell[np.argmax(np.abs(ell))] < 0.0:
        ell = -ell
    if np.min(phi) <= 0.0:
        raise NonPositiveEigenfunctionError(
            f"leading eigenvector is not positive (min {np.min(phi):.3e})"
        )
    lam = float(ell @ (lmat @ phi)) / float(ell @ phi)
    if lam <= 0.0:
        raise NumericsError(f"leading eigenvalue not positive: {lam:.6g}")
    if ell_ref is not None:
        pairing = float(ell_ref.weights @ phi)
        if abs(pairing) < 1e-13:
            raise NormalizationVanishesError("<ell_ref, phi> is numerically zero")
        phi = phi / pairing
    ell = ell / float(ell @ phi)
    pi = np.outer(phi, ell)
    rmat = lmat - lam * pi
    sigma_power = np.linalg.matrix_power(rmat / lam, _SIGMA_POWER)
    sigma = float(np.linalg.norm(sigma_power, np.inf) ** (1.0 / _SIGMA_POWER))
    if sigma >= 1.0 - tol:
        raise NoSpectralGapError(f"subdominant ratio estimate {sigma:.6g} >= {1.0 - tol:.6g}")
    residual = sup_norm(lmat @ phi - lam * phi) / (abs(lam) * sup_norm(phi))
    return SpectralData(
        lam=lam,
        phi=GridFunction(phi),
        ell=DualFunctional(ell),
        pi=pi,
        r=rmat,
        sigma_estimate=sigma,
        eigen_residual=residual,
    )


def normalized_map(family: MapFamily, g: Weight, ell_ref: DualFunctional, n: int) -> ParametrizedMap:
    """The renormalized map F(u, phi) = L_u phi / <ell_ref, L_u phi> as a ParametrizedMap.

    Carries the analytic first-order coefficients: Q(u, phi) z =
    [<l, L phi> L z - <l, L z> L phi] / <l, L phi>^2 and P from the operator
    parameter derivative.  Its fixed point is the eigenvector of L_u
    normalized against the frozen reference functional.
    """
    wts = ell_ref.weights
    op_cache: dict[bytes, np.ndarray] = {}
    du_cache: dict[bytes, list[np.ndarray]] = {}

    def _op(u):
        key = u.tobytes()
        if key not in op_cache:
            op_cache[key] = assemble_operator(family, g, u, n)
        return op_cache[key]

    def _du_ops(u):
        key = u.tobytes()
        if key not in du_cache:
            basis = np.eye(family.param_dim)
            du_cache[key] = [d_u_operator(family, g, u, e, n) for e in basis]
        return du_cache[key]

    def apply(u, phi):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        image = _op(u) @ phi
        scale = float(wts @ image)
        if abs(scale) < 1e-13:
            raise NormalizationVanishesError("<ell_ref, L phi> is numerically zero")
        return image / scale

    def q_matrix(u, phi):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lmat = _op(u)
        lphi = lmat @ phi
        scale = float(wts @ lphi)
        if abs(scale) < 1e-13:
            raise NormalizationVanishesError("<ell_ref, L phi> is numerically zero")
        return lmat / scale - np.outer(lphi, lmat.T @ wts) / scale**2

    def p_matrix(u, phi):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lmat = _op(u)
        lphi = lmat @ phi
        scale = float(wts @ lphi)
        if abs(scale) < 1e-13:
            raise NormalizationVanishesError("<ell_ref, L phi> is numerically zero")
        cols = []
        for dop in _du_ops(u):
            v = dop @ phi
            cols.append(v / scale - float(wts @ v) * lphi / scale**2)
        return np.stack(cols, axis=1)

    return ParametrizedMap(
        apply=apply,
        state_dim=n,
        param_dim=family.param_dim,
        p_matrix=p_matrix,
        q_matrix=q_matrix,
    )


def _response_parts(family: MapFamily, g: Weight, u0, h, n: int):
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    lmat = assemble_operator(family, g, u0, n)
    data = spectral_data(lmat)
    dop = d_u_operator(family, g, u0, h, n)
    phi = data.phi.samples
    forced = dop @ phi
    rhs = (forced - float(data.ell.weights @ forced) * phi) / data.lam
    response = _checked_solve(np.eye(n) - data.r / data.lam, rhs)
    return lmat, data, dop, response


def linear_response(family: MapFamily, g: Weight, u0, h, n: int) -> GridFunction:
    """Directional derivative of the leading eigenfunction.

    Solves (Id - R/lambda) w = (Id - Pi)(d_u L . h) phi_0 / lambda around the
    base parameter, with phi_u normalized against the frozen adjoint
    eigenvector at u0.
    """
    return GridFunction(_response_parts(family, g, u0, h, n)[3])


def lambda_derivative(family: MapFamily, g: Weight, u0, h, n: int) -> float:
    """Directional derivative of the leading eigenvalue.

    From lambda_u = <ell_0, L_u phi_u>:
    D lambda . h = <ell_0, (d_u L . h) phi_0> + <ell_0, L_0 (D_u phi . h)>.
    """
    lmat, data, dop, response = _response_parts(family, g, u0, h, n)
    wts = data.ell.weights
    phi = data.phi.samples
    return float(wts @ (dop @ phi)) + float(wts @ (lmat @ response))


def gibbs_measure(data: SpectralData, f: GridFunction) -> float:
    """Expectation m(f) = <ell, f * phi> of the Gibbs measure built from the eigendata."""
    return float(data.ell.weights @ (f.samples * data.phi.samples))


def pressure_s_derivative(
    family: MapFamily,
    g: Weight,
    u,
    observable: GridFunction,
    n: int,
    delta: float = 1e-4,
    identity_rtol: float = 1e-6,
) -> float:
    """d/ds log lambda(L_{s,u}) at s = 0 for the twist weight g * e^{sA}.

    Richardson central difference over s in {+-delta, +-2 delta}; the result
    is checked against the Gibbs expectation of the observable (the two are
    equal analytically) and a ConsistencyError is raised past
    ``identity_rtol``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def log_lam(s: float) -> float:
        weight = twisted_weight(g, s, observable) if s != 0.0 else g
        return float(np.log(spectral_data(assemble_operator(family, weight, u, n)).lam))

    p_d = log_lam(delta)
    p_md = log_lam(-delta)
    p_2d = log_lam(2 * delta)
    p_m2d = log_lam(-2 * delta)
    derivative = (8.0 * (p_d - p_md) - (p_2d - p_m2d)) / (12.0 * delta)
    gibbs = gibbs_measure(spectral_data(assemble_operator(family, g, u, n)), observable)
    if abs(derivative - gibbs) / max(1.0, abs(gibbs)) > identity_rtol:
        raise ConsistencyError(
            f"pressure derivative {derivative:.12g} vs Gibbs expectation {gibbs:.12g}"
        )
    return derivative


def measure_response(family: MapFamily, g: Weight, u0, h, observable: GridFunction,
                     n: int) -> float:
    """Directional derivative of u -> m_u(A) = <ell_u, A phi_u>.

    Chain rule on the eigenpair with the normalizations <ell_0, phi_u> = 1
    and <ell_u, phi_u> = 1; the adjoint response solves
    ell' = (Id - R^T/lambda)^-1 (Id - Pi^T)((d_u L . h)^T ell_0
    - lambda' ell_0) / lambda.
    """
    lmat, data, dop, phi_dot = _response_parts(family, g, u0, h, n)
    lam = data.lam
    phi = data.phi.samples
    wts = data.ell.weights
    lam_dot = float(wts @ (dop @ phi)) + float(wts @ (lmat @ phi_dot))
    forced = dop.T @ wts - lam_dot * wts
    forced = forced - float(forced @ phi) * wts  # (Id - Pi^T) projection
    ell_dot = _checked_solve(np.eye(n) - data.r.T / lam, forced / lam)
    a = observable.samples
    return float(ell_dot @ (a * phi)) + float(wts @ (a * phi_dot))


@dataclass(frozen=True)
class HolderScanRow:
    direction_index: int
    delta: float
    operator_diff: float
    fixed_point_diff: float


@dataclass(frozen=True)
class HolderScanReport:
    gamma: float
    rows: list[HolderScanRow]
    operator_slopes: list[float]
    fixed_point_slopes: list[float]


def holder_scan_operator(
    family: MapFamily,
    g: Weight,
    u0,
    directions: Sequence,
    deltas: Sequence[float],
    alpha: float,
    beta: float,
    n: int,
    pair_budget: int = 2048,
    seed: int = DEFAULT_SEED,
    enforce_gamma: bool = True,
    test_function: Optional[GridFunction] = None,
) -> HolderScanReport:
    """Hölder-in-u scan of the operator and of its leading eigenfunction.

    Measures ||(L_{u0+delta e} - L_{u0}) phi||_{C^{1+beta}} for a fixed test
    function with unit C^{1+alpha} surrogate norm, and
    ||phi_{u0+delta e} - phi_{u0}||_{C^{1+beta}} with the frozen-functional
    normalization, then fits log-log slopes per direction.  Smooth families
    may fit slopes above gamma = alpha - beta; ``enforce_gamma`` asserts the
    one-sided bound slope >= gamma - 0.1 and should be disabled for families
    whose parameter dependence is itself only Hölder.

    A slope is reported as ``inf`` ("not fit") when every difference of its
    direction lies below the noise floor of the quantity: the power-iteration
    tolerance times n^(1+beta) (the C^{1+beta} surrogate's amplification of
    grid-scale noise) times the sup norm of the base quantity, L_{u0} f for
    the operator and phi_{u0} for the fixed point.  A parameter-independent
    quantity therefore reports ``inf`` instead of a slope fitted to rounding.
    """
    if not (0.0 <= beta < alpha < 1.0):
        raise ValueError("need 0 <= beta < alpha < 1")
    gamma = alpha - beta
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))

    def norm_1b(v):
        return cr_norm(GridFunction(v), 1.0 + beta, pair_budget=pair_budget, seed=seed).value

    if test_function is None:
        raw = GridFunction.from_callable(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), n)
        scale = cr_norm(raw, 1.0 + alpha, pair_budget=pair_budget, seed=seed).value
        test_function = GridFunction(raw.samples / scale)
    base_op = assemble_operator(family, g, u0, n)
    base_data = spectral_data(base_op)
    noise_scale = _POWER_TOL * float(n) ** (1.0 + beta)
    op_floor = noise_scale * sup_norm(base_op @ test_function.samples)
    fp_floor = noise_scale * sup_norm(base_data.phi.samples)
    rows = []
    op_slopes = []
    fp_slopes = []
    for index, direction in enumerate(directions):
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        op_diffs = []
        fp_diffs = []
        for delta in deltas:
            shifted_op = assemble_operator(family, g, u0 + delta * direction, n)
            op_diff = norm_1b((shifted_op - base_op) @ test_function.samples)
            shifted_data = spectral_data(shifted_op, ell_ref=base_data.ell)
            fp_diff = norm_1b(shifted_data.phi.samples - base_data.phi.samples)
            op_diffs.append(op_diff)
            fp_diffs.append(fp_diff)
            rows.append(HolderScanRow(index, float(delta), op_diff, fp_diff))

        def _slope(values, floor):
            if max(values) < floor:
                return float("inf")  # parameter-independent: nothing to fit
            return fit_loglog(deltas, values).slope

        op_slopes.append(_slope(op_diffs, op_floor))
        fp_slopes.append(_slope(fp_diffs, fp_floor))
    if enforce_gamma:
        for slope in (*op_slopes, *fp_slopes):
            if np.isfinite(slope) and slope < gamma - 0.1:
                raise ConsistencyError(
                    f"fitted Hölder slope {slope:.4f} below gamma - 0.1 = {gamma - 0.1:.4f}"
                )
    return HolderScanReport(gamma, rows, op_slopes, fp_slopes)
