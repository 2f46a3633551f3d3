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

Every decomposition certifies a spectral gap: an upper bound sigma < 1 on
the subdominant ratio, a Gelfand bound ||(R/lambda)^k||^(1/k) taken in the
Fourier coefficients weighted by e^(a |mode|), the norm of functions
analytic in a strip, in which the transfer operators of analytic expanding
maps contract (Wormell, Numer. Math. 142, 2019; Bandtlow and Jenkinson,
Adv. Math. 218, 2008).
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
from .fitting import theil_sen_loglog
from .fixed_point import ParametrizedMap, _checked_inverse, _identity_minus, sup_norm
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
# The spectral-gap norm weights Fourier mode j by e^(a j), with
# a = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / (n//2)): no weight exceeds e^20,
# so the rounding the weights amplify stays far below any gap it certifies.
_MAX_WEIGHT_RATE = 0.5
_MAX_LOG_WEIGHT = 20.0
_SIGMA_POWERS = (4, 8, 16, 32)
# Rows per block of the d_u_operator products.
_ROW_BLOCK = 64
# Rows per block of the assemble_operator branch sum.  A block there is one
# multiply and one add, so small blocks cost little; each broadcast multiply
# also takes a NumPy buffer of up to 8192 entries, so at n = 256 a 64-row
# block would make the temporaries 3/8 of the result.
_SUM_ROW_BLOCK = 16
# Grid on which trig_weight checks that its weight is positive.
_TRIG_WEIGHT_PROBE = 4096

# The interpolation matrices of the most recent branch set, keyed on
# (n, branch points); see _branch_interpolation.
_BRANCH_MEMO: dict[tuple[int, bytes], tuple[np.ndarray, ...]] = {}


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
    ``sigma_estimate`` is the bound that certified the spectral gap: an
    upper bound on the spectral radius of R/lambda, the Gelfand bound
    ||(R/lambda)^k||^(1/k) in a weighted Fourier l1 norm plus its rounding
    term, at the power k = ``sigma_power`` (see :func:`spectral_data`).  Pi
    is not stored (it is the outer product of phi and ell), so the bundle
    holds one n x n matrix, R.
    """

    lam: float
    phi: GridFunction
    ell: DualFunctional
    r: np.ndarray
    sigma_estimate: float
    sigma_power: int
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
    else:
        kappa = float(kink_exponent)

        def amp(u):
            return abs(float(u[0])) ** kappa

    def forward(u, x):
        return degree * np.asarray(x, dtype=float) + amp(u) * shape(x)

    def dx_forward(u, x):
        return degree + amp(u) * shape_dx(x)

    if kink_exponent is not None:
        # |u|^kappa is not differentiable at u = 0: no parameter derivatives.
        return MapFamily(degree, 1, forward, dx_forward, None, None, None)

    def du_forward(u, x):
        return shape(x)[:, None]

    def dxx_forward(u, x):
        return amp(u) * shape_dxx(x)

    def dxu_forward(u, x):
        return shape_dx(x)[:, None]

    return MapFamily(degree, 1, forward, dx_forward, du_forward, dxx_forward, dxu_forward)


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
) -> Weight:
    """Parameter-independent weight g(y) = const + sum_m [sc_m sin + cc_m cos](2 pi m y).

    Raises ValueError unless g is positive on a grid of _TRIG_WEIGHT_PROBE points.
    """
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

    probe = val(np.zeros(1), circle_nodes(_TRIG_WEIGHT_PROBE))
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


def _branch_interpolation(ys: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Read-only :func:`interpolation_matrix` of every branch row of ``ys``.

    Only the most recent branch set is kept, so repeated assemblies at one u
    (another weight, the u-derivative, the same operator again) build the
    degree n x n matrices once, and the memo never holds more than one set.
    """
    key = (n, ys.tobytes())
    mats = _BRANCH_MEMO.get(key)
    if mats is None:
        _BRANCH_MEMO.clear()  # before the build, so two sets are never alive
        mats = tuple(interpolation_matrix(yb, n) for yb in ys)
        for mat in mats:
            mat.flags.writeable = False
        _BRANCH_MEMO[key] = mats
    return mats


def assemble_operator(family: MapFamily, g: Weight, u, n: int) -> np.ndarray:
    """Dense N x N collocation matrix of L_u phi(x_i) = sum_branches g(y) phi(y).

    The per-branch interpolation matrices come from the memo of the most
    recent branch set, which :func:`d_u_operator` shares, so an operator
    reassembled at the same u with any weight reuses them.  Each branch is
    added a block of rows at a time, so no n x n temporary is made; every
    entry receives the same additions in the same order as in the
    whole-matrix form, so the bits are the same.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("resolution must be an even integer >= 8")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    lmat = np.zeros((n, n))
    for yb, interp in zip(ys, _branch_interpolation(ys, n)):
        weights = g.value(u, yb)
        if np.min(weights) <= 0.0:
            raise NumericsError(
                f"weight must be positive everywhere (min {np.min(weights):.3e})"
            )
        for start in range(0, n, _SUM_ROW_BLOCK):
            rows = slice(start, start + _SUM_ROW_BLOCK)
            lmat[rows] += weights[rows, None] * interp[rows]
    return lmat


def d_u_operator(family: MapFamily, g: Weight, u, h, n: int) -> np.ndarray:
    """Matrix of phi -> (d_u L . h) phi, assembled per inverse branch.

    With psi an inverse branch, d_u psi . h = -(dT/du . h)(psi) / (dT/dx)(psi)
    and the branch contribution is (dg/du . h)(psi) phi(psi)
    + d/dy[g phi](psi) * (d_u psi . h).  The slope phi'(psi) is the exact
    derivative of the interpolant that :func:`assemble_operator` evaluates
    (:func:`interpolation_derivative_matrix`), so this matrix is the
    parameter derivative of the assembled matrix.  The value matrices are
    the ones :func:`assemble_operator` memoizes for the same branch points,
    so an assembly and a derivative at one u build them once.

    Each term is added a block of rows at a time, slopes included (a row of
    the slope matrix depends on its own point only), so no n x n temporary
    is made; every entry receives the same additions in the same order as
    in the whole-matrix form, so the bits are the same.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    out = np.zeros((n, n))
    for yb, interp in zip(ys, _branch_interpolation(ys, n)):
        slope_coef = value_coef = None
        if family.du_forward is not None:
            du_t = family.du_forward(u, yb) @ h
            if np.any(du_t != 0.0):
                branch_motion = -du_t / family.dx_forward(u, yb)
                if g.dx_value is not None:
                    value_coef = branch_motion * g.dx_value(u, yb)
                slope_coef = branch_motion * g.value(u, yb)
        du_coef = g.du_value(u, yb) @ h if g.du_value is not None else None
        for start in range(0, n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            if value_coef is not None:
                out[rows] += value_coef[rows, None] * interp[rows]
            if slope_coef is not None:
                out[rows] += (slope_coef[rows, None]
                              * interpolation_derivative_matrix(yb[rows], n))
            if du_coef is not None:
                out[rows] += du_coef[rows, None] * interp[rows]
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


def _sigma_estimate(rmat: np.ndarray, lam: float, tol: float) -> tuple[float, int]:
    """Gelfand bound on rho(R/lambda) in the weighted Fourier l1 norm, and its power k.

    M = R/lambda is taken to the real trigonometric coefficient basis with
    two row ``rfft`` calls: the rows of R, then the rows of a transposed copy
    of the result.  The interleaved Re/Im layout embeds the n coefficients
    in m = 2 (n//2 + 1) coordinates; the imaginary parts of the constant and
    the Nyquist mode are exactly zero, so the extra rows and columns change
    neither the spectrum nor the norm.  The buffer then holds the transpose
    of T M T^-1 up to the DFT normalisation (1/n on the constant and Nyquist
    modes, 2/n on the others), which the row scaling applies together with
    the weights W = diag(e^(a j)).

    The bound for M^k is ||W M^k W^-1||_1^(1/k) (an induced norm of a
    similarity transform, hence >= rho) plus the weighted rounding of the
    transform, e^(a n/2) * n * eps * ||T M T^-1||_1.  M is squared from one
    buffer into the other, and the first k in 4, 8, 16, 32 whose bound is
    below 1 - tol is returned (k = 32 when none is).
    """
    n = rmat.shape[0]
    top = n // 2
    m = 2 * (top + 1)
    x = np.empty((m, m))
    y = np.empty((m, m))
    np.fft.rfft(rmat, axis=1, out=x.view(complex)[:n])
    transposed = y.reshape(-1)[: m * n].reshape(m, n)
    np.copyto(transposed, x[:n].T)
    np.fft.rfft(transposed, axis=1, out=x.view(complex))
    scale = np.full(m, 2.0 / (n * lam))
    scale[:2] /= 2.0
    if n % 2 == 0:
        scale[-2:] /= 2.0
    np.abs(x, out=y)
    plain_norm = float(np.max(scale * np.add.reduce(y, axis=1)))
    rate = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / max(top, 1))
    weight = np.exp(rate * np.repeat(np.arange(top + 1), 2))
    x *= (scale / weight)[:, None]
    x *= weight
    rounding = np.exp(rate * top) * n * np.finfo(float).eps * plain_norm
    np.matmul(x, x, out=y)
    for power in _SIGMA_POWERS:
        np.matmul(y, y, out=x)
        x, y = y, x
        np.abs(y, out=x)
        sigma = float(np.add.reduce(x, axis=1).max() ** (1.0 / power)) + rounding
        if sigma < 1.0 - tol:
            break
    return sigma, power


def spectral_data(lmat: np.ndarray, ell_ref: Optional[DualFunctional] = None,
                  tol: float = 1e-3) -> SpectralData:
    """Leading eigendata by power iteration from the positive cone.

    ``ell_ref`` fixes the normalization <ell_ref, phi> = 1 (the adjoint
    eigenvector computed here is used when absent).  Raises
    MaxIterExceededError when either power iteration has not converged
    within its iteration budget, NoSpectralGapError when no bound on the
    subdominant ratio is below 1 - tol and NonPositiveEigenfunctionError
    when the leading vector changes sign, or flips sign at every power step
    (a negative leading eigenvalue).

    The gap is certified in the Fourier coefficients with mode j weighted
    by e^(a j), a = min(0.5, 40/n): sigma is the first of the Gelfand bounds
    ||(R/lambda)^k||^(1/k), k = 4, 8, 16, 32, in that weighted l1 norm that
    falls below 1 - tol, plus the rounding the weights amplify,
    e^(a n/2) * n * eps * ||R/lambda||_1 in the unweighted coefficient norm.
    An induced norm of a similar matrix bounds the spectral radius at every
    k, so sigma >= rho(R/lambda); ``sigma_power`` records the k.  R is built
    in its own buffer, and the bound needs two (n+2) x (n+2) buffers besides
    it, so at most three matrices are alive.
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
    rmat = np.outer(phi, ell)
    rmat *= lam
    np.subtract(lmat, rmat, out=rmat)
    sigma, power = _sigma_estimate(rmat, lam, tol)
    if sigma >= 1.0 - tol:
        raise NoSpectralGapError(
            f"subdominant ratio bound {sigma:.6g} >= {1.0 - tol:.6g} at power {power}"
        )
    residual = sup_norm(lmat @ phi - lam * phi) / (abs(lam) * sup_norm(phi))
    return SpectralData(
        lam=lam,
        phi=GridFunction(phi),
        ell=DualFunctional(ell),
        r=rmat,
        sigma_estimate=sigma,
        sigma_power=power,
        eigen_residual=residual,
    )


def normalized_map(family: MapFamily, g: Weight, ell_ref: DualFunctional, n: int) -> ParametrizedMap:
    """The renormalized map F(u, phi) = L_u phi / <ell_ref, L_u phi> as a ParametrizedMap.

    Carries the analytic first-order coefficients: Q(u, phi) z =
    [<l, L phi> L z - <l, L z> L phi] / <l, L phi>^2 and P from the operator
    parameter derivative.  Its fixed point is the eigenvector of L_u
    normalized against the frozen reference functional.  The operator and
    its u-derivatives are kept for the most recent u only.
    """
    wts = ell_ref.weights
    op_cache: dict[bytes, np.ndarray] = {}
    du_cache: dict[bytes, list[np.ndarray]] = {}

    def _op(u):
        key = u.tobytes()
        lmat = op_cache.get(key)
        if lmat is None:
            lmat = assemble_operator(family, g, u, n)
            op_cache.clear()
            op_cache[key] = lmat
        return lmat

    def _du_ops(u):
        key = u.tobytes()
        dops = du_cache.get(key)
        if dops is None:
            basis = np.eye(family.param_dim)
            dops = [d_u_operator(family, g, u, e, n) for e in basis]
            du_cache.clear()
            du_cache[key] = dops
        return dops

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
    """Eigendata at u0, both forcings, the response and the checked inverse of Id - R/lambda.

    The forcings are (d_u L . h) phi and (d_u L . h)^T ell.  Neither the
    operator nor its derivative is alive during the inversion: the operator
    is dropped once decomposed, and the derivative is needed only through
    the two forcings.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    data = spectral_data(assemble_operator(family, g, u0, n))
    dop = d_u_operator(family, g, u0, h, n)
    phi = data.phi.samples
    forced = dop @ phi
    adjoint_forced = dop.T @ data.ell.weights
    del dop
    rhs = (forced - float(data.ell.weights @ forced) * phi) / data.lam
    inverse = _checked_inverse(_identity_minus(data.r / data.lam))
    return data, forced, adjoint_forced, inverse @ rhs, inverse


def linear_response(family: MapFamily, g: Weight, u0, h, n: int) -> GridFunction:
    """Directional derivative of the leading eigenfunction.

    Solves (Id - R/lambda) w = (Id - Pi)(d_u L . h) phi_0 / lambda around the
    base parameter, with phi_u normalized against the frozen adjoint
    eigenvector at u0.
    """
    return GridFunction(_response_parts(family, g, u0, h, n)[3])


def lambda_derivative(family: MapFamily, g: Weight, u0, h, n: int) -> float:
    """Directional derivative of the leading eigenvalue: lambda' = <ell_0, (d_u L . h) phi_0>.

    Differentiating lambda_u = <ell_0, L_u phi_u> also gives a term
    <ell_0, L_0 phi'>.  It vanishes: ell_0 L_0 = lambda ell_0, and phi_u is
    normalized by <ell_0, phi_u> = 1, so <ell_0, phi'> = 0.  No resolvent is
    needed.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    data = spectral_data(assemble_operator(family, g, u0, n))
    forced = d_u_operator(family, g, u0, h, n) @ data.phi.samples
    return float(data.ell.weights @ forced)


def gibbs_measure(data: SpectralData, f: GridFunction) -> float:
    """Expectation m(f) = <ell, f * phi> of the Gibbs measure built from the eigendata."""
    return float(data.ell.weights @ (f.samples * data.phi.samples))


def pressure_s_derivatives(
    family: MapFamily,
    g: Weight,
    u,
    observables: Sequence[GridFunction],
    n: int,
    delta: float = 1e-4,
    identity_rtol: float = 1e-6,
) -> list[tuple[float, float]]:
    """(d/ds log lambda(L_{s,u}) at s = 0, Gibbs expectation) for each observable A.

    The derivative is for the twist weight g * e^{sA}: a Richardson central
    difference over s in {+-delta, +-2 delta}.  It is checked against the
    Gibbs expectation of the observable (the two are equal analytically) and
    a ConsistencyError is raised past ``identity_rtol``.  The untwisted base
    operator is decomposed once for every expectation and dropped before
    the four twisted decompositions of each observable.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    base = spectral_data(assemble_operator(family, g, u, n))
    expectations = [gibbs_measure(base, observable) for observable in observables]
    del base  # its R is not needed by the twisted decompositions
    out = []
    for observable, gibbs in zip(observables, expectations):

        def log_lam(s: float) -> float:
            weight = twisted_weight(g, s, observable)
            return float(np.log(spectral_data(assemble_operator(family, weight, u, n)).lam))

        p_d = log_lam(delta)
        p_md = log_lam(-delta)
        p_2d = log_lam(2 * delta)
        p_m2d = log_lam(-2 * delta)
        derivative = (8.0 * (p_d - p_md) - (p_2d - p_m2d)) / (12.0 * delta)
        if abs(derivative - gibbs) / max(1.0, abs(gibbs)) > identity_rtol:
            raise ConsistencyError(
                f"pressure derivative {derivative:.12g} vs Gibbs expectation {gibbs:.12g}"
            )
        out.append((derivative, gibbs))
    return out


def pressure_s_derivative(
    family: MapFamily,
    g: Weight,
    u,
    observable: GridFunction,
    n: int,
    delta: float = 1e-4,
    identity_rtol: float = 1e-6,
) -> float:
    """d/ds log lambda(L_{s,u}) at s = 0: :func:`pressure_s_derivatives` of one observable."""
    return pressure_s_derivatives(family, g, u, [observable], n, delta, identity_rtol)[0][0]


def measure_response(family: MapFamily, g: Weight, u0, h, observable: GridFunction,
                     n: int) -> float:
    """Directional derivative of u -> m_u(A) = <ell_u, A phi_u>.

    Chain rule on the eigenpair with the normalizations <ell_0, phi_u> = 1
    and <ell_u, phi_u> = 1; the adjoint response solves
    ell' = (Id - R^T/lambda)^-1 (Id - Pi^T)((d_u L . h)^T ell_0
    - lambda' ell_0) / lambda, with lambda' as in :func:`lambda_derivative`.
    Id - R^T/lambda is the transpose of the system the eigenfunction response
    inverts, so the adjoint solve is a product with that inverse's transpose.
    """
    data, forced, adjoint_forced, phi_dot, inverse = _response_parts(family, g, u0, h, n)
    lam = data.lam
    phi = data.phi.samples
    wts = data.ell.weights
    lam_dot = float(wts @ forced)
    forced = adjoint_forced - lam_dot * wts
    forced = forced - float(forced @ phi) * wts  # (Id - Pi^T) projection
    ell_dot = inverse.T @ (forced / lam)
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
    normalization, then fits log-log slopes per direction.  The slope is the
    Theil–Sen median of the pairwise slopes, so one near-cancelling
    difference (u0 + delta close to a symmetric point of u0) does not drag
    it down.  Smooth families may fit slopes above gamma = alpha - beta;
    ``enforce_gamma`` asserts the one-sided bound slope >= gamma - 0.1 and
    should be disabled for families whose parameter dependence is itself
    only Hölder.

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
            return theil_sen_loglog(deltas, values)

        op_slopes.append(_slope(op_diffs, op_floor))
        fp_slopes.append(_slope(fp_diffs, fp_floor))
    if enforce_gamma:
        for slope in (*op_slopes, *fp_slopes):
            if np.isfinite(slope) and slope < gamma - 0.1:
                raise ConsistencyError(
                    f"fitted Hölder slope {slope:.4f} below gamma - 0.1 = {gamma - 0.1:.4f}"
                )
    return HolderScanReport(gamma, rows, op_slopes, fp_slopes)
