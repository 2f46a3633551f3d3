"""Weighted transfer operators of expanding circle maps and their response theory.

A degree-d expanding map of R/Z is represented by its lift T(u, x) (with
T(u, x+1) = T(u, x) + d) depending on one real parameter u.  The associated
weighted operator

    (L_u phi)(x) = sum_{T_u y = x} g(u, y) phi(y)

is discretized by collocation on N equispaced nodes with trigonometric
interpolation at the branch preimages.  The closed-form inputs (the map's
shape, a trig weight, an observable) are ``TrigSeries``, evaluated exactly
at the preimages; everything computed from them is a vector of node
samples.  The module computes leading spectral data (lambda, phi of
integral 1, ell with <ell, phi> = 1, Pi, R), the renormalized fixed-point
map F(u, phi) = L_u phi / <ell_ref, L_u phi>, the parameter derivative of
the operator, Gibbs measures, the pressure derivative along an exponential
twist, and Hölder-continuity scans of operator and spectral data.  The linear
response at a base parameter is one record, :class:`LinearResponse`:
lambda, phi, ell and their derivatives, and through them the derivative
of any Gibbs expectation, all from one decomposition and one checked
inverse of Id - R/lambda.

Every decomposition certifies a spectral gap: an upper bound sigma < 1 on
the subdominant ratio, a Gelfand bound ||(R/lambda)^k||^(1/k) taken in the
Fourier coefficients weighted by e^(a |mode|), the norm of functions
analytic in a strip, in which the transfer operators of analytic expanding
maps contract (Wormell, Numer. Math. 142, 2019; Bandtlow and Jenkinson,
Adv. Math. 218, 2008).  The bound is certified directly, from powers of
R/lambda, or near an already certified operator, from that operator's
bound and the weighted norm of the difference; the pressure derivative and
the Hölder scan certify their twisted and shifted operators near the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BranchNewtonError,
    ConsistencyError,
    DegenerateFitError,
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
    TrigSeries,
    circle_nodes,
    cr_norm,
    interpolation_matrix,
    interpolation_slopes,
)

_POWER_TOL = 1e-13
_MAX_POWER_ITER = 10_000
# A gap is certified when the subdominant ratio bound is below 1 - _GAP_TOL.
_GAP_TOL = 1e-3
# The spectral-gap norm weights Fourier mode j by e^(a j), with
# a = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / (n//2)): no weight exceeds e^20,
# so the rounding the weights amplify stays far below any gap it certifies.
_MAX_WEIGHT_RATE = 0.5
_MAX_LOG_WEIGHT = 20.0
_SIGMA_POWERS = (4, 8, 16, 32)
# Rows per block of the d_u_operator products, and rows, then columns, per
# block of the transforms of the near gap bound.
_ROW_BLOCK = 64
# Rows per block of the assemble_operator branch sum.  A block there is one
# multiply and one add, so small blocks cost little; each broadcast multiply
# also takes a NumPy buffer of up to 8192 entries, so at n = 256 a 64-row
# block would make the temporaries 3/8 of the result.
_SUM_ROW_BLOCK = 16
# Grid on which trig_weight checks that its weight is positive.
_TRIG_WEIGHT_PROBE = 4096
# Newton on an inverse branch: the lift residual it stops at, and its step budget.
_BRANCH_TOL = 1e-13
_BRANCH_MAX_STEPS = 50
# Twist step of the pressure derivative, and its tolerance against the Gibbs expectation.
_TWIST_STEP = 1e-4
_PRESSURE_RTOL = 1e-6
# Random pairs of the C^{1+beta} norm in holder_scan_operator.
_SCAN_PAIR_BUDGET = 2048

# The interpolation matrices of the most recent branch set, keyed on
# (n, branch points); see _branch_interpolation.
_BRANCH_MEMO: dict[tuple[int, bytes], tuple[np.ndarray, ...]] = {}


@dataclass(frozen=True)
class MapFamily:
    """Parametrized degree-d expanding circle map, given through its lift.

    The parameter u is one real number.  ``forward(u, x)`` evaluates the
    lift (so forward(u, x+1) = forward(u, x) + degree), ``dx_forward`` its
    space derivative, ``du_forward`` its u-derivative, each with the shape of
    x.  ``dxx_forward`` and ``dxu_forward`` are needed only by weights
    derived from T (geometric weight).  Expansion is not stored: callers
    sample it with :func:`check_expanding`.
    """

    degree: int
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dx_forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    du_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dxx_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dxu_forward: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class Weight:
    """Positive weight g(u, y) with optional parameter and space derivatives.

    ``du_value(u, y)`` is the u-derivative with the shape of y; a None
    derivative means identically zero.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    du_value: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dx_value: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class SpectralData:
    """Leading spectral bundle of one assembled operator.

    ``phi`` and ``ell`` are read-only sample vectors: the eigenfunction at
    the n nodes and the weights of the adjoint eigenvector, so that
    <ell, f> = ell @ f.  One rule normalizes them: <ell_ref, phi> = 1 and
    <ell, phi> = 1, with ell_ref the Lebesgue weights 1/n unless
    :func:`spectral_data` is given another.  By default phi thus has
    integral 1 on every grid (the invariant density, for the geometric
    weight).  Pi is the rank-one projector z -> <ell, z> phi and
    R = L - lambda * Pi.
    ``sigma_estimate`` is the bound that certified the spectral gap: an
    upper bound on the spectral radius of R/lambda, a Gelfand bound on
    ||(R/lambda)^k||^(1/k) in a weighted Fourier l1 norm, rounding included,
    at the power k = ``sigma_power``.  A bundle certified directly holds the
    first such bound below 1 - 1e-3 for k = 4, 8, 16, 32; one certified near
    a base holds the base's k and the bound sigma0^k + (a + e)^k - a^k,
    taken to the power 1/k (see :func:`spectral_data`).
    ``weighted_norm`` bounds ||R/lambda|| in the same norm, rounding
    included; it is the a of a bundle certified near this one.  Pi is not
    stored (it is the outer product of phi and ell), so the bundle holds one
    n x n matrix, R.
    """

    lam: float
    phi: np.ndarray
    ell: np.ndarray
    r: np.ndarray
    sigma_estimate: float
    sigma_power: int
    weighted_norm: float
    eigen_residual: float


def trig_perturbed_family(
    degree: int = 2,
    sin_coeffs: Sequence[float] = (1.0,),
    cos_coeffs: Sequence[float] = (),
    kink_exponent: Optional[float] = None,
) -> MapFamily:
    """One-parameter family T(u, x) = degree*x + a(u) * s(x).

    The shape is the series s(x) = sum_m [sc_m sin(2 pi m x) + cc_m cos(2 pi m x)]
    / (2 pi m), so dT/dx = degree + a(u) * sum_m [sc_m cos - cc_m sin], and
    d2T/dx2 is the derivative of that slope series.
    The amplitude is a(u) = u, or |u|^kappa when ``kink_exponent`` is set
    (which forces a non-smooth parameter dependence; derivative callables
    are then absent).
    """
    coeffs = TrigSeries(0.0, sin_coeffs, cos_coeffs)
    two_pi_m = 2.0 * np.pi * np.arange(1, coeffs.sin.size + 1)
    shape = TrigSeries(0.0, coeffs.sin / two_pi_m, coeffs.cos / two_pi_m)
    shape_dx = TrigSeries(0.0, -coeffs.cos, coeffs.sin)
    shape_dxx = shape_dx.derivative()

    if kink_exponent is None:
        def amp(u):
            return u
    else:
        kappa = float(kink_exponent)

        def amp(u):
            return abs(u) ** kappa

    def forward(u, x):
        return degree * np.asarray(x, dtype=float) + amp(u) * shape(x)

    def dx_forward(u, x):
        return degree + amp(u) * shape_dx(x)

    if kink_exponent is not None:
        # |u|^kappa is not differentiable at u = 0: no parameter derivatives.
        return MapFamily(degree, forward, dx_forward, None, None, None)

    def du_forward(u, x):
        return shape(x)

    def dxx_forward(u, x):
        return amp(u) * shape_dxx(x)

    def dxu_forward(u, x):
        return shape_dx(x)

    return MapFamily(degree, forward, dx_forward, du_forward, dxx_forward, dxu_forward)


def constant_weight(value: float) -> Weight:
    if not value > 0.0:
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
            return -family.dxu_forward(u, y) / (dx * np.abs(dx))

    return Weight(val, du_val, dx_val)


def exp_scaled_weight(base: float = 0.5, rate: float = 1.0) -> Weight:
    """g(u, y) = base * exp(rate * u): scales the operator, hence the eigenvalue."""
    if not base > 0.0:
        raise ValueError("base must be positive")

    def val(u, y):
        return np.full(np.asarray(y).shape, base * np.exp(rate * u))

    def du_val(u, y):
        return rate * val(u, y)

    return Weight(val, du_val, None)


def trig_weight(
    const: float,
    sin_coeffs: Sequence[float] = (),
    cos_coeffs: Sequence[float] = (),
) -> Weight:
    """Parameter-independent weight g(y) = const + sum_m [sc_m sin + cc_m cos](2 pi m y).

    Raises ValueError unless g is positive on a grid of _TRIG_WEIGHT_PROBE points.
    """
    series = TrigSeries(const, sin_coeffs, cos_coeffs)
    slope = series.derivative()
    probe = series(circle_nodes(_TRIG_WEIGHT_PROBE))
    if not np.min(probe) > 0.0:
        raise ValueError(f"trig weight not positive (min {np.min(probe):.3e})")
    return Weight(lambda u, y: series(y), None, lambda u, y: slope(y))


def twisted_weight(g: Weight, s: float, observable: TrigSeries) -> Weight:
    """Weight g(u, y) * exp(s * A(y)) realizing the twisted operator L(e^{sA} phi), A exact at y.

    Its derivatives are g_u e^{sA} (None when g_u is) and (g_x + s A' g) e^{sA}.
    """

    def val(u, y):
        return g.value(u, y) * np.exp(s * observable(y))

    du_val = None
    if g.du_value is not None:
        def du_val(u, y):
            return g.du_value(u, y) * np.exp(s * observable(y))

    def dx_val(u, y):
        g_x = g.dx_value(u, y) if g.dx_value is not None else 0.0
        return (g_x + s * observable.derivative()(y) * g.value(u, y)) * np.exp(s * observable(y))

    return Weight(val, du_val, dx_val)


def check_expanding(family: MapFamily, u_grid: Sequence[float]) -> float:
    """Sampled min of |dT/dx| over the u grid and 512 x nodes; NotExpandingError if <= 1.

    Only the sample is checked: a dip of |dT/dx| between nodes is not seen.
    """
    xs = circle_nodes(512)
    worst = np.inf
    worst_loc = (None, None)
    for u in u_grid:
        dx = np.abs(family.dx_forward(u, xs))
        idx = int(np.argmin(dx))
        if dx[idx] < worst:
            worst = float(dx[idx])
            worst_loc = (float(u), float(xs[idx]))
    if worst <= 1.0:
        raise NotExpandingError(
            f"|dT/dx| = {worst:.6g} <= 1 at u={worst_loc[0]}, x={worst_loc[1]:.6g}",
            u=worst_loc[0],
            x=worst_loc[1],
        )
    return worst


def inverse_branches(family: MapFamily, u: float, x):
    """All d preimages y in [0, 1) of x (mod 1) under T(u, .), by Newton on the lift.

    Accepts a scalar or a vector of targets; returns shape (d,) or (d, len(x)).
    """
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
        for _ in range(_BRANCH_MAX_STEPS):
            residual = family.forward(u, y) - target
            converged = np.abs(residual) < _BRANCH_TOL
            if converged.all():
                break
            y = y - residual / family.dx_forward(u, y)
        if not converged.all():
            bad = int(np.argmax(~converged))
            raise BranchNewtonError(
                f"branch {b} Newton failed at x={xs[bad]:.6g} after {_BRANCH_MAX_STEPS} steps "
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


def assemble_operator(family: MapFamily, g: Weight, u: float, n: int) -> np.ndarray:
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
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    lmat = np.zeros((n, n))
    for yb, interp in zip(ys, _branch_interpolation(ys, n)):
        weights = g.value(u, yb)
        if not np.min(weights) > 0.0:
            raise NumericsError(
                f"weight must be positive everywhere (min {np.min(weights):.3e})"
            )
        for start in range(0, n, _SUM_ROW_BLOCK):
            rows = slice(start, start + _SUM_ROW_BLOCK)
            lmat[rows] += weights[rows, None] * interp[rows]
    return lmat


def d_u_operator(family: MapFamily, g: Weight, u: float, h: float, n: int) -> np.ndarray:
    """Matrix of phi -> (d_u L . h) phi, assembled per inverse branch.

    With psi an inverse branch, d_u psi . h = -(dT/du . h)(psi) / (dT/dx)(psi)
    and the branch contribution is (dg/du . h)(psi) phi(psi)
    + d/dy[g phi](psi) * (d_u psi . h).  The slope phi'(psi) is the exact
    derivative of the interpolant that :func:`assemble_operator` evaluates,
    which :func:`interpolation_slopes` takes from its value rows, so this
    matrix is the parameter derivative of the assembled matrix.  The value
    rows are the ones :func:`assemble_operator` memoizes for the same branch
    points, so an assembly and a derivative at one u build them once.  A
    family without ``du_forward`` has no parameter derivative: ValueError.

    Each term is added a block of rows at a time, slopes included (a row of
    the slope matrix depends on its own point only), so no n x n temporary
    is made; every entry receives the same additions in the same order as
    in the whole-matrix form, so the bits are the same.
    """
    if family.du_forward is None:
        raise ValueError("the map family has no parameter derivative, so d_u L is undefined")
    xs = circle_nodes(n)
    ys = inverse_branches(family, u, xs)
    out = np.zeros((n, n))
    for yb, interp in zip(ys, _branch_interpolation(ys, n)):
        slope_coef = value_coef = None
        du_t = family.du_forward(u, yb) * h
        if np.any(du_t != 0.0):
            branch_motion = -du_t / family.dx_forward(u, yb)
            if g.dx_value is not None:
                value_coef = branch_motion * g.dx_value(u, yb)
            slope_coef = branch_motion * g.value(u, yb)
        du_coef = g.du_value(u, yb) * h if g.du_value is not None else None
        for start in range(0, n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            if value_coef is not None:
                out[rows] += value_coef[rows, None] * interp[rows]
            if slope_coef is not None:
                out[rows] += (slope_coef[rows, None]
                              * interpolation_slopes(interp[rows], yb[rows]))
            if du_coef is not None:
                out[rows] += du_coef[rows, None] * interp[rows]
    return out


def _power_vector(mat: np.ndarray, name: str) -> np.ndarray:
    """Leading vector of ``mat``, of no fixed sign or scale, by power iteration from ones."""
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


def _coefficient_frame(n: int, lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Row scaling, mode weights and rounding factor of the two-``rfft`` coefficient layout.

    The layout interleaves Re/Im of modes 0..n//2, m = 2 (n//2 + 1)
    coordinates.  ``scale`` is the DFT normalisation divided by lambda (1/n
    on the constant and Nyquist modes, 2/n on the others), ``weight`` is
    e^(a j) on both coordinates of mode j, a = min(_MAX_WEIGHT_RATE,
    _MAX_LOG_WEIGHT / (n//2)), and the rounding of a transform of plain
    coefficient norm c is taken as ``amplification * c``, e^(a n/2) * n * eps * c.
    """
    top = n // 2
    m = 2 * (top + 1)
    scale = np.full(m, 2.0 / (n * lam))
    scale[:2] /= 2.0
    if n % 2 == 0:
        scale[-2:] /= 2.0
    rate = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / max(top, 1))
    weight = np.exp(rate * np.repeat(np.arange(top + 1), 2))
    amplification = np.exp(rate * top) * n * np.finfo(float).eps
    return scale, weight, amplification


def _sigma_estimate(rmat: np.ndarray, lam: float) -> tuple[float, int, float]:
    """Gelfand bound on rho(R/lambda) in the weighted Fourier l1 norm, its power k, and the norm.

    M = R/lambda is taken to the real trigonometric coefficient basis with
    two row ``rfft`` calls: the rows of R, then the rows of a transposed copy
    of the result.  The interleaved Re/Im layout embeds the n coefficients
    in m = 2 (n//2 + 1) coordinates; the imaginary parts of the constant and
    the Nyquist mode are exactly zero, so the extra rows and columns change
    neither the spectrum nor the norm.  The buffer then holds the transpose
    of T M T^-1 up to the DFT normalisation, which the row scaling applies
    together with the weights W = diag(e^(a j)) (see :func:`_coefficient_frame`).

    The bound for M^k is ||W M^k W^-1||_1^(1/k) (an induced norm of a
    similarity transform, hence >= rho) plus the weighted rounding of the
    transform, e^(a n/2) * n * eps * ||T M T^-1||_1.  M is squared from one
    buffer into the other, and the first k in 4, 8, 16, 32 whose bound is
    below 1 - _GAP_TOL is returned (k = 32 when none is).  The third value
    is ||W M W^-1||_1 plus the same rounding, read off the unweighted |T M T^-1|
    table with one product against the weights.
    """
    n = rmat.shape[0]
    m = 2 * (n // 2 + 1)
    x = np.empty((m, m))
    y = np.empty((m, m))
    np.fft.rfft(rmat, axis=1, out=x.view(complex)[:n])
    transposed = y.reshape(-1)[: m * n].reshape(m, n)
    np.copyto(transposed, x[:n].T)
    np.fft.rfft(transposed, axis=1, out=x.view(complex))
    scale, weight, amplification = _coefficient_frame(n, lam)
    np.abs(x, out=y)
    plain_norm = float(np.max(scale * np.add.reduce(y, axis=1)))
    rounding = amplification * plain_norm
    weighted_norm = float(np.max(scale / weight * (y @ weight))) + rounding
    x *= (scale / weight)[:, None]
    x *= weight
    np.matmul(x, x, out=y)
    for power in _SIGMA_POWERS:
        np.matmul(y, y, out=x)
        x, y = y, x
        np.abs(y, out=x)
        sigma = float(np.add.reduce(x, axis=1).max() ** (1.0 / power)) + rounding
        if sigma < 1.0 - _GAP_TOL:
            break
    return sigma, power, weighted_norm


def _near_sigma_estimate(rmat: np.ndarray, lam: float,
                         base: SpectralData) -> tuple[float, float]:
    """Gelfand bound on rho(R/lambda) near a certified R0/lambda0, and a bound on the norm.

    With M = R/lambda, M0 = R0/lambda0, E = M - M0, k = ``base.sigma_power``,
    a = ``base.weighted_norm`` and e = ||W E W^-1||_1 plus the rounding of
    E's own transform, the products of k factors M0 or E with at least one
    E are bounded by the terms of (a + e)^k - a^k.  So ||W M^k W^-1||_1 <=
    sigma0^k + (a + e)^k - a^k, whose k-th root bounds rho(M), and no power
    of M is formed.  E is taken to coefficients like M in
    :func:`_sigma_estimate`: a block of rows of R/lambda - R0/lambda0 at a
    time into one n x m buffer, then a block of its columns at a time, each
    reduced straight to its plain and weighted sums.  Like the direct bound
    this counts the rounding of the transform, not that of forming the nodal
    matrices.  The second value, a + e, bounds ||W M W^-1||_1 as
    ``weighted_norm`` does.  A NaN anywhere gives a NaN bound.
    """
    n = rmat.shape[0]
    m = 2 * (n // 2 + 1)
    coef = np.empty((n, m))
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        diff = rmat[rows] / lam
        diff -= base.r[rows] / base.lam
        np.fft.rfft(diff, axis=1, out=coef.view(complex)[rows])
    scale, weight, amplification = _coefficient_frame(n, 1.0)
    sums = np.empty((2, m))  # plain and weighted sums of each row of the transpose
    for start in range(0, m, _ROW_BLOCK):
        cols = slice(start, start + _ROW_BLOCK)
        block = np.fft.rfft(coef[:, cols], axis=0)
        mag = np.abs(block.real)
        mag += np.abs(block.imag)
        sums[0, cols] = np.add.reduce(mag, axis=0)
        sums[1, cols] = weight[::2] @ mag
    plain_norm = float(np.max(scale * sums[0]))
    bound = float(np.max(scale / weight * sums[1])) + amplification * plain_norm
    power, norm = base.sigma_power, base.weighted_norm
    cross = (norm + bound) ** power - norm ** power
    return float((base.sigma_estimate ** power + cross) ** (1.0 / power)), norm + bound


def spectral_data(
    lmat: np.ndarray,
    ell_ref: Optional[np.ndarray] = None,
    near: Optional[SpectralData] = None,
) -> SpectralData:
    """Leading eigendata by power iteration from the positive cone.

    phi is scaled to <ell_ref, phi> = 1, and ell to <ell, phi> = 1.
    ``ell_ref``, a weight vector, defaults to the Lebesgue weights 1/n:
    <1/n, phi> is the mean of the samples, which for the trigonometric
    interpolant is exactly its integral, so the default phi has integral 1
    on every grid.  The two divisions also fix the signs of the power
    vectors.  Raises MaxIterExceededError when either power iteration has
    not converged within its iteration budget, NoSpectralGapError when no
    bound on the subdominant ratio is below 1 - 1e-3,
    NormalizationVanishesError when <ell_ref, phi> is numerically zero and
    NonPositiveEigenfunctionError when the leading vector changes sign, or
    flips sign at every power step (a negative leading eigenvalue).

    The gap is certified in the Fourier coefficients with mode j weighted
    by e^(a j), a = min(0.5, 40/n): sigma is the first of the Gelfand bounds
    ||(R/lambda)^k||^(1/k), k = 4, 8, 16, 32, in that weighted l1 norm that
    falls below 1 - 1e-3, plus the rounding the weights amplify,
    e^(a n/2) * n * eps * ||R/lambda||_1 in the unweighted coefficient norm.
    An induced norm of a similar matrix bounds the spectral radius at every
    k, so sigma >= rho(R/lambda); ``sigma_power`` records the k.  R is built
    in its own buffer, and the bound needs two (n+2) x (n+2) buffers besides
    it, so at most three matrices are alive.

    ``near``, an already certified bundle of the same size, certifies the
    gap without a power of R/lambda: with M0 its R/lambda, M = M0 + E and
    k its ``sigma_power``, ||M^k|| <= sigma0^k + (a + e)^k - a^k for
    a >= ||M0|| and e >= ||E|| (see :func:`_near_sigma_estimate`).  That
    costs one transform of E in an n x (n+2) buffer beside R and the base's
    R.  When this bound is not below 1 - 1e-3 (NaN included) the direct
    bound above is taken instead, with all its powers.  The near bound can
    accept an operator that the direct bound refuses, and it is as sound.
    """
    lmat = np.asarray(lmat, dtype=float)
    phi = _power_vector(lmat, "operator")
    ell = _power_vector(lmat.T, "adjoint operator")
    if not np.min(phi) * np.max(phi) > 0.0:  # either sign: the division below fixes it
        raise NonPositiveEigenfunctionError(
            f"leading eigenvector changes sign (min {np.min(phi):.3e}, max {np.max(phi):.3e})"
        )
    lam = float(ell @ (lmat @ phi)) / float(ell @ phi)
    if lam <= 0.0:
        raise NumericsError(f"leading eigenvalue not positive: {lam:.6g}")
    if ell_ref is None:
        ell_ref = np.full(phi.size, 1.0 / phi.size)
    pairing = float(ell_ref @ phi)
    if abs(pairing) < 1e-13:
        raise NormalizationVanishesError("<ell_ref, phi> is numerically zero")
    phi /= pairing
    ell /= float(ell @ phi)
    rmat = np.outer(phi, ell)
    rmat *= lam
    np.subtract(lmat, rmat, out=rmat)
    if near is not None:
        sigma, norm = _near_sigma_estimate(rmat, lam, near)
        power = near.sigma_power
    if near is None or not sigma < 1.0 - _GAP_TOL:
        sigma, power, norm = _sigma_estimate(rmat, lam)
    if not sigma < 1.0 - _GAP_TOL:
        raise NoSpectralGapError(
            f"subdominant ratio bound {sigma:.6g} >= {1.0 - _GAP_TOL:.6g} at power {power}"
        )
    residual = sup_norm(lmat @ phi - lam * phi) / (abs(lam) * sup_norm(phi))
    phi.flags.writeable = False
    ell.flags.writeable = False
    return SpectralData(
        lam=lam,
        phi=phi,
        ell=ell,
        r=rmat,
        sigma_estimate=sigma,
        sigma_power=power,
        weighted_norm=norm,
        eigen_residual=residual,
    )


def normalized_map(family: MapFamily, g: Weight, ell_ref: np.ndarray, n: int) -> ParametrizedMap:
    """The renormalized map F(u, phi) = L_u phi / <ell_ref, L_u phi> as a ParametrizedMap.

    Carries the analytic first-order coefficients: Q(u, phi) z =
    [<l, L phi> L z - <l, L z> L phi] / <l, L phi>^2 and P from the operator
    parameter derivative.  Its fixed point is the eigenvector of L_u
    normalized against the frozen reference weights ``ell_ref``.  Its
    parameter is the vector [u], so P is the single column of the
    u-derivative.  The operator is kept for the most recent u only; the
    u-derivative is assembled on each ``p_matrix`` call.
    """
    op_cache: dict[float, np.ndarray] = {}

    def _op(u):
        lmat = op_cache.get(u)
        if lmat is None:
            lmat = assemble_operator(family, g, u, n)
            op_cache.clear()
            op_cache[u] = lmat
        return lmat

    def _image(u, phi):
        """(L_u, L_u phi, <ell_ref, L_u phi>), once the pairing is known to be nonzero."""
        lmat = _op(float(u[0]))
        lphi = lmat @ phi
        scale = float(ell_ref @ lphi)
        if abs(scale) < 1e-13:
            raise NormalizationVanishesError("<ell_ref, L phi> is numerically zero")
        return lmat, lphi, scale

    def apply(u, phi):
        _, image, scale = _image(u, phi)
        return image / scale

    def q_matrix(u, phi):
        lmat, lphi, scale = _image(u, phi)
        return lmat / scale - np.outer(lphi, lmat.T @ ell_ref) / scale**2

    def p_matrix(u, phi):
        _, lphi, scale = _image(u, phi)
        v = d_u_operator(family, g, float(u[0]), 1.0, n) @ phi
        return (v / scale - (ell_ref @ v) * lphi / scale**2)[:, None]

    return ParametrizedMap(
        apply=apply,
        state_dim=n,
        p_matrix=p_matrix,
        q_matrix=q_matrix,
    )


@dataclass(frozen=True)
class LinearResponse:
    """Leading eigendata at u0 and their directional derivatives along h.

    ``lam``, ``phi`` and ``ell`` are the eigendata of the operator at u0,
    normalized as in :class:`SpectralData`: phi has integral 1 and
    <ell, phi> = 1.  ``lam_dot``, ``phi_dot`` and ``ell_dot`` are their
    derivatives, with phi_u normalized by <ell_0, phi_u> = 1 and ell_u by
    <ell_u, phi_u> = 1, so none of them depends on the grid beyond its
    discretization error.  Every vector is a read-only length-n sample or
    weight vector; no matrix is kept.

    lambda' = <ell_0, (d_u L . h) phi_0>.  Differentiating lambda_u =
    <ell_0, L_u phi_u> also gives a term <ell_0, L_0 phi'>.  It vanishes:
    ell_0 L_0 = lambda ell_0, and <ell_0, phi'> = 0 by the normalization.  So
    lambda' needs no resolvent.
    """

    lam: float
    phi: np.ndarray
    ell: np.ndarray
    lam_dot: float
    phi_dot: np.ndarray
    ell_dot: np.ndarray

    def measure_dot(self, observable: TrigSeries) -> float:
        """Directional derivative of u -> m_u(A) = <ell_u, A phi_u>, A at the nodes."""
        a = observable(circle_nodes(self.phi.size))
        return float(self.ell_dot @ (a * self.phi)) + float(self.ell @ (a * self.phi_dot))


def linear_response(family: MapFamily, g: Weight, u0: float, h: float, n: int) -> LinearResponse:
    """The response record at u0 along h, from one decomposition and one checked inverse.

    phi' solves (Id - R/lambda) phi' = (Id - Pi)(d_u L . h) phi_0 / lambda.
    ell' solves the transposed system, (Id - R^T/lambda) ell' = (Id - Pi^T)
    ((d_u L . h)^T ell_0 - lambda' ell_0) / lambda, so it is a product with
    the transpose of the same inverse.  The derivative matrix is dropped once
    both forcings are taken, and R once Id - R/lambda is formed, so neither
    is alive during the inversion.
    """
    data = spectral_data(assemble_operator(family, g, u0, n))
    lam, phi, ell = data.lam, data.phi, data.ell
    dop = d_u_operator(family, g, u0, h, n)
    forced = dop @ phi
    adjoint_forced = dop.T @ ell
    del dop
    lam_dot = float(ell @ forced)
    system = _identity_minus(data.r / lam)
    del data
    inverse, _ = _checked_inverse(system)
    phi_dot = inverse @ ((forced - lam_dot * phi) / lam)
    adjoint_forced = adjoint_forced - lam_dot * ell
    adjoint_forced = adjoint_forced - float(adjoint_forced @ phi) * ell  # (Id - Pi^T)
    ell_dot = inverse.T @ (adjoint_forced / lam)
    phi_dot.flags.writeable = False
    ell_dot.flags.writeable = False
    return LinearResponse(lam, phi, ell, lam_dot, phi_dot, ell_dot)


def gibbs_measure(data: SpectralData, f: TrigSeries) -> float:
    """Expectation m(f) = <ell, f * phi> of the Gibbs measure built from the eigendata."""
    return float(data.ell @ (f(circle_nodes(data.phi.size)) * data.phi))


def pressure_s_derivatives(
    family: MapFamily,
    g: Weight,
    u: float,
    observables: Sequence[TrigSeries],
    n: int,
) -> list[tuple[float, float]]:
    """(d/ds log lambda(L_{s,u}) at s = 0, Gibbs expectation) for each observable A.

    Each observable A is a series, evaluated exactly at the branch points.
    The derivative is for the twist weight g * e^{sA}: a Richardson central
    difference over s in {+-delta, +-2 delta}, delta = 1e-4.  It is checked
    against the Gibbs expectation of the observable (the two are equal
    analytically) and a ConsistencyError is raised past 1e-6 relative.  The untwisted base
    operator is decomposed once for every expectation and kept: each of the
    four twisted decompositions of an observable certifies its gap near it.
    """
    base = spectral_data(assemble_operator(family, g, u, n))
    out = []
    for observable in observables:
        gibbs = gibbs_measure(base, observable)

        def log_lam(s: float) -> float:
            lmat = assemble_operator(family, twisted_weight(g, s, observable), u, n)
            return float(np.log(spectral_data(lmat, near=base).lam))

        p_d = log_lam(_TWIST_STEP)
        p_md = log_lam(-_TWIST_STEP)
        p_2d = log_lam(2 * _TWIST_STEP)
        p_m2d = log_lam(-2 * _TWIST_STEP)
        derivative = (8.0 * (p_d - p_md) - (p_2d - p_m2d)) / (12.0 * _TWIST_STEP)
        if abs(derivative - gibbs) / max(1.0, abs(gibbs)) > _PRESSURE_RTOL:
            raise ConsistencyError(
                f"pressure derivative {derivative:.12g} vs Gibbs expectation {gibbs:.12g}"
            )
        out.append((derivative, gibbs))
    return out


@dataclass(frozen=True)
class HolderScanRow:
    delta: float
    operator_diff: float
    fixed_point_diff: float


@dataclass(frozen=True)
class HolderScanReport:
    gamma: float
    rows: list[HolderScanRow]
    operator_slope: float
    fixed_point_slope: float


def holder_scan_operator(
    family: MapFamily,
    g: Weight,
    u0: float,
    direction: float,
    deltas: Sequence[float],
    alpha: float,
    beta: float,
    n: int,
    seed: int = DEFAULT_SEED,
    enforce_gamma: bool = True,
) -> HolderScanReport:
    """Hölder-in-u scan of the operator and of its leading eigenfunction.

    Measures ||(L_{u0+delta e} - L_{u0}) f||_{C^{1+beta}} for the test
    function f = 1 + sin(2 pi x) / 2 scaled to unit C^{1+alpha} surrogate
    norm, and
    ||phi_{u0+delta e} - phi_{u0}||_{C^{1+beta}} with the frozen-functional
    normalization, then fits their log-log slopes.  The slope is the
    Theil–Sen median of the pairwise slopes, so one near-cancelling
    difference (u0 + delta close to a symmetric point of u0) does not drag
    it down.  Smooth families may fit slopes above gamma = alpha - beta;
    ``enforce_gamma`` asserts the one-sided bound slope >= gamma - 0.1 and
    should be disabled for families whose parameter dependence is itself
    only Hölder.

    Each fit keeps only the differences above its quantity's noise floor:
    the power-iteration tolerance times n^(1+beta) (the C^{1+beta}
    surrogate's amplification of grid-scale noise) times the sup norm of the
    base quantity, L_{u0} f for the operator and phi_{u0} for the fixed
    point.  A slope with fewer than two differences above its floor is
    reported as ``inf`` ("not fit"), so a parameter-independent quantity
    reports ``inf`` instead of a slope fitted to rounding.
    Each shifted operator certifies its gap near the base operator.  The
    operator and phi differences of every delta are normed together, as one
    stack in one ``cr_norm`` call; the scale of the test function is the
    scan's only other norm.
    """
    if not (0.0 <= beta < alpha < 1.0):
        raise ValueError("need 0 <= beta < alpha < 1")
    gamma = alpha - beta

    raw = TrigSeries(1.0, (0.5,))(circle_nodes(n))
    test_function = raw / cr_norm(raw, 1.0 + alpha, _SCAN_PAIR_BUDGET, seed)
    base_op = assemble_operator(family, g, u0, n)
    base_data = spectral_data(base_op)
    noise_scale = _POWER_TOL * float(n) ** (1.0 + beta)
    op_floor = noise_scale * sup_norm(base_op @ test_function)
    fp_floor = noise_scale * sup_norm(base_data.phi)
    op_diffs, fp_diffs = [], []
    for delta in deltas:
        shifted_op = assemble_operator(family, g, u0 + delta * direction, n)
        op_diffs.append((shifted_op - base_op) @ test_function)
        shifted_data = spectral_data(shifted_op, ell_ref=base_data.ell, near=base_data)
        fp_diffs.append(shifted_data.phi - base_data.phi)
    norms = [float(v) for v in
             cr_norm(np.stack(op_diffs + fp_diffs), 1.0 + beta, _SCAN_PAIR_BUDGET, seed)]
    rows = [HolderScanRow(float(delta), op_diff, fp_diff)
            for delta, op_diff, fp_diff in zip(deltas, norms, norms[len(op_diffs):])]

    def _slope(values, floor):
        try:
            return theil_sen_loglog(deltas, values, floor)[0]
        except DegenerateFitError:
            return float("inf")  # parameter-independent: nothing to fit

    op_slope = _slope([r.operator_diff for r in rows], op_floor)
    fp_slope = _slope([r.fixed_point_diff for r in rows], fp_floor)
    if enforce_gamma:
        for slope in (op_slope, fp_slope):
            if np.isfinite(slope) and slope < gamma - 0.1:
                raise ConsistencyError(
                    f"fitted Hölder slope {slope:.4f} below gamma - 0.1 = {gamma - 0.1:.4f}"
                )
    return HolderScanReport(gamma, rows, op_slope, fp_slope)
