"""Weighted transfer operators of expanding circle maps and their response theory.

A degree-d expanding map of R/Z is represented by its lift T(u, x) (with
T(u, x+1) = T(u, x) + d) depending on one real parameter u.  The associated
weighted operator

    (L_u phi)(x) = sum_{T_u y = x} g(u, y) phi(y)

is discretized by collocation on N equispaced nodes with trigonometric
interpolation at the branch preimages.  The closed-form inputs (the map's
shape, a trig weight, an observable) are ``TrigSeries``, evaluated exactly
at the preimages; everything computed from them is a vector of node
samples.  The module computes leading eigendata (lambda, phi of integral
1, ell with <ell, phi> = 1; R = L - lambda phi ell^T is built only inside
the gap certificate), the renormalized fixed-point map F(u, phi) =
L_u phi / <ell_ref, L_u phi>, the parameter derivative of the operator as
a forward and an adjoint product, Gibbs measures, the pressure derivative
along an exponential twist (by first-order perturbation, from the one
decomposition of the untwisted operator), and Hölder-continuity scans of
operator and spectral data.  The linear response at a base parameter is
one record, :class:`LinearResponse`: lambda, phi, ell and their
derivatives, and through them the derivative of any Gibbs expectation, all
from one decomposition and two checked Krylov solves, on deflated products
of L equal to R/lambda and to its transpose.

The most recent operator is kept, read-only, keyed on its branch points and
its weight's samples there, so an operator reassembled at the same u with the
same weight is the kept one.  It is the only n x n array the module keeps,
and besides it a decomposition makes one, the (n+2) x (n+2) buffer of its
gap certificate (two where that certificate squares; see below).
Everything else that reads the branch interpolation matrices (assembly, the
products of the u-derivative, the pressure check) interpolates a block of
rows at a time and never makes a whole one.

Every decomposition certifies a spectral gap: an upper bound sigma < 1 on
the subdominant ratio, a Gelfand bound ||(R/lambda)^k||^(1/k) taken in a
diagonal norm of the Fourier coefficients.  The norm starts at the weights
e^(a |mode|), the norm of functions analytic in a strip, in which the
transfer operators of analytic expanding maps contract (Wormell, Numer.
Math. 142, 2019; Bandtlow and Jenkinson, Adv. Math. 218, 2008), and a few
steps of |C| v fit it to the operator.  Any positive diagonal gives an
induced norm of a similar matrix, so the fitted norm bounds the spectral
radius as the weights do; k = 1 suffices for the operators the experiments
run, and squaring to k = 2, ..., 32, in a second buffer, is kept for the
others.
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
from .fixed_point import ParametrizedMap, _checked_solve, sup_norm
from .spaces import (
    DEFAULT_SEED,
    TrigSeries,
    circle_nodes,
    cr_norm,
    interpolation_matrix,
    interpolation_products,
)

_POWER_TOL = 1e-13
_MAX_POWER_ITER = 10_000
# A gap is certified when the subdominant ratio bound is below 1 - _GAP_TOL.
_GAP_TOL = 1e-3
# The spectral-gap norm starts at the weights e^(a j) of Fourier mode j, with
# a = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / (n//2)), and no fitted norm
# spans more than e^20, so the rounding it amplifies stays far below any gap
# it certifies.
_MAX_WEIGHT_RATE = 0.5
_MAX_LOG_WEIGHT = 20.0
_SIGMA_POWERS = (1, 2, 4, 8, 16, 32)
# Steps v <- |C^k| v that fit the diagonal norm of the gap bound.  On 24
# random degree-2 trig families at n = 1024 the median k = 1 bound was 0.94
# after 8 steps, 0.71 after 12 and 0.70 after 16.  On a 2-vCPU host with
# OpenBLAS a step costs about 0.25 ms there, and the two transforms 16 ms.
_FIT_STEPS = 12
# Entries per block of branch interpolation rows (see _row_blocks), which
# assembly adds into L and the u-derivative and the pressure check multiply.
# Small blocks pay the call's fixed cost more often: on a 2-vCPU host a cold
# build at n = 1024 took 19.3 ms in blocks of 32 rows and 20.4-21.0 ms in 16,
# 64 or 128 (whole branch matrices: 24 ms), and at n = 256 1.4 ms in 128 rows,
# 1.6 in 64 and 1.8 in 32 (whole: 1.7).  For n a power of two a block holds a
# multiple of 4 rows, and OpenBLAS gave matrix-vector products of the row
# blocks bitwise equal to the whole one.
_SUM_BLOCK_ENTRIES = 1 << 15
# The gap certificate's transforms take max(16, n // 16) rows at a time.  On
# a 2-vCPU host they took 12.4 ms at n = 1024 in 64-row blocks (whole arrays:
# 16.4 ms) and 0.69 ms at n = 256 in 16 rows (whole: 0.45); 32 rows there took
# 0.59 ms but raised the traced peak of a decomposition from 1.27 to 1.52
# matrices.  At n = 64, 4 rows took 0.30 ms and 16 rows 0.10 (whole: 0.05).
_SIGMA_BLOCK = 16
# Grid on which trig_weight checks that its weight is positive.
_TRIG_WEIGHT_PROBE = 4096
# Newton on an inverse branch: the lift residual it stops at, and its step budget.
_BRANCH_TOL = 1e-13
_BRANCH_MAX_STEPS = 50
# Tolerance of the pressure derivative against the Gibbs expectation.
_PRESSURE_RTOL = 1e-6
# Random pairs of the C^{1+beta} norm in holder_scan_operator.
_SCAN_PAIR_BUDGET = 2048

# The most recent operator, read-only, keyed on (n, branch points, weight
# samples at them), which fix it exactly; see assemble_operator.
_OPERATOR_MEMO: dict[tuple[int, bytes, bytes], np.ndarray] = {}


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
    weight).  Neither the rank-one projector Pi: z -> <ell, z> phi nor
    R = L - lambda * Pi is stored, so the bundle holds no n x n matrix.
    ``sigma_estimate`` is the bound that certified the spectral gap: an
    upper bound on the spectral radius of R/lambda, a Gelfand bound on
    ||(R/lambda)^k||^(1/k) in a diagonal Fourier norm fitted to the
    operator, rounding included, at the power k = ``sigma_power``: the
    first k of 1, 2, 4, 8, 16, 32 whose bound is below 1 - 1e-3 (see
    :func:`spectral_data`).  The fit stops after a fixed number of steps,
    short of its limit, so the bound also depends on n and on that number,
    not on the operator alone.
    """

    lam: float
    phi: np.ndarray
    ell: np.ndarray
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

    The shape is the series s(x) = sum_m [sc_m sin(2 pi m x) + cc_m cos(2 pi m x)]
    / (2 pi m), so dT/dx = degree + a(u) * sum_m [sc_m cos - cc_m sin], and
    d2T/dx2 is the derivative of that slope series.
    The amplitude is a(u) = u, or |u|^kappa when ``kink_exponent`` is set
    (which forces a non-smooth parameter dependence; derivative callables
    are then absent).  kappa must be positive, or the amplitude would not
    depend on u (kappa = 0) or would blow up at u = 0: ValueError.
    """
    if kink_exponent is not None and not kink_exponent > 0.0:
        raise ValueError(f"kink exponent must be positive, got {kink_exponent:g}")
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


def _row_blocks(points: np.ndarray, n: int):
    """(rows, interpolation_matrix rows at ``points[rows]``), a block of rows at a time.

    Blocks hold max(1, _SUM_BLOCK_ENTRIES // n) rows, so past n = 128 no
    whole interpolation matrix is made.
    """
    block_rows = max(1, _SUM_BLOCK_ENTRIES // n)
    for start in range(0, points.size, block_rows):
        rows = slice(start, start + block_rows)
        yield rows, interpolation_matrix(points[rows], n)


def assemble_operator(family: MapFamily, g: Weight, u: float, n: int) -> np.ndarray:
    """Dense N x N collocation matrix of L_u phi(x_i) = sum_branches g(y) phi(y).

    The result is read-only.  L depends only on the branch points and the
    weight's samples at them, so the most recent operator is kept under
    that key: reassembled at the same u with the same weight, it is the
    kept object, and any other operator clears the memo before it is built.
    L is built a block of rows at a time (:func:`_row_blocks`), each branch
    in order adding its weighted :func:`interpolation_matrix` rows of the
    block, so past n = 128 no whole interpolation matrix is made; every
    entry receives the same additions in the same order as the whole-matrix
    sum of g_b V_b, so the bits are the same.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("resolution must be an even integer >= 8")
    ys = inverse_branches(family, u, circle_nodes(n))
    weights = [g.value(u, yb) for yb in ys]
    for w in weights:
        if not np.min(w) > 0.0:
            raise NumericsError(f"weight must be positive everywhere (min {np.min(w):.3e})")
    key = (n, ys.tobytes(), b"".join(w.tobytes() for w in weights))
    lmat = _OPERATOR_MEMO.get(key)
    if lmat is None:
        _OPERATOR_MEMO.clear()  # before the build, so two operators are never kept
        lmat = np.zeros((n, n))
        for yb, w in zip(ys, weights):
            for rows, block in _row_blocks(yb, n):
                block *= w[rows, None]
                lmat[rows] += block
                del block  # before the next block is built
        lmat.flags.writeable = False
        _OPERATOR_MEMO[key] = lmat
    return lmat


def d_u_operator(family: MapFamily, g: Weight, u: float, h: float, n: int
                 ) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The joint product (phi, w) -> ((d_u L . h) phi, (d_u L . h)^T w), per inverse branch.

    With psi an inverse branch, d_u psi . h = -(dT/du . h)(psi) / (dT/dx)(psi)
    and the branch contribution is (dg/du . h)(psi) phi(psi)
    + d/dy[g phi](psi) * (d_u psi . h): the value coefficient
    a_b = dg/du . h + dg/dy (d_u psi . h) on the value rows V_b and the slope
    coefficient s_b = g (d_u psi . h) on the slopes S_b, so the images are
    sum_b a_b V_b phi + s_b S_b phi and sum_b V_b^T (a_b w) + S_b^T (s_b w).
    S_b is the exact derivative of the interpolant that
    :func:`assemble_operator` evaluates (:func:`interpolation_products`).
    The branches are solved once per call; each product call interpolates
    each branch a block of rows at a time (:func:`_row_blocks`) and takes
    the forward and the adjoint image from the same blocks, so no n x n
    matrix is made.  A caller that needs one image passes zeros for the
    other input.  A u-independent map and weight give exact zeros.  A
    family without ``du_forward`` has no parameter derivative: ValueError.
    """
    if family.du_forward is None:
        raise ValueError("the map family has no parameter derivative, so d_u L is undefined")
    terms = []
    for yb in inverse_branches(family, u, circle_nodes(n)):
        motion = -(family.du_forward(u, yb) * h) / family.dx_forward(u, yb)
        value_coef = g.du_value(u, yb) * h if g.du_value is not None else 0.0
        if g.dx_value is not None:
            value_coef = value_coef + motion * g.dx_value(u, yb)
        terms.append((yb, value_coef, motion * g.value(u, yb)))

    def products(phi, w):
        forward = adjoint = 0.0
        for yb, a, s in terms:
            values, slopes, back = interpolation_products(_row_blocks(yb, n), yb, phi, a * w, s * w)
            forward = forward + (a * values + s * slopes)
            adjoint = adjoint + back
        return forward, adjoint

    return products


def _power_vector(mat: np.ndarray, name: str) -> np.ndarray:
    """Leading vector of ``mat``, of no fixed sign or scale, by power iteration from ones."""
    vec = np.ones(mat.shape[0])
    for _ in range(_MAX_POWER_ITER):
        nxt = mat @ vec
        scale = np.max(np.abs(nxt))
        if scale == 0.0:
            raise NumericsError(f"{name} annihilates the constant cone direction")
        if not np.isfinite(scale):
            raise NumericsError(f"{name} product is not finite (scale {scale})")
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


def _fitted_ratio(table: np.ndarray, weight: np.ndarray) -> float:
    """The least max_j (table v)_j / v_j over the diagonal norms fitted to a non-negative ``table``.

    v starts at ``weight`` and takes _FIT_STEPS steps v <- table v, each
    clipped from below so that max v / min v stays within max/min of
    ``weight``.  For any C with |C| = ``table``, the ratio of one v is the
    induced norm ||V^-1 C V||_inf of a matrix similar to C, so it bounds
    rho(C) whatever v is (Collatz–Wielandt); the steps only choose V.  Each
    product is raised by (1 + 2 m eps), m the size of the table, so that its
    rounding never lowers a ratio.  A NaN entry gives inf: it never certifies.
    """
    floor = float(weight.min() / weight.max())
    slack = 1.0 + 2.0 * table.shape[0] * np.finfo(float).eps
    v, best = weight, np.inf
    for _ in range(_FIT_STEPS + 1):
        image = table @ v
        image *= slack
        best = min(best, float(np.max(image / v)))
        top = float(np.max(image))
        if not top > 0.0:  # a zero (or NaN) table: no v does better
            break
        v = np.maximum(image, top * floor)
    return best


def _fourier_coefficients(lmat: np.ndarray, lam: float, phi: np.ndarray, ell: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
    """C, R/lambda in the real trigonometric coefficient basis, written into the m x m ``out``.

    Two row ``rfft`` passes make it, each max(16, n // 16) rows at a time
    through the same two small scratch blocks.  The first takes R =
    L - lambda phi ell^T a block of rows at a time, made in scratch, and
    writes each transformed block transposed into the columns of ``out``;
    the second transforms the rows of that result and writes each block
    back over its rows.  The interleaved Re/Im layout embeds the n
    coefficients in m = 2 (n//2 + 1) coordinates; the imaginary parts of
    the constant and the Nyquist mode are exactly zero, so the extra rows
    and columns change neither the spectrum nor the norm.  Scaled by the
    DFT normalisation over lambda (1/n on the constant and Nyquist modes,
    2/n on the others) the buffer holds C, the transpose of T M T^-1 for
    M = R/lambda.  Each row's transform is the one the whole array gets,
    so the bits do not depend on the block.
    """
    n, m = lmat.shape[0], out.shape[0]
    block_rows = max(_SIGMA_BLOCK, n // _SIGMA_BLOCK)
    r_rows = np.empty((block_rows, n))
    coefs = np.empty((block_rows, m // 2), dtype=complex)
    for start in range(0, n, block_rows):
        size = min(block_rows, n - start)
        block = np.outer(phi[start : start + size], ell, out=r_rows[:size])
        block *= lam
        np.subtract(lmat[start : start + size], block, out=block)
        out[:, start : start + size] = np.fft.rfft(block, axis=1, out=coefs[:size]).view(float).T
    scale = np.full(m, 2.0 / (n * lam))
    scale[:2] /= 2.0
    if n % 2 == 0:
        scale[-2:] /= 2.0
    for start in range(0, m, block_rows):
        size = min(block_rows, m - start)
        rows = out[start : start + size]
        np.multiply(np.fft.rfft(rows[:, :n], axis=1, out=coefs[:size]).view(float),
                    scale[start : start + size, None], out=rows)
    return out


def _sigma_estimate(lmat: np.ndarray, lam: float, phi: np.ndarray,
                    ell: np.ndarray) -> tuple[float, int]:
    """Gelfand bound on rho(R/lambda) in a diagonal norm fitted to the operator, and its power k.

    C (:func:`_fourier_coefficients`) is made in one (n+2) x (n+2) buffer,
    and |C| replaces it there.  The bound for C^k is the k-th root of
    :func:`_fitted_ratio` of |C^k|, whose diagonal norm starts at the
    weights e^(a j) of mode j, a = min(_MAX_WEIGHT_RATE,
    _MAX_LOG_WEIGHT / (n//2)), the norm of functions analytic in a strip,
    plus the rounding of the transform that a weight range of e^(a n/2)
    amplifies, e^(a n/2) * n * eps * ||C||_inf.  Every fitted v keeps
    max v / min v <= e^(a n/2), so that term covers it.  k = 1 is tried
    first; only when its bound is not below 1 - _GAP_TOL is C made again
    in the buffer and squared from it into a second one, k = 2, 4, 8, 16,
    32, and the first k whose bound is below it is returned (k = 32 when
    none is).
    """
    n = lmat.shape[0]
    top = n // 2
    m = 2 * (top + 1)
    x = _fourier_coefficients(lmat, lam, phi, ell, np.empty((m, m)))
    rate = min(_MAX_WEIGHT_RATE, _MAX_LOG_WEIGHT / max(top, 1))
    weight = np.exp(rate * np.repeat(np.arange(top + 1), 2))
    table = np.abs(x, out=x)
    amplification = np.exp(rate * top) * n * np.finfo(float).eps
    rounding = amplification * float(np.add.reduce(table, axis=1).max())
    sigma, power = _fitted_ratio(table, weight) + rounding, 1
    if not sigma < 1.0 - _GAP_TOL:
        x, y = _fourier_coefficients(lmat, lam, phi, ell, x), np.empty((m, m))
        for power in _SIGMA_POWERS[1:]:
            np.matmul(x, x, out=y)
            x, y = y, x
            np.abs(x, out=y)
            sigma = _fitted_ratio(y, weight) ** (1.0 / power) + rounding
            if sigma < 1.0 - _GAP_TOL:
                break
    return sigma, power


def spectral_data(
    lmat: np.ndarray,
    ell_ref: Optional[np.ndarray] = None,
) -> SpectralData:
    """Leading eigendata by power iteration from the positive cone.

    phi is scaled to <ell_ref, phi> = 1, and ell to <ell, phi> = 1.
    ``ell_ref``, a weight vector, defaults to the Lebesgue weights 1/n:
    <1/n, phi> is the mean of the samples, which for the trigonometric
    interpolant is exactly its integral, so the default phi has integral 1
    on every grid.  The two divisions also fix the signs of the power
    vectors.  Raises NumericsError at the first power step whose product is
    not finite, MaxIterExceededError when either power iteration has
    not converged within its iteration budget, NoSpectralGapError when no
    bound on the subdominant ratio is below 1 - 1e-3,
    NormalizationVanishesError when <ell_ref, phi> is numerically zero and
    NonPositiveEigenfunctionError when the leading vector changes sign, or
    flips sign at every power step (a negative leading eigenvalue).

    The gap is certified in the Fourier coefficients of R/lambda, in a
    diagonal norm fitted to the operator: sigma is the least
    max_j (|C^k| v)_j / v_j over a few vectors v that start at the weights
    e^(a j) of mode j, a = min(0.5, 40/n), and follow v <- |C^k| v, plus the
    rounding those weights amplify (see :func:`_sigma_estimate`).  Each v
    gives an induced norm of a matrix similar to (R/lambda)^k, so
    sigma >= rho(R/lambda) at every power.  k = 1 is tried first, and the
    powers k = 2, 4, 8, 16, 32 only when its bound is not below 1 - 1e-3;
    ``sigma_power`` records the k.  R is made a block of rows at a time
    and transformed into the bound's one (n+2) x (n+2) buffer, so that
    buffer is the only matrix made here, and a second one only when k = 1
    does not certify.
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
    sigma, power = _sigma_estimate(lmat, lam, phi, ell)
    if not sigma < 1.0 - _GAP_TOL:
        raise NoSpectralGapError(
            f"subdominant ratio bound {sigma:.6g} >= {1.0 - _GAP_TOL:.6g} at power {power}"
        )
    residual = sup_norm(lmat @ phi - lam * phi) / (abs(lam) * sup_norm(phi))
    phi.flags.writeable = False
    ell.flags.writeable = False
    return SpectralData(lam, phi, ell, sigma, power, residual)


def normalized_map(family: MapFamily, g: Weight, ell_ref: np.ndarray, n: int) -> ParametrizedMap:
    """The renormalized map F(u, phi) = L_u phi / <ell_ref, L_u phi> as a ParametrizedMap.

    Carries the analytic first-order coefficients as products, both the
    derivative v -> v / s - <l, v> L phi / s^2 of w -> w / <l, w> at
    w = L phi, s = <l, L phi>: Q z takes v = L z and keeps L, and P h takes
    v = (d_u L) phi times h, the forward image of one :func:`d_u_operator`
    product, which interpolates a block of rows at a time, so L is the only
    n x n matrix the map holds or makes.
    Its fixed point is the eigenvector of L_u normalized against the frozen
    reference weights ``ell_ref``, and its parameter is the vector [u].  The
    operator is kept for the most recent u only.
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

    def _tangent(u, phi):
        """v -> v / s - <l, v> L phi / s^2, the derivative of w -> w / <l, w> at w = L phi."""
        _, lphi, scale = _image(u, phi)
        return lambda v: v / scale - (ell_ref @ v) * lphi / scale**2

    def q_product(u, phi):
        tangent, lmat = _tangent(u, phi), _op(float(u[0]))
        return lambda z: tangent(lmat @ z)

    def p_product(u, phi):
        forced, _ = d_u_operator(family, g, float(u[0]), 1.0, n)(phi, np.zeros(n))
        col = _tangent(u, phi)(forced)
        return lambda h: col * float(h[0])

    return ParametrizedMap(
        apply=apply,
        state_dim=n,
        p_product=p_product,
        q_product=q_product,
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
    """The response record at u0 along h, from one decomposition and two checked Krylov solves.

    phi' solves (Id - R/lambda) phi' = (Id - Pi)(d_u L . h) phi_0 / lambda,
    and ell' the transposed system, (Id - R^T/lambda) ell' = (Id - Pi^T)
    ((d_u L . h)^T ell_0 - lambda' ell_0) / lambda, which the gap
    certificate proves nonsingular (:func:`_checked_solve`).  The solves run
    on z -> L z / lambda - <ell, z> phi and its transpose, R/lambda and
    R^T/lambda as products of L, and both forcings come from one joint
    product of :func:`d_u_operator`, which interpolates each branch a block
    of rows at a time, so beyond L the record makes no n x n matrix but the
    gap certificate's buffer, which is gone before the forcings are made.
    """
    lmat = assemble_operator(family, g, u0, n)
    data = spectral_data(lmat)
    lam, phi, ell = data.lam, data.phi, data.ell
    forced, adjoint_forced = d_u_operator(family, g, u0, h, n)(phi, ell)
    lam_dot = float(ell @ forced)
    phi_dot = _checked_solve(lambda z: lmat @ z / lam - float(ell @ z) * phi,
                             (forced - lam_dot * phi) / lam)
    adjoint_forced = adjoint_forced - lam_dot * ell
    adjoint_forced = adjoint_forced - float(adjoint_forced @ phi) * ell  # (Id - Pi^T)
    ell_dot = _checked_solve(lambda z: lmat.T @ z / lam - float(phi @ z) * ell,
                             adjoint_forced / lam)
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

    The twisted operator L_{s,u} has the weight g * e^{sA}, A a series
    evaluated exactly at the branch points, so its s-derivative at s = 0 is
    L_A phi = sum_b g(y_b) A(y_b) phi(y_b), and first-order perturbation of
    the simple leading eigenvalue (the base decomposition's gap certificate
    proves it simple) gives d/ds log lambda = <ell, L_A phi> / lambda, with
    <ell, phi> = 1.  phi(y_b) is the product of phi with the branch's
    :func:`interpolation_matrix`, taken after the decomposition a block of
    rows at a time (:func:`_row_blocks`), so the check makes no n x n matrix
    beyond L and the decomposition's; no L_A is built (its weight changes
    sign).

    Each derivative is checked against the Gibbs expectation <ell, A phi> of
    the observable at the nodes, and a ConsistencyError is raised past 1e-6
    relative.  The two are equal analytically; on the grid they differ by the
    interpolation error of A phi at the branch points, so the check measures
    the consistency of the discretization.
    """
    base = spectral_data(assemble_operator(family, g, u, n))
    ys = inverse_branches(family, u, circle_nodes(n))
    weighted_phi = []
    for yb in ys:
        branch_phi = np.empty(n)
        for rows, block in _row_blocks(yb, n):
            branch_phi[rows] = block @ base.phi
            del block  # before the next block is built
        weighted_phi.append(g.value(u, yb) * branch_phi)
    out = []
    for observable in observables:
        twisted_phi = sum(observable(yb) * gphi for yb, gphi in zip(ys, weighted_phi))
        derivative = float(base.ell @ twisted_phi) / base.lam
        gibbs = gibbs_measure(base, observable)
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
    Each shifted operator certifies its own gap.  Each operator difference
    is taken a block of rows at a time, so it makes no n x n array.  The
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
    block_rows = max(1, _SUM_BLOCK_ENTRIES // n)
    op_diffs, fp_diffs = [], []
    for delta in deltas:
        shifted_op = assemble_operator(family, g, u0 + delta * direction, n)
        op_diff = np.empty(n)
        for start in range(0, n, block_rows):
            rows = slice(start, start + block_rows)
            op_diff[rows] = (shifted_op[rows] - base_op[rows]) @ test_function
        op_diffs.append(op_diff)
        shifted_data = spectral_data(shifted_op, ell_ref=base_data.ell)
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
