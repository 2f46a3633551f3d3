"""Contraction fixed points on a scale of norms and their parameter derivatives.

States and parameters are plain sample vectors; the norms that distinguish
the fine and coarse spaces of a scale are supplied as callables (typically
built from :func:`circleresp.spaces.cr_norm`).  The central operation solves

    (Id - Q0) z = P0 h

for the directional derivative of a fixed point with respect to its
parameter, where P0 and Q0 are the analytic first-order coefficients of the
map's increment expansion around the fixed point.  The order-2 variant
solves the same system for the right-hand side of the order-2 coefficient
b0: the symmetric bilinear form in the joint increment (h, z) whose
diagonal b0(h, z, h, z) is the order-2 term of the development of
F(u+h, phi+z) - F(u, phi).  Every coefficient is a product made once at the
base point, not a matrix, and each solve is one checked Krylov solve on
products of Q0 (:func:`_checked_solve`).

Fixed points are found by Picard iteration.  One loop
(:func:`solve_fixed_points`) solves a stack of parameters at once: each row
keeps the iterates, stopping rule, divergence windows and errors of its own
one-row solve, and the map is applied to the whole stack at every step,
in one call where it supplies ``apply_rows``, until the last row finishes.
:func:`solve_fixed_point` is the one-row call of that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    MaxIterExceededError,
    NonContractionError,
    NumericsError,
    SingularSystemError,
)
from .fitting import theil_sen_loglog

Norm = Callable[[np.ndarray], float]
# A norm of each row of a stack of vectors.
StackNorm = Callable[[np.ndarray], np.ndarray]
Product = Callable[[np.ndarray], np.ndarray]  # a linear map A as its products v -> A v

# Increment-ratio window for contraction monitoring (Picard iterates of k-step
# contractions oscillate; the window smooths this out).
_RATIO_WINDOW = 5
_MAX_BAD_WINDOWS = 20

# The checked solve's budget of Arnoldi steps, each one product with Q (the
# experiments' systems take 1-16), and its unit of rounding.
_KRYLOV_STEPS = 100
_KRYLOV_ULP = np.finfo(float).eps

# The Taylor fit's floor in coarse norms of phi0's defect F(u0, phi0) - phi0:
# rounding residuals measured 1.1-3.9 defects, real ones at least 5.9e3.
_TAYLOR_DEFECTS = 32.0


def sup_norm(v) -> float:
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True)
class ParametrizedMap:
    """A map (u, phi) -> phi with optional analytic increment coefficients, one per order.

    ``apply`` must be deterministic.  ``apply_rows(us, phis)``, when given,
    applies the map to a stack at once: row r of its result is bitwise
    ``apply(us[r], phis[r])`` for the k x p parameter rows ``us`` and the
    k state rows ``phis``.  A Picard solve passes it the same whole
    parameter stack at every step, finished rows included.

    Every coefficient is a product made once at the base point (u, phi)
    with what it reuses there.  ``p_product(u, phi)`` and
    ``q_product(u, phi)`` return the first-order products h -> P h and
    z -> Q z.  ``q2_product(u, phi)`` returns the order-2 product
    b(h1, z1, h2, z2), the symmetric bilinear form in the joint increment
    v = (h, z) whose diagonal is the order-2 term of the development

        F(u+h, phi+z) - F(u, phi) = P h + Q z + b(h, z, h, z) + o(2),

    i.e. it carries its own combinatorial factor (b(h, z, h, z) is the full
    quadratic term, not half of it).  It is symmetric bitwise: swapping
    (h1, z1) with (h2, z2) gives the same bits.
    """

    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p_product: Optional[Callable[[np.ndarray, np.ndarray], Product]] = None
    q_product: Optional[Callable[[np.ndarray, np.ndarray], Product]] = None
    q2_product: Optional[Callable[[np.ndarray, np.ndarray], Callable]] = None
    apply_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class FixedPointResult:
    phi_star: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float


def _contraction_estimate(increments) -> float:
    if len(increments) < 2:
        return 0.0
    arr = np.asarray(increments)
    ratios = arr[1:] / arr[:-1]
    return float(np.median(ratios))


def _row_by_row(apply):
    """The stack form of a one-row map: one ``apply`` per row, stacked."""
    return lambda us, phis: np.stack([apply(u, phi) for u, phi in zip(us, phis)])


def _row_label(row: int, rows: int) -> str:
    """The prefix naming a row in the errors of a stack of more than one row."""
    return f"row {row}: " if rows > 1 else ""


def solve_fixed_points(
    fmap: ParametrizedMap,
    us,
    phi0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    norm: Norm = sup_norm,
) -> list[FixedPointResult]:
    """Picard iteration phi_r <- F(us[r], phi_r) for every row r of a parameter stack.

    ``us`` is a k x p stack of parameter vectors, and ``phi0`` one starting
    state for every row or a stack of k of them.  Each row stops once the
    residual norm of its own step drops below tol, so it keeps the
    iterates, iteration count, residual and contraction estimate of the
    one-row solve :func:`solve_fixed_point`.  Divergence is declared only
    after _MAX_BAD_WINDOWS consecutive _RATIO_WINDOW-step increment windows
    with geometric-mean ratio >= 1, so maps that contract only as a k-step
    iterate still pass.  The first row to diverge, to exhaust max_iter or
    to take a step that is not finite (NumericsError, naming the iteration)
    raises, in step order and then row order.  Each step applies the map to
    the whole stack until the last row finishes: in one ``apply_rows`` call
    where the map has it, otherwise one ``apply`` per row.  A finished row
    keeps the result of its own stopping step, and ``norm`` is called once
    per unfinished row.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    us = np.asarray(us, dtype=float)
    k = us.shape[0]
    if k == 0:
        return []
    phi0 = np.asarray(phi0, dtype=float)
    phis = np.array(np.broadcast_to(phi0, (k, phi0.shape[-1])))
    apply_rows = fmap.apply_rows or _row_by_row(fmap.apply)
    increments: list[list[float]] = [[] for _ in range(k)]
    bad_windows = [0] * k
    results: list[Optional[FixedPointResult]] = [None] * k
    for iteration in range(max_iter + 1):
        nxt = apply_rows(us, phis)
        finite = np.isfinite(nxt).all(axis=1)
        for row in range(k):
            if results[row] is not None:
                continue
            if not finite[row]:
                raise NumericsError(_row_label(row, k)
                                    + f"non-finite step at iteration {iteration}")
            res = norm(nxt[row] - phis[row])
            history = increments[row]
            if res <= tol:
                results[row] = FixedPointResult(phis[row], iteration, res,
                                                _contraction_estimate(history))
                continue
            history.append(res)
            if len(history) > _RATIO_WINDOW:
                window = (history[-1] / history[-1 - _RATIO_WINDOW]) ** (1.0 / _RATIO_WINDOW)
                if window >= 1.0:
                    bad_windows[row] += 1
                    if bad_windows[row] >= _MAX_BAD_WINDOWS:
                        raise NonContractionError(
                            _row_label(row, k) + f"increment ratio >= 1 for {bad_windows[row]} "
                            f"consecutive windows (last residual {res:.3e})"
                        )
                else:
                    bad_windows[row] = 0
        if None not in results:
            return results
        phis = nxt
    row = results.index(None)
    raise MaxIterExceededError(
        _row_label(row, k) + f"no fixed point within {max_iter} iterations "
        f"(residual {increments[row][-1]:.3e}, tol {tol:.3e})"
    )


def solve_fixed_point(
    fmap: ParametrizedMap,
    u,
    phi0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    norm: Norm = sup_norm,
) -> FixedPointResult:
    """Picard iteration phi <- F(u, phi) until the residual norm drops below tol.

    The one-row call of :func:`solve_fixed_points`, with its stopping rule
    and divergence windows.
    """
    u = np.asarray(u, dtype=float)
    return solve_fixed_points(fmap, u[None], phi0, tol, max_iter, norm)[0]


def _checked_solve(q: Product, b) -> np.ndarray:
    """x with x - Q x = b: GMRES on products of Q, accepted on its true residual.

    Arnoldi orthogonalizes each product twice by modified Gram–Schmidt, and
    least squares solves the Hessenberg problem.  The stop is the true
    residual r = b - (x - Q x) at ||r|| <= sqrt(n) _KRYLOV_ULP (||b|| + ||x||),
    2-norms, within _KRYLOV_STEPS steps (MaxIterExceededError names the steps
    and the relative residual); a projection at the stop whose r is not
    restarts from r.  b = 0 gives exact zeros; a non-finite b or product
    raises NumericsError at once.  At a breakdown, a new direction within
    sqrt(n) eps of the basis, the Krylov space is invariant and its
    least-squares solution exact, unless b is off the range of Id - Q: a
    misfit above the stop and the least-squares rounding raises
    SingularSystemError.

    So x solves a system within rounding of the given one, with error at
    most ||(Id - Q)^-1|| ||r|| in any norm that bounds that inverse; the
    solve bounds it in none.  On the circle the systems are R/lambda and
    R^T/lambda, as deflated products of L, and the gap certificate proves
    them nonsingular: ||(R/lambda)^k|| <= sigma^k < 1 in the fitted Fourier
    norm at sigma's power k, so there ||(Id - R/lambda)^-1|| <= sum_{j<k}
    ||(R/lambda)^j|| / (1 - sigma^k), 1 / (1 - sigma) at k = 1; the dual
    norm gives R^T the same, and the renormalized map's Q0 at its fixed
    point is R/lambda when ell normalizes it.  That bound lives in the
    fitted norm, whose weights spread up to e^20, so it gives no usable
    bound on the 2-norm error.  On the interval, the contraction bounds
    (1 + r)/2 of the composition map and 1/2 of the affine map hold for the
    exact compositions, not for the spline reading solved here, whose sup
    norm (the Lebesgue constant) is about 1.97.  At u = 0, where the
    composition check solves, phi = 0 reads every point at 0, so Q0 z =
    z(0)/2, i.e. Q0 = 1 c^T / 2 with c the spline's cardinal weights at 0
    (sum c = 1).  Then (Id - Q0)^-1 = Id + 1 c^T, whose sup norm
    1 + ||c||_1 bounds the error by that times ||r||: 2 on an odd grid,
    where 0 is a node and c its unit vector, and 2.549 on the even grids
    of 64 to 1024 nodes, where it is not.  Off zero, and on the affine map,
    nothing bounds (Id - Q0)^-1.  So a singular system breaks down above
    the stop, a NaN one fails at once, and a nearly singular one, which the
    two certificates above exclude, is elsewhere solved to the stop, with
    an error that nothing bounds.
    """
    b = np.asarray(b, dtype=float)
    b_norm, floor = float(np.linalg.norm(b)), np.sqrt(b.size) * _KRYLOV_ULP
    x, residual, steps, misfit = np.zeros(b.size), b, 0, None
    while True:
        res_norm = float(np.linalg.norm(residual))
        stop = floor * (b_norm + float(np.linalg.norm(x)))
        if not np.isfinite(res_norm):
            raise NumericsError(f"non-finite b or product after {steps} Krylov steps")
        if res_norm <= stop:
            return x
        if misfit is not None and misfit > stop:
            raise SingularSystemError(f"x - Q x = b has no solution: its least-squares residual on "
                                      f"an invariant Krylov space is {misfit / b_norm:.3e} ||b||")
        if steps >= _KRYLOV_STEPS:
            raise MaxIterExceededError(f"Krylov solve of x - Q x = b not converged after {steps} "
                                       f"steps (relative residual {res_norm / b_norm:.3e})")
        basis = [residual / res_norm]
        hess = np.zeros((_KRYLOV_STEPS + 1, _KRYLOV_STEPS))
        head = np.r_[res_norm, np.zeros(_KRYLOV_STEPS)]
        for k in range(_KRYLOV_STEPS - steps):
            image = q(basis[k])
            w = basis[k] - image
            for _ in range(2):
                for j, v in enumerate(basis):
                    dot = float(v @ w)
                    hess[j, k] += dot
                    w -= dot * v
            hess[k + 1, k] = np.linalg.norm(w)
            steps += 1
            if not np.isfinite(hess[k + 1, k]):
                raise NumericsError(f"non-finite b or product after {steps} Krylov steps")
            broke = not hess[k + 1, k] > floor * (1.0 + float(np.linalg.norm(image)))
            h, rhs = hess[: k + 1 + (not broke), : k + 1], head[: k + 1 + (not broke)]
            y = np.linalg.lstsq(h, rhs, rcond=None)[0]
            fit = float(np.linalg.norm(rhs - h @ y))
            if broke or fit <= floor * (b_norm + np.linalg.norm(x) + np.linalg.norm(y)):
                break
            basis.append(w / hess[k + 1, k])
        # a misfit within the least-squares rounding is an ill-conditioned projection: refine
        rounding = (k + 1) * _KRYLOV_ULP * np.linalg.norm(h) * np.linalg.norm(y)
        misfit = fit if broke and fit > rounding else None
        x = x + np.stack(basis[: k + 1], axis=1) @ y
        residual = b - (x - q(x))


def fixed_point_derivative(p0: Product, q0: Product, h) -> np.ndarray:
    """Directional derivative z = (Id - Q0)^-1 P0 h of the fixed point, from the products P0, Q0.

    One checked Krylov solve on products of Q0 (:func:`_checked_solve`), so z
    is accepted on its true residual.
    """
    return _checked_solve(q0, p0(np.asarray(h, dtype=float)))


@dataclass(frozen=True)
class TaylorRow:
    h_norm: float
    z_norm: float
    residual_norm: float
    normalized_residual: float


@dataclass(frozen=True)
class TaylorResidualReport:
    rows: list[TaylorRow]
    fitted_order: float
    n_points: int


def _require(fmap: ParametrizedMap, *names: str) -> None:
    """ValueError naming the first of the coefficients ``names`` that ``fmap`` lacks."""
    for name in names:
        if getattr(fmap, name) is None:
            raise ValueError(f"map does not supply {name}")


def taylor_residual_scan(
    fmap: ParametrizedMap,
    u0,
    phi0,
    h_direction,
    deltas: Sequence[float],
    coarse_norm: StackNorm,
    tol: float = 1e-12,
) -> TaylorResidualReport:
    """Residual of the first-order increment expansion along h = delta * direction.

    For each delta the scan solves for the perturbed fixed point, forms
    z = phi(u0+h) - phi(u0) and measures

        || F(u0+h, phi0+z) - F(u0, phi0) - P0 h - Q0 z ||_coarse,

    with P0 and Q0 the map's products at (u0, phi0); ValueError names the
    first one the map lacks, before any solve.  The residual is what the
    development leaves beyond its first order, the order-2 term
    b0(h, z, h, z) of ``q2_product`` and smaller.  The scan reports the
    raw and normalized residuals and the order of the development: the
    Theil–Sen log-log slope of the residual against ||h|| (the sup norm of
    h), and the number of points it kept.  phi0 must be the
    fixed point at u0.  The fit keeps the residuals above ``_TAYLOR_DEFECTS``
    coarse norms of phi0's defect F(u0, phi0) - phi0, which is rounding of
    the size that an exact development leaves in every residual; with fewer
    than two above it, the order is ``inf`` and no point is kept.
    ``coarse_norm`` maps a stack of vectors, one per row, to its row norms;
    the scan calls it once, on the residual vectors of every delta, their z
    vectors and the defect, so a norm that shares work across rows
    (``cr_norm`` of a stack) does it once per scan.
    """
    _require(fmap, "p_product", "q_product")
    u0 = np.asarray(u0, dtype=float)
    phi0 = np.asarray(phi0, dtype=float)
    p0 = fmap.p_product(u0, phi0)
    q0 = fmap.q_product(u0, phi0)
    direction = np.asarray(h_direction, dtype=float)
    base_value = fmap.apply(u0, phi0)
    direction_norm = sup_norm(direction)
    residuals, zs = [], []
    for delta in deltas:
        h = delta * direction
        shifted = solve_fixed_point(fmap, u0 + h, phi0, tol=tol)
        z = shifted.phi_star - phi0
        residuals.append(fmap.apply(u0 + h, phi0 + z) - base_value - p0(h) - q0(z))
        zs.append(z)
    norms = [float(v) for v in coarse_norm(np.stack(residuals + zs + [base_value - phi0]))]
    rows = []
    for delta, residual, z_norm in zip(deltas, norms, norms[len(residuals):]):
        h_norm = abs(delta) * direction_norm
        denom = h_norm + z_norm
        rows.append(
            TaylorRow(h_norm, z_norm, residual, residual / denom if denom > 0.0 else 0.0)
        )
    try:
        order, kept = theil_sen_loglog([r.h_norm for r in rows], [r.residual_norm for r in rows],
                                       _TAYLOR_DEFECTS * norms[-1])
    except DegenerateFitError:
        order, kept = float("inf"), 0  # residuals at rounding floor: development is exact
    return TaylorResidualReport(rows, order, kept)


def fixed_point_second_derivatives(
    fmap: ParametrizedMap,
    u0,
    phi0,
    pairs: Sequence[tuple],
    tol: float = 1e-12,
) -> list[np.ndarray]:
    """Second derivatives D^2 phi(u0)[h1, h2] of the fixed point, one per pair (h1, h2).

    Requires the analytic coefficients p_product, q_product and q2_product
    on ``fmap``; ValueError names the first one missing.  With z_i = (Id -
    Q0)^-1 P0 h_i the first derivatives along h_i, the second derivative of
    F along the joint increments (h_i, z_i) is

        R2 = 2 b0(h1, z1, h2, z2),

    b0 the symmetric order-2 product whose diagonal is the order-2 term of
    the development, and D^2 phi[h1,h2] = (Id - Q0)^-1 R2.  The base fixed
    point and the products P0, Q0 and b0 are made once for all pairs, b0 is
    called once per pair, and every z_i and D^2 phi is one checked Krylov
    solve on products of Q0 (:func:`_checked_solve`), with no square
    array.  ``phi0`` starts the base Picard solve; when it is already the
    fixed point at u0, the solve returns it bitwise after one application
    of the map.
    """
    _require(fmap, "p_product", "q_product", "q2_product")
    u0 = np.asarray(u0, dtype=float)
    phi = solve_fixed_point(fmap, u0, phi0, tol=tol).phi_star
    p0 = fmap.p_product(u0, phi)
    q0 = fmap.q_product(u0, phi)
    b0 = fmap.q2_product(u0, phi)
    out = []
    for h1, h2 in pairs:
        h1 = np.asarray(h1, dtype=float)
        h2 = np.asarray(h2, dtype=float)
        z1 = _checked_solve(q0, p0(h1))
        z2 = z1 if h2 is h1 or np.array_equal(h1, h2) else _checked_solve(q0, p0(h2))
        out.append(_checked_solve(q0, 2.0 * b0(h1, z1, h2, z2)))
    return out
