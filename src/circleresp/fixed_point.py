"""Contraction fixed points on a scale of norms and their parameter derivatives.

States and parameters are plain sample vectors; the norms that distinguish
the fine and coarse spaces of a scale are supplied as callables (typically
built from :func:`circleresp.spaces.cr_norm`).  The central operation solves

    (Id - Q0) z = P0 h

for the directional derivative of a fixed point with respect to its
parameter, where P0 and Q0 are the analytic first-order coefficients of the
map's increment expansion around the fixed point.  The order-2 variant
assembles the quadratic coefficients into a right-hand side and solves the
same system.  Each system has one checked inverse (:func:`_checked_inverse`),
every solve against it is a product with that inverse, and the check's
||(Id - Q0)^-1||_1 certifies the Neumann sum that cross-checks the first.

Fixed points are found by Picard iteration.  One loop
(:func:`solve_fixed_points`) solves a stack of parameters at once: each row
keeps the iterates, stopping rule, divergence windows and errors of its own
one-row solve, and a map that supplies ``apply_rows`` is applied to every
active row in one call.  :func:`solve_fixed_point` is the one-row call of
that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateFitError,
    MaxIterExceededError,
    MissingCoefficientError,
    NonContractionError,
    SingularSystemError,
)
from .fitting import theil_sen_loglog

Norm = Callable[[np.ndarray], float]
# A norm of each row of a stack of vectors.
StackNorm = Callable[[np.ndarray], np.ndarray]

# Increment-ratio window for contraction monitoring (Picard iterates of k-step
# contractions oscillate; the window smooths this out).
_RATIO_WINDOW = 5
_MAX_BAD_WINDOWS = 20

_SINGULAR_SV = 1e-10

# The Taylor fit's floor in coarse norms of phi0's defect F(u0, phi0) - phi0:
# rounding residuals measured 1.1-3.9 defects, real ones at least 5.9e3.
_TAYLOR_DEFECTS = 32.0


def sup_norm(v) -> float:
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True)
class ParametrizedMap:
    """A map (u, phi) -> phi with optional analytic increment coefficients.

    ``apply`` must be deterministic.  ``apply_rows(us, phis)``, when given,
    applies the map to a stack at once: row r of its result is bitwise
    ``apply(us[r], phis[r])`` for the k x p parameter rows ``us`` and the
    k x state_dim state rows ``phis``.  ``p_matrix(u, phi)`` and
    ``q_matrix(u, phi)`` return the dense first-order coefficients (parameter
    and state slots).  ``q20``, ``q11``, ``q02`` are the order-2 coefficients
    of the increment expansion

        F(u+h, phi+z) - F(u, phi)
            = P h + Q z + q20[h,h] + q11[h,z] + q02[z,z] + o(2),

    i.e. they carry their own combinatorial factors (q20[h,h] is the full
    quadratic term, not half of it).
    """

    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    state_dim: int
    p_matrix: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    q_matrix: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    q20: Optional[Callable] = None
    q11: Optional[Callable] = None
    q02: Optional[Callable] = None
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
    state for every row or a k x state_dim stack of them.  Each row stops
    once the residual norm of its own step drops below tol, so it keeps the
    iterates, iteration count, residual and contraction estimate of the
    one-row solve :func:`solve_fixed_point`.  Divergence is declared only
    after _MAX_BAD_WINDOWS consecutive _RATIO_WINDOW-step increment windows
    with geometric-mean ratio >= 1, so maps that contract only as a k-step
    iterate still pass.  The first row to diverge or to exhaust max_iter
    raises, in step order and then row order.  Each step applies the map to
    the rows not yet finished: in one ``apply_rows`` call where the map has
    it, otherwise one ``apply`` per row; ``norm`` is called once per row.
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
    rows = list(range(k))
    increments: list[list[float]] = [[] for _ in rows]
    bad_windows = [0] * k
    results: list[Optional[FixedPointResult]] = [None] * k
    for iteration in range(max_iter + 1):
        nxt = apply_rows(us, phis)
        keep = []
        for j, row in enumerate(rows):
            res = norm(nxt[j] - phis[j])
            history = increments[row]
            if res <= tol:
                results[row] = FixedPointResult(phis[j], iteration, res,
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
            keep.append(j)
        if not keep:
            return results
        if len(keep) < len(rows):
            rows = [rows[j] for j in keep]
            us, nxt = us[keep], nxt[keep]
        phis = nxt
    row = rows[0]
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


def _checked_inverse(system: np.ndarray) -> tuple[np.ndarray, float]:
    """The inverse of a square system and its norm ||A^-1||_1, after refusing a singular one.

    The smallest singular value of an n x n system is at least
    1 / (sqrt(n) ||A^-1||_1), and that bound is computed exactly from
    ``np.linalg.inv``.  Raises SingularSystemError unless the bound exceeds
    1e-10 (an exactly singular system has bound 0, a NaN bound fails too).
    So every system with smallest singular value <= 1e-10 is refused, and a
    system is refused only if its smallest singular value is <= n * 1e-10.
    Every solve against a checked system is ``inverse @ rhs``, and the same
    ||A^-1||_1 bounds its forward error: to first order, and barring large
    pivot growth, ||x - inverse @ rhs||_1 <= c n eps ||A^-1||_1
    (||A||_1 ||x||_1 + ||rhs||_1) for a modest constant c.
    """
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        inverse, inverse_norm = None, np.inf  # exactly singular: the bound is 0
    else:
        inverse_norm = float(np.linalg.norm(inverse, 1))
    bound = 1.0 / (np.sqrt(system.shape[0]) * inverse_norm)
    if not bound > _SINGULAR_SV:
        raise SingularSystemError(
            f"resolvent system numerically singular (smallest singular value bound {bound:.3e})"
        )
    return inverse, inverse_norm


def _identity_minus(q0: np.ndarray) -> np.ndarray:
    """Id - Q0, subtracted in place from a fresh identity (no third n x n temporary)."""
    system = np.eye(q0.shape[0])
    system -= q0
    return system


def neumann_sum(q0: np.ndarray, rhs: np.ndarray, inverse_norm: float,
                tolerance: float) -> Optional[np.ndarray]:
    """A partial sum S_k of sum_j Q^j rhs within ``tolerance`` of (Id - Q)^-1 rhs, or None.

    S_k = (Id - Q)^-1 (rhs - Q^{k+1} rhs) exactly, so S_k misses by at most
    inverse_norm * ||Q^{k+1} rhs||_1 in the sup norm when inverse_norm is at
    least ||(Id - Q)^-1||_1.  The sum stops at the first such bound <=
    ``tolerance``.  It gives up after 200 terms, or once its rounding, about
    eps * sum_j ||Q^j rhs||_1, exceeds ``tolerance`` (a divergent series too).
    """
    partial, term, mass = rhs.copy(), rhs, np.abs(rhs).sum()
    for _ in range(200):
        term = q0 @ term
        term_mass = np.abs(term).sum()
        if inverse_norm * term_mass <= tolerance:
            return partial
        mass += term_mass
        if not np.finfo(float).eps * mass <= tolerance:
            return None
        partial += term
    return None


def fixed_point_derivative(p0, q0, h) -> np.ndarray:
    """Directional derivative z = (Id - Q0)^-1 P0 h of the fixed point.

    A product with the checked inverse of Id - Q0, cross-checked against the
    Neumann partial sum that the inverse's norm certifies to 1e-8 / 2 relative
    to ||z||_inf (:func:`neumann_sum`).  A ConsistencyError past 1e-8 relative
    proves z off by more than 1e-8 / 2, up to the sum's rounding.  A series
    that cannot be certified leaves z unchecked.
    """
    q0 = np.asarray(q0, dtype=float)
    rhs = np.asarray(p0, dtype=float) @ np.asarray(h, dtype=float)
    inverse, inverse_norm = _checked_inverse(_identity_minus(q0))
    z = inverse @ rhs
    scale = max(sup_norm(z), 1e-300)
    alt = neumann_sum(q0, rhs, inverse_norm, 0.5e-8 * scale)
    if alt is not None and sup_norm(alt - z) / scale > 1e-8:
        raise ConsistencyError("direct solve and Neumann partial sum disagree beyond "
                               "1e-8 relative")
    return z


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


def taylor_residual_scan(
    fmap: ParametrizedMap,
    u0,
    phi0,
    p0,
    q0,
    h_direction,
    deltas: Sequence[float],
    coarse_norm: StackNorm,
    tol: float = 1e-12,
) -> TaylorResidualReport:
    """Residual of the first-order increment expansion along h = delta * direction.

    For each delta the scan solves for the perturbed fixed point, forms
    z = phi(u0+h) - phi(u0) and measures

        || F(u0+h, phi0+z) - F(u0, phi0) - P0 h - Q0 z ||_coarse,

    reporting the raw and normalized residuals and the order of the
    development: the Theil–Sen log-log slope of the residual against ||h||
    (the sup norm of h), and the number of points it kept.  phi0 must be the
    fixed point at u0.  The fit keeps the residuals above ``_TAYLOR_DEFECTS``
    coarse norms of phi0's defect F(u0, phi0) - phi0, which is rounding of
    the size that an exact development leaves in every residual; with fewer
    than two above it, the order is ``inf`` and no point is kept.
    ``coarse_norm`` maps a stack of vectors, one per row, to its row norms;
    the scan calls it once, on the residual vectors of every delta, their z
    vectors and the defect, so a norm that shares work across rows
    (``cr_norm`` of a stack) does it once per scan.
    """
    u0 = np.asarray(u0, dtype=float)
    phi0 = np.asarray(phi0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    direction = np.asarray(h_direction, dtype=float)
    base_value = fmap.apply(u0, phi0)
    direction_norm = sup_norm(direction)
    residuals, zs = [], []
    for delta in deltas:
        h = delta * direction
        shifted = solve_fixed_point(fmap, u0 + h, phi0, tol=tol)
        z = shifted.phi_star - phi0
        residuals.append(fmap.apply(u0 + h, phi0 + z) - base_value - p0 @ h - q0 @ z)
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
    pairs: Sequence[tuple],
    phi0=None,
    tol: float = 1e-12,
) -> list[np.ndarray]:
    """Second derivatives D^2 phi(u0)[h1, h2] of the fixed point, one per pair (h1, h2).

    Requires the analytic coefficients p_matrix, q_matrix, q20, q11, q02 on
    ``fmap``.  With z_i = (Id - Q0)^-1 P0 h_i the first derivatives along
    h_i, the bilinear right-hand side is the symmetrized sum of the order-2
    coefficients,

        R2 = q20[h1,h2] + q20[h2,h1] + q11[h1,z2] + q11[h2,z1]
             + q02[z1,z2] + q02[z2,z1],

    and D^2 phi[h1,h2] = (Id - Q0)^-1 R2.  The base fixed point, P0, Q0 and
    the checked inverse of Id - Q0 are formed once for all pairs; every z_i
    and every D^2 phi is then one product with that inverse.  ``phi0``
    starts the base Picard solve; when it is already the fixed point at u0,
    the solve returns it bitwise after one application of the map.
    """
    for name in ("p_matrix", "q_matrix", "q20", "q11", "q02"):
        if getattr(fmap, name) is None:
            raise MissingCoefficientError(f"map does not supply {name}")
    u0 = np.asarray(u0, dtype=float)
    if phi0 is None:
        phi0 = np.zeros(fmap.state_dim)
    base = solve_fixed_point(fmap, u0, phi0, tol=tol)
    phi = base.phi_star
    p0 = np.asarray(fmap.p_matrix(u0, phi), dtype=float)
    q0 = np.asarray(fmap.q_matrix(u0, phi), dtype=float)
    inverse, _ = _checked_inverse(_identity_minus(q0))
    del q0
    out = []
    for h1, h2 in pairs:
        h1 = np.asarray(h1, dtype=float)
        h2 = np.asarray(h2, dtype=float)
        z1 = inverse @ (p0 @ h1)
        z2 = z1 if h2 is h1 or np.array_equal(h1, h2) else inverse @ (p0 @ h2)
        rhs = (
            fmap.q20(u0, phi, h1, h2)
            + fmap.q20(u0, phi, h2, h1)
            + fmap.q11(u0, phi, h1, z2)
            + fmap.q11(u0, phi, h2, z1)
            + fmap.q02(u0, phi, z1, z2)
            + fmap.q02(u0, phi, z2, z1)
        )
        out.append(inverse @ np.asarray(rhs, dtype=float))
    return out
