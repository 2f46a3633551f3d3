"""Contraction fixed points on a scale of norms and their parameter derivatives.

States and parameters are plain sample vectors; the norms that distinguish
the fine and coarse spaces of a scale are supplied as callables (typically
built from :func:`circleresp.spaces.cr_norm`).  The central operation solves

    (Id - Q0) z = P0 h

for the directional derivative of a fixed point with respect to its
parameter, where P0 and Q0 are the analytic first-order coefficients of the
map's increment expansion around the fixed point.  The order-2 variant
assembles the quadratic coefficients into a right-hand side and solves the
same system.  Each system has one checked inverse
(:func:`_checked_inverse`), and every solve against it is a product with
that inverse.
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
from .fitting import fit_loglog

Norm = Callable[[np.ndarray], float]

# Increment-ratio window for contraction monitoring (Picard iterates of k-step
# contractions oscillate; the window smooths this out).
_RATIO_WINDOW = 5
_MAX_BAD_WINDOWS = 20

_SINGULAR_SV = 1e-10


def sup_norm(v) -> float:
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class ParametrizedMap:
    """A map (u, phi) -> phi with optional analytic increment coefficients.

    ``apply`` must be deterministic.  ``p_matrix(u, phi)`` and
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
    param_dim: int
    p_matrix: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    q_matrix: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    q20: Optional[Callable] = None
    q11: Optional[Callable] = None
    q02: Optional[Callable] = None


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


def solve_fixed_point(
    fmap: ParametrizedMap,
    u,
    phi0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    norm: Norm = sup_norm,
) -> FixedPointResult:
    """Picard iteration phi <- F(u, phi) until the residual norm drops below tol.

    Divergence is declared only after _MAX_BAD_WINDOWS consecutive
    _RATIO_WINDOW-step increment windows with geometric-mean ratio >= 1, so
    maps that contract only as a k-step iterate still pass.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi0, dtype=float)
    increments: list[float] = []
    bad_windows = 0
    for iteration in range(max_iter + 1):
        nxt = fmap.apply(u, phi)
        res = norm(nxt - phi)
        if res <= tol:
            return FixedPointResult(phi, iteration, res, _contraction_estimate(increments))
        increments.append(res)
        if len(increments) > _RATIO_WINDOW:
            window = (increments[-1] / increments[-1 - _RATIO_WINDOW]) ** (1.0 / _RATIO_WINDOW)
            if window >= 1.0:
                bad_windows += 1
                if bad_windows >= _MAX_BAD_WINDOWS:
                    raise NonContractionError(
                        f"increment ratio >= 1 for {bad_windows} consecutive windows "
                        f"(last residual {res:.3e})"
                    )
            else:
                bad_windows = 0
        phi = nxt
    raise MaxIterExceededError(
        f"no fixed point within {max_iter} iterations (residual {res:.3e}, tol {tol:.3e})"
    )


def _checked_inverse(system: np.ndarray) -> np.ndarray:
    """The inverse of a square system, after refusing a numerically singular one.

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
        inverse_norm = np.linalg.norm(inverse, 1)
    bound = 1.0 / (np.sqrt(system.shape[0]) * inverse_norm)
    if not bound > _SINGULAR_SV:
        raise SingularSystemError(
            f"resolvent system numerically singular (smallest singular value bound {bound:.3e})"
        )
    return inverse


def _identity_minus(q0: np.ndarray) -> np.ndarray:
    """Id - Q0, subtracted in place from a fresh identity (no third n x n temporary)."""
    system = np.eye(q0.shape[0])
    system -= q0
    return system


def neumann_sum(q0: np.ndarray, rhs: np.ndarray, terms: int = 200) -> np.ndarray:
    """Partial sum sum_{k<=terms} Q^k rhs of the Neumann series for (Id-Q)^-1 rhs."""
    acc = rhs.copy()
    term = rhs
    for _ in range(terms):
        term = q0 @ term
        acc = acc + term
    return acc


def iterate_norm_estimate(q0: np.ndarray, max_power: int = 16) -> float:
    """min over m of ||Q^m||_inf^(1/m) for m = 1, 2, 4, ..., max_power.

    The squares alternate between two buffers: each norm is taken in the
    buffer that the next square overwrites, so the values are bitwise those
    of ``np.linalg.norm`` on freshly allocated powers.
    """
    q0 = np.asarray(q0, dtype=float)
    best = np.linalg.norm(q0, np.inf)
    power, spare = q0, None
    m = 1
    while m < max_power:
        square = np.matmul(power, power, out=spare)
        spare = np.empty_like(square) if power is q0 else power
        power = square
        m *= 2
        np.abs(power, out=spare)
        best = min(best, np.add.reduce(spare, axis=1).max() ** (1.0 / m))
    return float(best)


def fixed_point_derivative(p0, q0, h, neumann_check: bool = True) -> np.ndarray:
    """Directional derivative z = (Id - Q0)^-1 P0 h of the fixed point.

    A product with the checked inverse of Id - Q0; when the iterate-norm
    estimate of Q0 certifies a convergent Neumann series, a 200-term partial
    sum cross-checks it to 1e-8 relative.
    """
    q0 = np.asarray(q0, dtype=float)
    rhs = np.asarray(p0, dtype=float) @ np.asarray(h, dtype=float)
    z = _checked_inverse(_identity_minus(q0)) @ rhs
    if neumann_check and iterate_norm_estimate(q0) < 0.9:
        alt = neumann_sum(q0, rhs)
        scale = max(sup_norm(z), 1e-300)
        if sup_norm(alt - z) / scale > 1e-8:
            raise ConsistencyError(
                "direct solve and Neumann partial sum disagree beyond 1e-8 relative"
            )
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


def taylor_residual_scan(
    fmap: ParametrizedMap,
    u0,
    phi0,
    p0,
    q0,
    h_direction,
    deltas: Sequence[float],
    coarse_norm: Norm,
    param_norm: Norm = sup_norm,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> TaylorResidualReport:
    """Residual of the first-order increment expansion along h = delta * direction.

    For each delta the scan solves for the perturbed fixed point, forms
    z = phi(u0+h) - phi(u0) and measures

        || F(u0+h, phi0+z) - F(u0, phi0) - P0 h - Q0 z ||_coarse,

    reporting the raw and normalized residuals and the log-log order of the
    residual against ||h||.  phi0 must be the fixed point at u0.
    """
    u0 = np.asarray(u0, dtype=float)
    phi0 = np.asarray(phi0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    direction = np.asarray(h_direction, dtype=float)
    base_value = fmap.apply(u0, phi0)
    direction_norm = param_norm(direction)
    rows = []
    for delta in deltas:
        h = delta * direction
        shifted = solve_fixed_point(fmap, u0 + h, phi0, tol=tol, max_iter=max_iter)
        z = shifted.phi_star - phi0
        residual = coarse_norm(fmap.apply(u0 + h, phi0 + z) - base_value - p0 @ h - q0 @ z)
        h_norm = abs(delta) * direction_norm
        z_norm = coarse_norm(z)
        denom = h_norm + z_norm
        rows.append(
            TaylorRow(h_norm, z_norm, residual, residual / denom if denom > 0.0 else 0.0)
        )
    try:
        fit = fit_loglog([r.h_norm for r in rows], [r.residual_norm for r in rows], floor=1e-13)
        order = fit.slope
    except DegenerateFitError:
        order = float("inf")  # residuals at rounding floor: development is exact
    return TaylorResidualReport(rows, order)


def fixed_point_second_derivatives(
    fmap: ParametrizedMap,
    u0,
    pairs: Sequence[tuple],
    phi0=None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
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
    base = solve_fixed_point(fmap, u0, phi0, tol=tol, max_iter=max_iter)
    phi = base.phi_star
    p0 = np.asarray(fmap.p_matrix(u0, phi), dtype=float)
    q0 = np.asarray(fmap.q_matrix(u0, phi), dtype=float)
    inverse = _checked_inverse(_identity_minus(q0))
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


def fixed_point_second_derivative(
    fmap: ParametrizedMap,
    u0,
    h1,
    h2,
    phi0=None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Second derivative D^2 phi(u0)[h1, h2]: :func:`fixed_point_second_derivatives` of one pair."""
    return fixed_point_second_derivatives(fmap, u0, [(h1, h2)], phi0, tol, max_iter)[0]
