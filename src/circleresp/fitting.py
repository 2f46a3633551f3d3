"""Slope fitting for exponent and decay-rate scans: least squares and Theil–Sen."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _linfit(x, y):
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(coef[0]), float(coef[1]), r2, x.size)


def _loglog_points(x, y, floor):
    """log x and log y of the points with x > 0 and y > floor; at least two distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0.0) & (y > floor)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise DegenerateFitError(f"need at least 2 usable points, have {x.size}")
    lx = np.log(x)
    if np.ptp(lx) == 0.0:
        raise DegenerateFitError("all abscissae coincide")
    return lx, np.log(y)


def fit_loglog(x, y, floor=1e-15):
    """Fit log(y) against log(x); points with y <= floor or x <= 0 are dropped."""
    return _linfit(*_loglog_points(x, y, floor))


def theil_sen_loglog(x, y, floor=1e-15) -> float:
    """Theil–Sen slope of log(y) against log(x): the median of the pairwise slopes.

    Same point rules as :func:`fit_loglog`.  Up to about 29% of the points
    can be arbitrarily wrong without carrying the slope with them (P. K. Sen,
    JASA 63, 1968), where one point can drag a least-squares slope anywhere.
    """
    lx, ly = _loglog_points(x, y, floor)
    i, j = np.triu_indices(lx.size, k=1)
    run = lx[j] - lx[i]
    distinct = run != 0.0
    return float(np.median((ly[j] - ly[i])[distinct] / run[distinct]))


def fit_semilog(n, y, floor=1e-300):
    """Fit log(y) against n; the decay rate is exp(slope)."""
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > floor
    n, y = n[keep], y[keep]
    if n.size < 2:
        raise DegenerateFitError(f"need at least 2 usable points, have {n.size}")
    if np.ptp(n) == 0.0:
        raise DegenerateFitError("all abscissae coincide")
    return _linfit(n, np.log(y))
