"""Log-log slope fitting for exponent scans: least squares and Theil–Sen."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError

# Points with y at or below this are dropped from a log-log fit by default.
_FLOOR = 1e-15


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    n_points: int


def _linfit(x, y):
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return SlopeFit(float(coef[0]), x.size)


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


def fit_loglog(x, y, floor=_FLOOR):
    """Fit log(y) against log(x); points with y <= floor or x <= 0 are dropped."""
    return _linfit(*_loglog_points(x, y, floor))


def theil_sen_loglog(x, y) -> float:
    """Theil–Sen slope of log(y) against log(x): the median of the pairwise slopes.

    Same point rules as :func:`fit_loglog` at its default floor.  Up to about
    29% of the points can be arbitrarily wrong without carrying the slope with
    them (P. K. Sen, JASA 63, 1968), where one point can drag a least-squares
    slope anywhere.
    """
    lx, ly = _loglog_points(x, y, _FLOOR)
    i, j = np.triu_indices(lx.size, k=1)
    run = lx[j] - lx[i]
    distinct = run != 0.0
    return float(np.median((ly[j] - ly[i])[distinct] / run[distinct]))
