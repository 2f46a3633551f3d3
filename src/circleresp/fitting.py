"""The one log-log slope fit of the exponent scans: Theil–Sen above a floor.

Every fitted exponent (the Taylor order, the Hölder slopes of the circle scan
and of the affine interval example) comes from :func:`theil_sen_loglog`, and
each caller takes the floor, below which its values are noise, from its data.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFitError


def theil_sen_loglog(x, y, floor: float) -> tuple[float, int]:
    """Theil–Sen slope of log(y) against log(x) and the number of points it kept.

    Only the points with x > 0 and y > ``floor`` are fitted; a point at the
    floor is dropped.  The slope is the median of the pairwise slopes of the
    kept points, skipping pairs with equal x.  Up to about 29% of the points
    can be arbitrarily wrong without carrying the slope with them
    (P. K. Sen, JASA 63, 1968), where one point can drag a least-squares
    slope anywhere.  Raises DegenerateFitError when fewer than two distinct
    x remain.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0.0) & (y > floor)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    i, j = np.triu_indices(lx.size, k=1)
    run = lx[j] - lx[i]
    distinct = run != 0.0
    if not distinct.any():
        raise DegenerateFitError(f"fewer than 2 distinct x among the {lx.size} points "
                                 f"above the floor {floor:.3e}")
    return float(np.median((ly[j] - ly[i])[distinct] / run[distinct])), int(lx.size)
