"""Function spaces on the circle R/Z and on the interval [-1, 1].

A function on the circle is a vector of its samples at N equispaced nodes,
N even >= 8, read through their trigonometric interpolant (spectrally
accurate for smooth data).  Its value matrix takes one ``tan`` per entry;
its slopes are products, not a matrix: the value matrix times the
spectral derivative of the samples plus the slope of the Nyquist cosine,
and its transpose, taken with the value products in one pass over blocks
of the value matrix's rows, so values, slopes and the on-grid derivative
``_spectral_derivative`` come from the same Fourier data.  They and the
barycentric ``_interpolant_values`` take each point's nearest node and
on-node rule from ``_nearest_nodes``.  A closed-form circle input is a
``TrigSeries``, evaluated exactly wherever it is needed.
A function on the interval is a vector of its samples at M equispaced
nodes of the fixed domain [-1, 1] (:func:`interval_nodes`), read through
the not-a-knot cubic spline.  That spline is the node values plus the node
slopes, the map s = T^-1 B y of a tridiagonal system whose inverse decays
geometrically away from its diagonal.  So the slope map is a band: away
from the ends every slope is one fixed kernel of 64 geometric taps on the
divided differences of y, summed by five doublings, and near each end a
dense block of 32 rows, read once from the system at unit spacing, gives
it (:class:`_SplineGrid`).  A spline, or a stack of splines laid end to
end, costs a dozen vector operations and one small batched product
(:func:`interval_slopes`).  A
value or derivative at t takes two steps: locating t (its interval, its
offset in it and the interval's width), which depends on the points alone,
and one cubic in the Hermite form y0 + (h01 (y1 - y0) + h10 s0 + h11 s1)
on the two nodes around t, whose weights also depend on the points alone.  A
located set keeps its weights once computed, so a caller that evaluates
many splines at one point set locates it once (:func:`interval_locate`)
and passes the located set to :func:`interval_values`, the one reader of
interval splines: m samples are read at every point, a k x m stack row by
row at the rows of points located with shape (k, ...).
Both kinds of function support the computable surrogates
used throughout the library for Hölder seminorms and C^r norms: the
seminorm is the sup of difference quotients over a deterministic set of
dyadic node pairs plus seeded pseudo-random pairs, hence always a lower
bound of the true seminorm.  The one exception is the interval seminorm at
exponent 1, the Lipschitz constant of a cubic spline, which is read
exactly from its node slopes and the interior extrema of its derivative
(:func:`_interval_lipschitz`).  On the circle no dense cardinal matrix is
built for it: the values at the dyadic pairs are exact Fourier shifts of
the samples (a roll where the shift is a whole number of nodes), and the
random pairs are evaluated with the barycentric form of the same
interpolant.  The circle norms (:func:`cr_norm`, :func:`holder_seminorm`)
take a sample vector, or a k x n array of sample rows and return the k row
norms; a vector is a one-row stack on the same path.  The rows share one
batched FFT and, per block of random points, one cot table, which depends
on the seeded points alone, multiplied by one weight matrix for all rows;
one norm call writes every block into the same two scratch tables.
The interval norm has its own entry point, :func:`interval_cr_norm`.

The package runs on NumPy alone.  The one SciPy name of this module,
``CubicSpline``, is imported by the module's ``__getattr__`` when it is
read and no caller has bound one here; nothing here builds one, and
reading it needs SciPy (the ``test`` extra).
"""

from __future__ import annotations

import math

import numpy as np

from ._allocator import kept

DEFAULT_SEED = 0x5EED

# Dyadic pair distances 2^-1 .. 2^-DYADIC_LEVELS enter every seminorm estimate.
DYADIC_LEVELS = 16

# Entries of the (point, node) table that one block of _barycentric_eval builds,
# in an evaluation or in the random pairs of _circle_seminorms.
_EVAL_BLOCK_ENTRIES = 1 << 16

# Pairs closer than this are discarded: difference quotients of rounding noise
# would otherwise pollute the sup.
_MIN_PAIR_DISTANCE = 1e-9

# The domain of every interval function.
INTERVAL_A = -1.0
INTERVAL_B = 1.0

# The slot of _spline_grid's kept grid, with its slope band, keyed on its node
# count m.
_SPLINE_GRID_MEMO: dict[int, "_SplineGrid"] = {}
# The slots of the node angle table of _node_angles and of the unit-spacing
# slope map of _unit_slope_map, each keyed on its node count.
_NODE_ANGLES_MEMO: dict[int, np.ndarray] = {}
_UNIT_SLOPE_MAP_MEMO: dict[int, np.ndarray] = {}

# Away from the ends, slope i is _KERNEL_PEAK * sum_q _KERNEL_RATIO^q (d_{i+q} + d_{i-1-q})
# over the divided differences d, q < 2^_KERNEL_DOUBLINGS; the first tap left
# out, ratio^32, is 5e-19 of the peak.
_KERNEL_RATIO = math.sqrt(3.0) - 2.0
_KERNEL_PEAK = (3.0 - math.sqrt(3.0)) / 2.0
_KERNEL_DOUBLINGS = 5
# The slopes whose kernel would reach past their row's ends: the first and the
# last _END_ROWS, which an end block gives exactly.
_END_ROWS = 1 << _KERNEL_DOUBLINGS
# Nodes of the unit-spacing system the end block is read from: every entry of
# the block lies _END_ROWS + 1 nodes or more from the far end.
_BAND_NODES = 3 * _END_ROWS


def __getattr__(name: str):
    """``CubicSpline``, SciPy's, read while no caller has bound one here (PEP 562)."""
    if name != "CubicSpline":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.interpolate import CubicSpline

    return CubicSpline


def circle_nodes(n: int) -> np.ndarray:
    """Equispaced nodes x_j = j/n on R/Z."""
    return np.arange(n) / n


def interval_nodes(m: int) -> np.ndarray:
    """Equispaced nodes of [-1, 1], both ends included."""
    return np.linspace(INTERVAL_A, INTERVAL_B, m)


def circle_distance(x, y):
    """Flat metric on R/Z: d(x, y) = min(|x-y|, 1-|x-y|)."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def _nearest_nodes(points, n: int):
    """The points reduced mod 1, their nearest node k, the offset t0 = y - k/n, and the on-node flag.

    k is a float in 0..n (n is node 0).  A point with |sin(pi t0)| < 1e-12 is
    on its node, where the interpolant takes the node's sample exactly.
    """
    pts = np.asarray(points, dtype=float).ravel() % 1.0
    nearest = np.rint(pts * n)
    t0 = pts - nearest / n
    on_node = np.abs(np.sin(np.pi * t0)) < 1e-12
    return pts, nearest, t0, on_node


def interpolation_matrix(points, n: int) -> np.ndarray:
    """Dense matrix taking samples at the n circle nodes to values at `points`.

    Rows are the periodic cardinal functions sin(n*pi*t)*cot(pi*t)/n
    (t = distance to the node), the interpolant that reproduces trigonometric
    polynomials of degree < n/2 exactly and treats the Nyquist mode as a
    cosine.  Points on a node (see :func:`_nearest_nodes`) get an exact
    one-hot row.  As sin(n pi (y - x_j)) = (-1)^(k-j) sin(n pi t0), an entry
    is the row factor (-1)^k sin(n pi t0) / n times the column sign (-1)^j
    times cot(pi (y - x_j)), one ``tan`` per entry after each difference is
    reduced by ``rint`` to [-1/2, 1/2], so the nearest column is
    sin(n pi t0) / (n tan(pi t0)).  The entries are within n eps of the
    cardinal function evaluated in long double (at most 0.33 n eps measured
    for n <= 1024).
    """
    pts, nearest, t0, on_node = _nearest_nodes(points, n)
    vals = np.subtract.outer(pts, circle_nodes(n))
    block = max(1, _EVAL_BLOCK_ENTRIES // n)
    for start in range(0, pts.size, block):  # so no second points x n array is made
        rows = vals[start : start + block]
        rows -= np.rint(rows)
    vals *= np.pi
    np.tan(vals, out=vals)
    # a node's row gets 1 / 0 = inf here (also for a subnormal t0), replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(1.0, vals, out=vals)
        vals *= ((1.0 - 2.0 * (nearest % 2)) * np.sin(np.pi * n * t0) / n)[:, None]
    vals *= 1.0 - 2.0 * (np.arange(n) % 2)
    vals[on_node] = 0.0
    vals[on_node, nearest[on_node].astype(int) % n] = 1.0
    return vals


def _spectral_derivative(values: np.ndarray) -> np.ndarray:
    """On-grid spectral derivative along the last axis; the sampled Nyquist mode gets slope 0."""
    n = values.shape[-1]
    c = np.fft.rfft(values)
    c *= 2j * np.pi * np.arange(c.shape[-1])
    c[..., -1] = 0.0
    return np.fft.irfft(c, n)


def interpolation_products(row_blocks, points, v: np.ndarray, value_weights=None,
                           slope_weights=None) -> tuple:
    """(V v, S v, V^T a + S^T s): values and slopes of v's interpolant at `points`, and transposes.

    V is the :func:`interpolation_matrix` of the points and S the matrix of
    interpolant slopes there, both taking samples at the n circle nodes;
    a = ``value_weights`` and s = ``slope_weights`` have one entry per
    point.  ``row_blocks`` yields (rows, V[rows]) for blocks of rows that
    cover the points, and each block serves all four products as it
    passes, so V need never be whole.  Without weights (None) the
    transposes are not taken, and the third image is None.  The slope is
    the interpolant of the on-grid spectral derivative D, which drops the
    Nyquist cosine, plus
    that cosine's slope -pi sin(n pi y) sum_j (-1)^j f_j, where
    sin(n pi y) = (-1)^k sin(n pi t0): S = V D - nu sigma^T with
    sigma_j = (-1)^j.  As D is antisymmetric, S^T s = -D (V^T s) - sigma
    <nu, s>.  A point on a node (see :func:`_nearest_nodes`) has nu = 0, so
    it gets the node's row of D.  S itself is never formed.
    """
    n = v.size
    nyquist = _nyquist_slopes(points, n)
    dv = _spectral_derivative(v)
    values, slopes = np.empty(nyquist.size), np.empty(nyquist.size)
    adjoint = value_weights is not None
    back, slope_back = (np.zeros(n), np.zeros(n)) if adjoint else (None, None)
    for rows, block in row_blocks:
        values[rows] = block @ v
        slopes[rows] = block @ dv
        if adjoint:
            back += block.T @ value_weights[rows]
            slope_back += block.T @ slope_weights[rows]
        del block  # before the next block is made
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    slopes -= nyquist * (sign @ v)
    if adjoint:
        back -= _spectral_derivative(slope_back) + sign * (nyquist @ slope_weights)
    return values, slopes, back


def _nyquist_slopes(points, n: int) -> np.ndarray:
    """nu = pi sin(n pi y) = (-1)^k pi sin(n pi t0) at each point y, and 0 on a node."""
    _, nearest, t0, on_node = _nearest_nodes(points, n)
    return np.where(on_node, 0.0, np.pi * (1.0 - 2.0 * (nearest % 2)) * np.sin(np.pi * n * t0))


def _node_angles(n: int) -> np.ndarray:
    """Read-only rows cos(pi x_j) and sin(pi x_j) over the n circle nodes, kept for the latest n."""

    def build():
        angles = np.pi * circle_nodes(n)
        table = np.stack([np.cos(angles), np.sin(angles)])
        table.flags.writeable = False
        return table

    return kept(_NODE_ANGLES_MEMO, n, build)


def _cot_tables(n: int, points: int) -> np.ndarray:
    """Scratch for the two (point, node) tables of one block of _barycentric_eval at n nodes."""
    return np.empty((2, max(1, min(points, _EVAL_BLOCK_ENTRIES // n)), n))


def _barycentric_eval(points: np.ndarray, rows: np.ndarray, tables=None) -> np.ndarray:
    """Interpolants of the k x n sample `rows` at `points`, none on a node: a points x k array.

    cot pi(x - x_j) is the ratio of two rank-2 products of (cos pi x, sin pi x)
    with the node angles, so the table needs no transcendental per entry.
    Each block of the table is built once and multiplied by one n x (k+1)
    weight matrix: the signed samples (-1)^j f_j of every row, then the signs
    (-1)^j of the shared denominator.  Blocks of points keep the table at
    _EVAL_BLOCK_ENTRIES entries.  Every block is written into ``tables``
    (from :func:`_cot_tables`), made here when not given.
    """
    n = rows.shape[1]
    table = _node_angles(n)
    if tables is None:
        tables = _cot_tables(n, points.size)
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    weights = np.empty((n, rows.shape[0] + 1))
    np.multiply(sign[:, None], rows.T, out=weights[:, :-1])
    weights[:, -1] = sign
    out = np.empty((points.size, rows.shape[0]))
    block = tables.shape[1]
    for i in range(0, points.size, block):
        angles = np.pi * points[i : i + block]
        cos_x, sin_x = np.cos(angles), np.sin(angles)
        cot, sine = tables[0, : angles.size], tables[1, : angles.size]
        np.matmul(np.stack([cos_x, sin_x], axis=1), table, out=cot)  # cos pi(x - x_j)
        np.matmul(np.stack([sin_x, -cos_x], axis=1), table, out=sine)  # sin pi(x - x_j)
        cot /= sine
        sums = cot @ weights
        np.divide(sums[:, :-1], sums[:, -1:], out=out[i : i + block])
    return out


def _interpolant_values(points, rows: np.ndarray, tables=None) -> np.ndarray:
    """Interpolants of the k x n sample `rows` at `points`: a points x k array.

    A point on a node (see :func:`_nearest_nodes`) takes that node's samples
    exactly; the others go through :func:`_barycentric_eval`, with ``tables``.
    """
    n = rows.shape[1]
    pts, nearest, _, on_node = _nearest_nodes(points, n)
    out = np.empty((pts.size, rows.shape[0]))
    out[on_node] = rows[:, nearest[on_node].astype(int) % n].T
    out[~on_node] = _barycentric_eval(pts[~on_node], rows, tables)
    return out


class TrigSeries:
    """The real 1-periodic series const + sum_m [sin_m sin + cos_m cos](2 pi m x), m = 1, 2, ...

    The two coefficient lists are padded with zeros to one length and held
    read-only.  A closed-form circle input (a map's shape, a weight, an
    observable) is one series; what is computed from it lives on the grid as
    a plain vector of node samples.
    """

    __slots__ = ("const", "sin", "cos")

    def __init__(self, const: float = 0.0, sin=(), cos=()):
        sin = np.asarray(sin, dtype=float)
        cos = np.asarray(cos, dtype=float)
        self.const = float(const)
        self.sin = np.zeros(max(sin.size, cos.size))
        self.cos = np.zeros(self.sin.size)
        self.sin[: sin.size] = sin
        self.cos[: cos.size] = cos
        self.sin.flags.writeable = False
        self.cos.flags.writeable = False

    def __call__(self, x):
        """The series at x (scalar or array), with the shape of x."""
        x = np.asarray(x, dtype=float)
        angles = 2.0 * np.pi * np.outer(x, np.arange(1, self.sin.size + 1))
        out = self.const + np.sin(angles) @ self.sin + np.cos(angles) @ self.cos
        return out.reshape(x.shape)

    def derivative(self) -> "TrigSeries":
        """The term-by-term derivative, with coefficients c * 2 pi m."""
        m = np.arange(1, self.sin.size + 1)
        return TrigSeries(0.0, -(self.cos * 2.0 * np.pi * m), self.sin * 2.0 * np.pi * m)


class IntervalPoints:
    """Points of [-1, 1] located on the grid of m equispaced nodes.

    ``index`` is the interval i of each point, ``offset`` its distance
    t - x_i from the interval's left node and ``width`` the interval's length
    x_{i+1} - x_i, each a flat read-only array; ``shape`` is the shape of the
    points as given (``()`` for a scalar).  These depend on the points alone,
    so one located set serves every spline on the grid
    (:func:`interval_locate`, :func:`interval_values`), and so do the cubic
    Hermite weights of its points (:meth:`weights`), which the set keeps for
    each derivative order once they are first asked for.  A set located with
    shape (k, ...) holds one row of points per spline of a k x m stack.
    """

    __slots__ = ("m", "shape", "index", "offset", "width", "_weights")

    def __init__(self, m: int, shape: tuple, index, offset, width):
        for arr in (index, offset, width):
            arr.flags.writeable = False
        self.m, self.shape = m, shape
        self.index, self.offset, self.width = index, offset, width
        self._weights = [None, None, None]

    def weights(self, order: int) -> np.ndarray:
        """The 3 x points read-only rows h01, h10, h11 of the order-th derivative of the Hermite basis.

        With u = offset / width the cubic on an interval is
        y0 + h01 (y1 - y0) + h10 s0 + h11 s1, where h01 = u^2 (3 - 2u),
        h10 = offset (1 - u)^2 and h11 = offset u (u - 1); its first and
        second derivatives at the point drop y0 and take the derivatives of
        the three weights there.  Computed on the first call for each order
        and kept.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
        kept = self._weights[order]
        if kept is None:
            u = self.offset / self.width
            rest = 1.0 - u
            kept = np.empty((3, u.size))
            h01, h10, h11 = kept
            if order == 0:
                np.multiply(u * u, 3.0 - 2.0 * u, out=h01)
                np.multiply(self.offset * rest, rest, out=h10)
                np.multiply(self.offset * u, -rest, out=h11)
            elif order == 1:
                np.divide(6.0 * u * rest, self.width, out=h01)
                np.multiply(rest, 1.0 - 3.0 * u, out=h10)
                np.multiply(u, 3.0 * u - 2.0, out=h11)
            else:
                np.divide(6.0 - 12.0 * u, self.width * self.width, out=h01)
                np.divide(6.0 * u - 4.0, self.width, out=h10)
                np.divide(6.0 * u - 2.0, self.width, out=h11)
            kept.flags.writeable = False
            self._weights[order] = kept
        return kept


def _unit_slope_map(n: int) -> np.ndarray:
    """The read-only n x (n - 1) not-a-knot slope map of n nodes at unit spacing.

    Row i takes the divided differences d of the samples to the slope at
    node i.  The map is T^-1 B of the rows of :class:`_SplineGrid` with
    every spacing 1: s_0 + 2 s_1 = (5 d_0 + d_1) / 2,
    s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i) and
    2 s_{n-2} + s_{n-1} = (d_{n-3} + 5 d_{n-2}) / 2.  B is reduced in
    place by tridiagonal elimination without row exchanges, whose pivots
    grow from 1 to about 2 + sqrt 3 and stay positive at the last row.
    Far from the diagonal an entry is a product of the elimination's ratios,
    so even the smallest keep their relative accuracy.  The band needs
    n <= _BAND_NODES only, and the map of the latest n is kept.
    """

    def build():
        lower, diag, upper = [1.0] * n, [4.0] * n, [1.0] * n
        diag[0], upper[0] = 1.0, 2.0
        lower[-1], diag[-1] = 2.0, 1.0
        slope_map = np.zeros((n, n - 1))
        inner = np.arange(1, n - 1)
        slope_map[inner, inner - 1] = slope_map[inner, inner] = 3.0
        slope_map[0, :2], slope_map[-1, -2:] = (2.5, 0.5), (0.5, 2.5)
        for i in range(1, n):
            factor = lower[i] / diag[i - 1]
            diag[i] -= factor * upper[i - 1]
            slope_map[i] -= factor * slope_map[i - 1]
        slope_map[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            slope_map[i] -= upper[i] * slope_map[i + 1]
            slope_map[i] /= diag[i]
        slope_map.flags.writeable = False
        return slope_map

    return kept(_UNIT_SLOPE_MAP_MEMO, n, build)


def _end_block(m: int) -> np.ndarray:
    """The read-only end block of the m-node slope map, one column per slope; see _SplineGrid."""
    rows = min(_END_ROWS, m - m // 2)
    cols = min(m - 1, 2 * _END_ROWS - 1)
    end = _unit_slope_map(min(m, _BAND_NODES))[:rows, :cols].T.copy()
    end.flags.writeable = False
    return end


class _SplineGrid:
    """The m equispaced nodes of [-1, 1] with the band of their not-a-knot slope map.

    The slopes solve T s = B y, whose rows are those of SciPy's
    ``CubicSpline``, with dx = diff(nodes) and slope the divided
    differences of y: interior rows
    dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
    = 3 (dx_i slope_{i-1} + dx_{i-1} slope_i), and the not-a-knot end row
    dx_1 s_0 + (x_2 - x_0) s_1 = ((dx_0 + 2 (x_2 - x_0)) dx_1 slope_0
    + dx_0^2 slope_1) / (x_2 - x_0), mirrored at the right end.  Divided by
    the spacing, these are the rows of the unit-spacing system, so
    s = S slope with S the map of :func:`_unit_slope_map`, which depends on
    m alone; the grid's own spacings enter through the divided differences.
    Away from its diagonal S decays like (2 - sqrt 3)^|i - j|, so it is a
    band.  Its interior rows are one kernel to rounding, the recursive
    filter of cubic splines (Unser, IEEE Signal Processing Magazine 16(6),
    1999): slope i is g sum_q r^q (slope_{i+q} + slope_{i-1-q}) with
    r = sqrt 3 - 2 and g = (3 - sqrt 3) / 2, summed here over q < 32 by
    five doublings (:meth:`slopes`).  The first _END_ROWS rows, which that
    sum would read past the grid's left end, are the ``end`` block: exact
    rows of the map of min(m, _BAND_NODES) nodes, one column per slope.  By
    the grid's mirror symmetry, slope m - 1 - i is row i of the block on
    the divided differences taken from the right end, in reverse.  On a
    grid of fewer than 2 _END_ROWS nodes the block gives every slope, the
    first half from the left end and the rest from the right.  What the
    band leaves out or misreads is at most about 1e-18 of the kernel's
    peak g per entry, and the block is read once per grid from the kept
    unit-spacing map, so a build makes no m x m array.  A spline is read
    at a point set in two steps:
    :meth:`locate`, which depends on the points alone, and
    :func:`interval_values` on the located set.
    """

    __slots__ = ("m", "h", "nodes", "dx", "divisors", "starts", "end")

    def __init__(self, m: int):
        if m < 4:
            raise ValueError(f"need m >= 4 nodes, got m={m}")
        nodes = interval_nodes(m)
        dx = np.diff(nodes)
        # the spacings, then 1 for the step from one row of a stack to the next
        divisors = np.append(dx, 1.0)
        # starts[i] is where interval i + 1 starts; the last interval has none
        starts = np.append(nodes[1:-1], np.inf)
        for arr in (nodes, dx, divisors, starts):
            arr.flags.writeable = False
        self.m = m
        self.h = (INTERVAL_B - INTERVAL_A) / (m - 1)
        self.nodes, self.dx, self.divisors, self.starts = nodes, dx, divisors, starts
        self.end = _end_block(m)

    def slopes(self, y) -> np.ndarray:
        """Node slopes of the spline of ``y``: m samples, or a k x m stack of one spline per row.

        The rows are laid end to end, and their differences, divided by the
        ``divisors``, are each row's divided differences followed by the
        step to the next row; the same sequence reversed follows it.  The
        kernel's two one-sided sums are one sum over both halves: step k of
        the doubling adds r^(2^k) times the partial sum 2^k entries on, so
        after five steps every entry sums the 32 from itself on.  Slope i of
        a row then adds the sum from its divided difference i and the
        reversed sum from i - 1, which read only that row's divided
        differences when i is interior.  The end slopes are overwritten by
        one batched product of the end block with each row's first divided
        differences and its last ones reversed, one 2-row product per row.
        Every row goes through the same arithmetic, so each row of a stack
        is bitwise the slopes of that row alone, and a NaN sample spreads
        only over its band: the 65 slopes around it, and the end rows when
        the end block reads it.
        """
        y = np.asarray(y, dtype=float)
        m, n = self.m, y.size
        flat = y.ravel()
        both = np.empty(2 * n)
        ahead = both[:n]
        np.subtract(flat[1:], flat[:-1], out=ahead[:-1])
        ahead[-1] = 0.0
        rows = ahead.reshape(-1, m)
        rows /= self.divisors
        cols, left = self.end.shape
        right = min(left, m - left)
        ends = np.empty((rows.shape[0], 2, cols))
        ends[:, 0] = rows[:, :cols]
        ends[:, 1] = rows[:, m - 2 :: -1][:, :cols]
        both[n:] = ahead[::-1]
        scratch = np.empty(2 * n)
        for k in range(_KERNEL_DOUBLINGS):
            shift = 1 << k
            np.multiply(both[shift:], _KERNEL_RATIO**shift, out=scratch[shift:])
            both[:-shift] += scratch[shift:]
        s = np.empty(n)
        np.add(both[1:n], both[2 * n - 1 : n : -1], out=s[1:])
        s *= _KERNEL_PEAK
        out = s.reshape(-1, m)
        ends = ends @ self.end
        out[:, :left] = ends[:, 0]
        out[:, m - right :] = ends[:, 1, right - 1 :: -1]
        return s.reshape(y.shape)

    def locate(self, t) -> IntervalPoints:
        """The points ``t`` clipped to [-1, 1] and located on the grid, with no domain check.

        Each point lies in interval i = min(floor((t + 1) / h), m - 2), moved
        up one where rounding put a node x_{i+1} = t one interval low, so that
        a node starts its own interval as in ``PPoly`` and returns its sample
        exactly.  A NaN point stays NaN in the last interval.
        """
        t = np.asarray(t, dtype=float)
        flat = np.clip(t.ravel(), INTERVAL_A, INTERVAL_B)
        # fmin sends a NaN point to the last interval, where its value stays NaN
        i = np.fmin((flat - INTERVAL_A) / self.h, self.m - 2).astype(np.intp)
        i += flat >= self.starts[i]
        return IntervalPoints(self.m, t.shape, i, flat - self.nodes[i], self.dx[i])


def _spline_grid(m: int) -> _SplineGrid:
    """The m-node grid with its slope band, built once per grid.

    Only the most recent grid is kept
    (:func:`~circleresp._allocator.kept`), with read-only arrays.
    """
    m = int(m)
    return kept(_SPLINE_GRID_MEMO, m, lambda: _SplineGrid(m))


def interval_slopes(samples) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline of the m node samples on [-1, 1].

    The grid's slope band (:class:`_SplineGrid`) on their divided differences:
    the kernel's doubling sums and one small end-block product.  A k x m
    stack gives the slopes of each row, bitwise those of the row alone.
    """
    samples = np.asarray(samples, dtype=float)
    return _spline_grid(samples.shape[-1]).slopes(samples)


def interval_locate(t, m: int) -> IntervalPoints:
    """The points t located on the grid of m nodes, for any number of :func:`interval_values` calls.

    ``t`` is a scalar or an array.  Points more than 1e-12 of the domain's
    length outside [-1, 1] raise ``ValueError``; the others are
    clipped to it.  A NaN point is kept, and every spline reads NaN there.
    """
    pts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(pts).ravel()
    slack = 1e-12 * (INTERVAL_B - INTERVAL_A)
    lo, hi = float(np.min(flat)), float(np.max(flat))
    if lo < INTERVAL_A - slack or hi > INTERVAL_B + slack:
        raise ValueError(
            f"evaluation points span [{lo:.6g}, {hi:.6g}] outside "
            f"[{INTERVAL_A:.6g}, {INTERVAL_B:.6g}]"
        )
    return _spline_grid(m).locate(pts)


def interval_values(samples, t, order: int = 0):
    """Value (order 0) or derivative (order 1, 2) at t of the spline of the m node samples.

    The spline is the not-a-knot cubic spline of the samples at the m
    equispaced nodes of [-1, 1], which is linear in the data (so composition
    operators built on it are genuine matrices) and whose endpoint
    derivatives come from one-sided information.  ``t`` is a scalar, which
    gives a float, an array, which gives an array of its shape, or points
    already located on the grid by :func:`interval_locate`, which gives what
    their points would give.  Points are located with that function's domain
    rules: more than 1e-12 of the domain's length outside [-1, 1] raises
    ``ValueError``, the others are clipped to it, and a NaN point gives
    NaN, as in SciPy.

    ``samples`` is m samples, one spline read at every point, or a k x m
    stack, whose row r is read at row r of points of shape (k, ...).  The
    node slopes of a stack come from one pass of the grid's slope band, the
    same arithmetic for every row, so row r is bitwise the spline of row r
    alone at its points; a NaN sample spreads over the slopes of its band
    only, so it reads NaN only in the intervals near it.  Each point reads
    only the two nodes of its interval, in the cubic Hermite form
    y0 + (h01 (y1 - y0) + h10 s0 + h11 s1) with the weights the located set
    keeps (:meth:`IntervalPoints.weights`); a derivative drops the y0 term.
    A constant therefore reads back exactly, with derivatives exactly 0,
    and a node that starts its interval (every node but the last) returns
    its own sample.  Adding y0 last rounds a value once at its own scale,
    as accurate as the power form about x_i (measured at m = 1025).
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[-1]
    pts = t if isinstance(t, IntervalPoints) else interval_locate(t, m)
    if pts.m != m:
        raise ValueError(f"points located on {pts.m} nodes, samples on {m}")
    i = pts.index
    if samples.ndim == 2:
        k = samples.shape[0]
        if pts.shape[:1] != (k,):
            raise ValueError(f"points of shape {pts.shape} for a stack of {k} splines")
        # every row's points read its own row of the flattened stack
        i = (i.reshape(k, -1) + m * np.arange(k)[:, None]).ravel()
    y, s = samples.ravel(), _spline_grid(m).slopes(samples).ravel()
    h01, h10, h11 = pts.weights(order)
    y0 = y.take(i)
    vals = y[1:].take(i)
    vals -= y0
    vals *= h01
    s0 = s.take(i)
    s0 *= h10
    vals += s0
    s1 = s[1:].take(i)
    s1 *= h11
    vals += s1
    if order == 0:
        vals += y0
    if pts.shape == ():
        return float(vals[0])
    return vals.reshape(pts.shape)


# ---------------------------------------------------------------------------
# Hölder machinery
# ---------------------------------------------------------------------------


def _dyadic_shifts(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Interpolant values f(x_j + h_m) at every node of each sample row: a k x levels x n array.

    A shift by a whole number of nodes is a roll of the rows.  The other
    shifts are one batched phase shift of the Fourier coefficients of the
    whole stack; the Nyquist coefficient is scaled by cos(n pi h), because
    the interpolant carries that mode as the cosine cos(n pi x).
    """
    n = rows.shape[1]
    steps = h * n
    rolled = steps == np.rint(steps)
    out = np.empty((rows.shape[0], h.size, n))
    for level in np.flatnonzero(rolled):
        out[:, level] = np.roll(rows, -int(steps[level]), axis=1)
    shifted = ~rolled
    # k h is exact for h = 2^-m, so the phase is reduced mod 1 before scaling by 2 pi.
    turns = np.outer(h[shifted], np.arange(n // 2 + 1)) % 1.0
    phase = np.exp(2j * np.pi * turns)
    phase[:, -1] = np.cos(np.pi * (steps[shifted] % 2.0))
    out[:, shifted] = np.fft.irfft(np.fft.rfft(rows)[:, None, :] * phase, n)
    return out


def _circle_seminorms(rows: np.ndarray, alpha: float, budget: int, seed: int) -> np.ndarray:
    """Sup of |f(x) - f(y)| / d(x, y)^alpha for each of the k x n sample `rows`.

    The pairs are the dyadic node pairs and `budget` seeded random pairs.  The
    random pairs are taken one block at a time: each block evaluates the whole
    stack at its points with one cot table and folds its ratios into the
    running sups, so no k x budget array is held.  The blocks share one pair
    of scratch tables, made once per call.
    """
    h = 2.0 ** -np.arange(1, DYADIC_LEVELS + 1)
    ratios = _dyadic_shifts(rows, h)
    ratios -= rows[:, None, :]
    np.abs(ratios, out=ratios)
    ratios /= (h**alpha)[:, None]
    sups = np.max(ratios, axis=(1, 2), initial=0.0)
    del ratios  # the k x levels x n table is not kept while the random pairs run
    rng = np.random.default_rng(seed)
    rx = rng.random(budget)
    ry = rng.random(budget)
    rd = circle_distance(rx, ry)
    keep = rd > _MIN_PAIR_DISTANCE
    rx, ry, scale = rx[keep], ry[keep], rd[keep] ** alpha
    pairs = max(1, _EVAL_BLOCK_ENTRIES // (2 * rows.shape[1]))
    tables = _cot_tables(rows.shape[1], 2 * pairs)
    for i in range(0, rx.size, pairs):
        block = slice(i, i + pairs)
        values = _interpolant_values(np.concatenate([rx[block], ry[block]]), rows, tables)
        half = values.shape[0] // 2
        diff = np.abs(values[:half] - values[half:])
        diff /= scale[block, None]
        np.maximum(sups, np.max(diff, axis=0), out=sups)
    return sups


def _circle_rows(f) -> np.ndarray:
    """The k x n sample rows of a sample vector (one row) or of a stack of rows, n even >= 8."""
    if not isinstance(f, np.ndarray) or f.ndim not in (1, 2):
        raise TypeError(f"expected a sample vector or a stack of sample rows, got {type(f)!r}")
    if f.shape[-1] < 8 or f.shape[-1] % 2 != 0:
        raise ValueError(f"resolution must be an even integer >= 8, got {f.shape[-1]}")
    return np.atleast_2d(f).astype(float, copy=False)


def _interval_pairs(m: int, budget: int, seed: int):
    """The (x, y, |x - y|) of the interval pair set of m nodes, `budget` and `seed`."""
    nodes = interval_nodes(m)
    scale = INTERVAL_B - INTERVAL_A
    xs, ys, ds = [], [], []
    for level in range(1, DYADIC_LEVELS + 1):
        h = scale * 2.0**-level
        x = nodes[nodes + h <= INTERVAL_B + 1e-15]
        xs.append(x)
        ys.append(np.minimum(x + h, INTERVAL_B))
        ds.append(np.full(x.size, h))
    rng = np.random.default_rng(seed)
    rx = INTERVAL_A + scale * rng.random(budget)
    ry = INTERVAL_A + scale * rng.random(budget)
    xs.append(rx)
    ys.append(ry)
    ds.append(np.abs(rx - ry))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    d = np.concatenate(ds)
    keep = d > _MIN_PAIR_DISTANCE * scale
    return x[keep], y[keep], d[keep]


def _interval_seminorm(samples: np.ndarray, alpha: float, pair_budget: int, seed: int):
    """Sup of |f(x) - f(y)| / |x - y|^alpha of the spline of m samples, or of each row of a stack.

    The pairs are (x_j, x_j + 2 * 2^-m) for every node x_j and
    m = 1..DYADIC_LEVELS, clipped at the right end, plus `pair_budget` seeded
    uniform pairs, dropping pairs closer than _MIN_PAIR_DISTANCE times the
    domain's length.  One call draws the pairs and locates them once, as
    one set of shape (2, pairs), and reads both ends of every pair in one
    :func:`interval_values` call per row.  This sampled form is a lower
    bound; :func:`interval_cr_norm` reads it at alpha < 1 only, and at
    alpha = 1 takes the exact :func:`_interval_lipschitz`.  A vector gives a
    float and a k x m stack its k seminorms; a vector is a one-row stack.
    """
    rows = np.atleast_2d(samples)
    x, y, d = _interval_pairs(rows.shape[1], pair_budget, seed)
    ends = _spline_grid(rows.shape[1]).locate(np.stack([x, y]))
    scale = d**alpha
    del x, y, d  # the unlocated pairs are not held while the rows are read

    def sup_ratio(row):
        # its values and ratios are freed before the next row is read
        values = interval_values(row, ends)
        ratios = np.abs(values[0] - values[1])
        ratios /= scale
        return np.max(ratios, initial=0.0)

    semis = np.array([sup_ratio(row) for row in rows])
    return float(semis[0]) if samples.ndim == 1 else semis


def _interval_lipschitz(rows: np.ndarray) -> np.ndarray:
    """The exact Lipschitz constant max |S'| of the spline S of each row of a k x m stack.

    On interval i, in u = (t - x_i) / (x_{i+1} - x_i), S' is the quadratic
    s0 + b u + a u^2 with s0, s1 the node slopes at its ends, d the divided
    difference of the samples there, b = 6 d - 4 s0 - 2 s1 and
    a = 3 (s0 + s1 - 2 d).  Its extrema on [0, 1] are the node slopes and,
    when the zero u* = -b / (2 a) of S'' lies strictly inside, the vertex
    value s0 + b u* / 2.  So the constant is the larger of max |s| and those
    vertex values: O(m) work from one slope solve of the stack, with no pairs
    and no seed.  Every row goes through the same elementwise arithmetic, so
    each row's constant is bitwise that of the row alone.
    """
    grid = _spline_grid(rows.shape[1])
    s = grid.slopes(rows)
    d = np.diff(rows, axis=1)
    d /= grid.dx
    s0, s1 = s[:, :-1], s[:, 1:]
    b = 6.0 * d - 4.0 * s0 - 2.0 * s1
    a = 3.0 * (s0 + s1 - 2.0 * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -b / (2.0 * a)
        peaks = np.abs(s0 + 0.5 * b * vertex)
    inside = (vertex > 0.0) & (vertex < 1.0)
    return np.maximum(np.max(np.abs(s), axis=1),
                      np.max(peaks, axis=1, where=inside, initial=0.0))


def holder_seminorm(f, alpha: float, pair_budget: int = 4096, seed: int = DEFAULT_SEED):
    """Estimate sup |f(x)-f(y)| / d(x,y)^alpha over dyadic node pairs plus seeded random pairs.

    ``f`` is a circle sample vector, which gives a float, or a k x n float
    array of sample rows, which gives the k seminorms of its rows.  The pairs
    are (x_j, x_j + 2^-m) for every node x_j and m = 1..DYADIC_LEVELS, plus
    `pair_budget` seeded uniform pairs, dropping pairs closer than
    _MIN_PAIR_DISTANCE.  The returned value is a lower bound of the true
    seminorm: only finitely many pairs are inspected.  The pair set is
    deterministic for a given (resolution, pair_budget, seed), which makes
    norm comparisons between related functions consistent.  The dyadic values
    are exact Fourier shifts of the samples and the random pairs use the
    barycentric form of the same interpolant, whose cot table is built once
    per block of points for every row of a stack, so no dense cardinal matrix
    is built.

    The library's norms call the kernel behind this directly, and
    :func:`cr_norm` reports the larger of this seminorm and the sup norms,
    so this is the one public reading of the seminorm alone, with its check
    that alpha lies in (0, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    semis = _circle_seminorms(_circle_rows(f), alpha, pair_budget, seed)
    return float(semis[0]) if f.ndim == 1 else semis


def _split_order(r: float, resolution: int):
    """(k, alpha), r = k + alpha with alpha in (0, 1]; ValueError unless 0 <= k < resolution / 4."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    k = math.ceil(r) - 1
    if k >= resolution / 4:
        raise ValueError(f"order {k} derivatives on {resolution} samples: "
                         "norm surrogate unreliable")
    return k, r - k


def cr_norm(f, r: float, pair_budget: int = 4096, seed: int = DEFAULT_SEED):
    """Circle C^r norm surrogate max(ck, semi), r = k + alpha, k integer >= 0 and alpha in (0, 1].

    ck is the max of the node sup norms of f, f', ..., f^(k); semi is the
    sampled alpha-Hölder seminorm of f^(k), as :func:`holder_seminorm` reads it, a
    lower bound over its fixed pair set (exact Fourier shifts for the dyadic
    pairs, the barycentric interpolant for the random ones).  ``f`` is a
    circle sample vector, which gives a float, or a k x n float array of
    sample rows, which gives the norms of its rows.  A vector is a one-row
    stack, so the rows of a stack share one pass: one batched FFT for the
    derivatives and the dyadic shifts, and one cot table per block of random
    points.
    """
    g = _circle_rows(f)
    k, alpha = _split_order(float(r), g.shape[1])
    sups = np.max(np.abs(g), axis=1)
    for _ in range(k):
        g = _spectral_derivative(g)
        np.maximum(sups, np.max(np.abs(g), axis=1), out=sups)
    norms = np.maximum(sups, _circle_seminorms(g, alpha, pair_budget, seed))
    return float(norms[0]) if f.ndim == 1 else norms


def interval_cr_norm(samples, r: float, seed: int = DEFAULT_SEED):
    """Interval C^r norm surrogate max(ck, semi) of m node samples on [-1, 1], r = k + alpha.

    ck is the max of the node sup norms of f and of its first k spline
    derivatives, each taken as the node slopes of the spline of the one
    before (:func:`interval_slopes`); semi is the alpha-Hölder seminorm of
    the spline S of g = f^(k).  At alpha = 1 it is exact: Lip(S) = max |S'|,
    read from the node slopes of g and each interval's interior extremum of
    S' (:func:`_interval_lipschitz`), with no pairs and no seed.  At
    alpha < 1 it is sampled over the interval's fixed pair set, with 4096
    pairs of ``seed``, a lower bound of the true seminorm
    (:func:`_interval_seminorm`), which one call draws and locates once.
    ``samples`` is m samples, which gives a float, or a k x m stack, which
    gives the k row norms, each bitwise the norm of its row alone: the
    derivatives and the exact seminorm take one pass over the stack, and at
    alpha < 1 each row reads the one pair set.
    """
    f = np.asarray(samples, dtype=float)
    g = np.atleast_2d(f)
    k, alpha = _split_order(float(r), g.shape[1])
    sups = np.max(np.abs(g), axis=1)
    for _ in range(k):
        g = interval_slopes(g)
        np.maximum(sups, np.max(np.abs(g), axis=1), out=sups)
    if alpha == 1.0:
        semis = _interval_lipschitz(g)
    else:
        semis = _interval_seminorm(g, alpha, 4096, seed)
    norms = np.maximum(sups, semis)
    return float(norms[0]) if f.ndim == 1 else norms
