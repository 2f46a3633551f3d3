"""Function spaces on the circle R/Z and on compact intervals.

``GridFunction`` represents a real 1-periodic function by N equispaced
samples with trigonometric interpolation (spectrally accurate for smooth
data).  ``IntervalFunction`` represents a function on [a, b] by M
equispaced samples with the not-a-knot cubic spline.  That spline is the
node values plus the node slopes, and the slopes solve one tridiagonal
system T s = B y whose matrix T depends on the grid (M, a, b) alone, so T
is LU-factored once per grid and every spline costs one O(M) solve; a value
or derivative at t is then a gather of the two nodes around t and one cubic
in the local power form.  Both support the computable surrogates used
throughout the library for Hölder seminorms and C^r norms: the seminorm is
the sup of difference quotients over a deterministic set of dyadic node
pairs plus seeded pseudo-random pairs, hence always a lower bound of the
true seminorm.  On the circle no dense cardinal matrix is built for it: the
values at the dyadic pairs are exact Fourier shifts of the samples (a roll
where the shift is a whole number of nodes), and the random pairs are
evaluated with the barycentric form of the same interpolant.  All objects
are immutable; operations return new values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import NumericsError, OutOfDomainError

DEFAULT_SEED = 0x5EED

# Dyadic pair distances 2^-1 .. 2^-DYADIC_LEVELS enter every seminorm estimate.
DYADIC_LEVELS = 16

# Entries of the (point, node) table that one block of GridFunction.eval builds.
_EVAL_BLOCK_ENTRIES = 1 << 16

# Pairs closer than this are discarded: difference quotients of rounding noise
# would otherwise pollute the sup.
_MIN_PAIR_DISTANCE = 1e-9

# The factored slope system of the most recent interval grid, keyed on
# (m, a, b); see _spline_grid.
_SPLINE_GRID_MEMO: dict[tuple[int, float, float], "_SplineGrid"] = {}


def circle_nodes(n: int) -> np.ndarray:
    """Equispaced nodes x_j = j/n on R/Z."""
    return np.arange(n) / n


def circle_distance(x, y):
    """Flat metric on R/Z: d(x, y) = min(|x-y|, 1-|x-y|)."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def interpolation_matrix(points, n: int) -> np.ndarray:
    """Dense matrix taking samples at the n circle nodes to values at `points`.

    Rows are the periodic cardinal functions sin(n*pi*t)*cot(pi*t)/n
    (t = distance to the node), the interpolant that reproduces trigonometric
    polynomials of degree < n/2 exactly and treats the Nyquist mode as a
    cosine.  Points within ~1e-12 of a node get an exact one-hot row.

    The entries are sin(n pi t) * cos(pi t) / (n sin(pi t)), evaluated with
    the same ufuncs in the same order as that expression, but written into
    two scratch tables besides the result, so the values are bitwise those
    of the one-line form at about two thirds of its peak memory.  The points
    are reduced mod 1 first, so every difference t lies in (-1, 1], and
    ``t += t < 0`` is bitwise the ``t % 1`` of the one-line form: ``%`` adds
    the same 1.0 to a negative t, and a difference of 1.0 (a point just
    below 0 that rounds to 1.0) is snapped to its node either way.
    """
    pts = np.asarray(points, dtype=float).ravel() % 1.0
    t = np.subtract.outer(pts, circle_nodes(n))
    t += t < 0.0
    s = np.multiply(t, np.pi)
    np.sin(s, out=s)
    vals = np.multiply(t, np.pi * n)
    np.sin(vals, out=vals)
    np.multiply(t, np.pi, out=t)
    np.cos(t, out=t)
    vals *= t
    np.multiply(s, n, out=t)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals /= t
    np.abs(s, out=t)
    hit_row, hit_col = np.nonzero(t < 1e-12)
    if hit_row.size:
        vals[hit_row] = 0.0
        vals[hit_row, hit_col] = 1.0
    return vals


# Taylor terms of the cardinal derivative at the nearest node (|n pi t| <= pi/2).
_NEAR_NODE_TERMS = 12


@lru_cache(maxsize=32)
def _near_node_coefficients(n: int) -> np.ndarray:
    """Odd Taylor coefficients c_j of the cardinal derivative: sum_j c_j t^(2j+1).

    From the cardinal function's cosine series
    (1 + 2 sum_{0<k<n/2} cos(2 pi k t) + cos(n pi t)) / n.
    """
    m = n // 2
    ks = np.arange(1, m, dtype=float)
    coeffs = np.empty(_NEAR_NODE_TERMS)
    for j in range(_NEAR_NODE_TERMS):
        p = 2 * j + 2
        moment = 2.0 * np.sum(ks**p) + float(m) ** p
        coeffs[j] = (-1) ** (j + 1) * (2.0 * np.pi) ** p * moment / (n * math.factorial(2 * j + 1))
    return coeffs


def interpolation_derivative_matrix(points, n: int) -> np.ndarray:
    """Dense matrix taking samples at the n circle nodes to interpolant slopes at `points`.

    Rows are the exact y-derivatives of the cardinal functions of
    :func:`interpolation_matrix`, Nyquist cosine included:
    pi cos(n pi t) cot(pi t) - pi sin(n pi t) / (n sin^2(pi t)).  At the node
    x_i the entry of column j is pi (-1)^(i-j) cot(pi (i-j) / n), and 0 for
    j = i, which is row i of :func:`differentiation_matrix`.  In the column of
    the nearest node the two terms cancel, so it is summed from its Taylor
    series instead.
    """
    pts = np.asarray(points, dtype=float).ravel() % 1.0
    nearest = np.rint(pts * n)
    t0 = pts - nearest / n
    # At node j, n pi t = n pi t0 + pi (k - j) mod 2 pi with k the nearest node,
    # so sin and cos of it come from t0 up to the sign (-1)^(k - j).
    parity = 1.0 - 2.0 * (nearest % 2)
    sin_scaled = (np.pi / n) * parity * np.sin(np.pi * n * t0)
    cos_scaled = np.pi * parity * np.cos(np.pi * n * t0)
    cot = np.subtract.outer(pts, circle_nodes(n))
    cot -= np.rint(cot)
    cot *= np.pi
    np.tan(cot, out=cot)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, cot, out=cot)
        # cot * (cos_scaled - sin_scaled * cot) - sin_scaled, times (-1)^j below
        vals = sin_scaled[:, None] * cot
        np.subtract(cos_scaled[:, None], vals, out=vals)
        vals *= cot
    vals -= sin_scaled[:, None]
    vals *= 1.0 - 2.0 * (np.arange(n) % 2)
    t_sq = t0 * t0
    near = np.zeros_like(t0)
    for c in _near_node_coefficients(n)[::-1]:
        near = near * t_sq + c
    vals[np.arange(pts.size), nearest.astype(int) % n] = near * t0
    return vals


@lru_cache(maxsize=32)
def differentiation_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix on the n-point periodic grid.

    This is the on-grid derivative with the Nyquist mode dropped (the sampled
    Nyquist mode has no derivative at the nodes).  It is not the derivative
    of the off-grid interpolant of :func:`interpolation_matrix`, whose Nyquist
    cosine has a non-zero slope between nodes; use
    :func:`interpolation_derivative_matrix` for that.
    """
    coeffs = np.fft.rfft(np.eye(n), axis=0)
    k = np.arange(n // 2 + 1)
    coeffs *= (2j * np.pi * k)[:, None]
    coeffs[-1, :] = 0.0  # Nyquist mode has no sampled derivative
    mat = np.fft.irfft(coeffs, n, axis=0)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=32)
def _node_angles(n: int) -> np.ndarray:
    """Rows cos(pi x_j) and sin(pi x_j) over the n circle nodes."""
    angles = np.pi * circle_nodes(n)
    table = np.stack([np.cos(angles), np.sin(angles)])
    table.flags.writeable = False
    return table


def _barycentric_eval(points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Interpolant of `samples` at `points`, none of them on a node.

    cot pi(x - x_j) is the ratio of two rank-2 products of (cos pi x, sin pi x)
    with the node angles, so the table needs no transcendental per entry.
    Blocks of rows keep the table at _EVAL_BLOCK_ENTRIES entries.
    """
    n = samples.size
    table = _node_angles(n)
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    weights = np.stack([sign * samples, sign], axis=1)
    out = np.empty(points.size)
    rows = max(1, _EVAL_BLOCK_ENTRIES // n)
    for i in range(0, points.size, rows):
        angles = np.pi * points[i : i + rows]
        cos_x, sin_x = np.cos(angles), np.sin(angles)
        cot = np.stack([cos_x, sin_x], axis=1) @ table  # cos pi(x - x_j)
        cot /= np.stack([sin_x, -cos_x], axis=1) @ table  # sin pi(x - x_j)
        sums = cot @ weights
        out[i : i + rows] = sums[:, 0] / sums[:, 1]
    return out


class GridFunction:
    """Real 1-periodic function given by N equispaced samples, N even >= 8."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.array(samples, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError("samples must be a one-dimensional vector")
        if arr.size < 8 or arr.size % 2 != 0:
            raise ValueError(f"resolution must be an even integer >= 8, got {arr.size}")
        arr.flags.writeable = False
        self.samples = arr

    @property
    def resolution(self) -> int:
        return self.samples.size

    @property
    def nodes(self) -> np.ndarray:
        return circle_nodes(self.resolution)

    @classmethod
    def from_callable(cls, f, n: int) -> "GridFunction":
        vals = np.asarray(f(circle_nodes(n)), dtype=float)
        if vals.ndim == 0:
            vals = np.full(n, float(vals))
        return cls(vals)

    @classmethod
    def constant(cls, value: float, n: int) -> "GridFunction":
        return cls(np.full(n, float(value)))

    def eval(self, x):
        """Evaluate the trigonometric interpolant at x (scalar or array), 1-periodically.

        This is the interpolant of :func:`interpolation_matrix`, in the
        second-kind barycentric form
        f(x) = sum_j (-1)^j f_j cot pi(x - x_j) / sum_j (-1)^j cot pi(x - x_j),
        which stays accurate next to a node.  Points within ~1e-12 of a node
        return that node's sample exactly.
        """
        pts = np.asarray(x, dtype=float)
        flat = np.atleast_1d(pts).ravel() % 1.0
        n = self.resolution
        nearest = np.rint(flat * n)
        on_node = np.abs(np.sin(np.pi * (flat - nearest / n))) < 1e-12
        out = np.empty(flat.size)
        out[on_node] = self.samples[nearest[on_node].astype(int) % n]
        out[~on_node] = _barycentric_eval(flat[~on_node], self.samples)
        if pts.ndim == 0:
            return float(out[0])
        return out.reshape(pts.shape)

    def derivative(self) -> "GridFunction":
        """Spectral derivative; exact for trigonometric polynomials of degree < N/2."""
        n = self.resolution
        c = np.fft.rfft(self.samples)
        c *= 2j * np.pi * np.arange(c.size)
        c[-1] = 0.0
        return GridFunction(np.fft.irfft(c, n))

    def antiderivative(self) -> "GridFunction":
        """Mean-zero periodic primitive; the mean of self is discarded."""
        n = self.resolution
        c = np.fft.rfft(self.samples)
        k = np.arange(c.size)
        c[0] = 0.0
        c[1:] = c[1:] / (2j * np.pi * k[1:])
        return GridFunction(np.fft.irfft(c, n))

    def mean(self) -> float:
        return float(self.samples.mean())

    # -- arithmetic (sample-wise; resolutions must match) --

    def _other_samples(self, other):
        if isinstance(other, GridFunction):
            if other.resolution != self.resolution:
                raise ValueError("resolution mismatch")
            return other.samples
        return other

    def __add__(self, other):
        return GridFunction(self.samples + self._other_samples(other))

    __radd__ = __add__

    def __sub__(self, other):
        return GridFunction(self.samples - self._other_samples(other))

    def __rsub__(self, other):
        return GridFunction(self._other_samples(other) - self.samples)

    def __mul__(self, other):
        return GridFunction(self.samples * self._other_samples(other))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(-self.samples)

    def __repr__(self):
        return f"GridFunction(n={self.resolution})"


def compose(f: GridFunction, g: GridFunction) -> GridFunction:
    """Sample-wise composition f(g(x_j)), with g read modulo 1."""
    if f.resolution != g.resolution:
        raise ValueError("resolution mismatch")
    return GridFunction(f.eval(g.samples % 1.0))


@dataclass(frozen=True)
class DualFunctional:
    """Linear functional on grid functions: <l, f> = sum_j weights[j] * f[j]."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @classmethod
    def lebesgue(cls, n: int) -> "DualFunctional":
        """Normalized Lebesgue measure: weights 1/n, <l, 1> = 1."""
        return cls(np.full(n, 1.0 / n))

    def pair(self, f) -> float:
        samples = f.samples if isinstance(f, GridFunction) else np.asarray(f, dtype=float)
        return float(self.weights @ samples)

    __call__ = pair


class _SplineGrid:
    """The not-a-knot slope system T s = B y of the m equispaced nodes of [a, b], factored.

    The rows are those of SciPy's ``CubicSpline``, with dx = diff(nodes) and
    slope the divided differences of y: interior rows
    dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
    = 3 (dx_i slope_{i-1} + dx_{i-1} slope_i), and the not-a-knot end row
    dx_1 s_0 + (x_2 - x_0) s_1 = ((dx_0 + 2 (x_2 - x_0)) dx_1 slope_0
    + dx_0^2 slope_1) / (x_2 - x_0), mirrored at the right end.  T depends
    on the grid alone, so its ``dgttrf`` factors are computed once here and
    every spline on the grid costs one ``dgttrs`` solve.
    """

    __slots__ = ("m", "a", "b", "h", "nodes", "dx", "starts", "factors")

    def __init__(self, m: int, a: float, b: float):
        if m < 4 or not a < b:
            raise ValueError(f"need m >= 4 nodes and a < b, got m={m} on [{a}, {b}]")
        nodes = np.linspace(a, b, m)
        dx = np.diff(nodes)
        lower = np.append(dx[1:], nodes[-1] - nodes[-3])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.append(nodes[2] - nodes[0], dx[:-1])
        *factors, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise NumericsError(f"not-a-knot slope system of {m} nodes is singular")
        # starts[i] is where interval i + 1 starts; the last interval has none
        starts = np.append(nodes[1:-1], np.inf)
        for arr in (nodes, dx, starts, *factors):
            arr.flags.writeable = False
        self.m, self.a, self.b = m, a, b
        self.h = (b - a) / (m - 1)
        self.nodes, self.dx, self.starts = nodes, dx, starts
        self.factors = tuple(factors)

    def slopes(self, y) -> np.ndarray:
        """Node slopes of the spline of ``y``: m samples, or an m x k block of columns."""
        y = np.asarray(y, dtype=float)
        dx = self.dx.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0)
        slope /= dx
        rhs = np.empty(y.shape)
        x = self.nodes
        d = x[2] - x[0]
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        np.multiply(dx[1:], slope[:-1], out=rhs[1:-1])
        slope[1:] *= dx[:-1]  # the end rows above have read their slopes
        rhs[1:-1] += slope[1:]
        rhs[1:-1] *= 3.0
        s, _ = dgttrs(*self.factors, rhs.reshape(self.m, -1), overwrite_b=1)
        return s.reshape(y.shape)

    def evaluate(self, y: np.ndarray, s: np.ndarray, t: np.ndarray, order: int = 0) -> np.ndarray:
        """Value (order 0) or derivative (order 1, 2) at ``t`` of the spline with node values y, slopes s.

        ``y`` and ``s`` are vectors, or m x k blocks giving one column per
        spline.  ``t`` is clipped to [a, b], and each point reads only the two
        nodes of its interval i = min(floor((t - a) / h), m - 2), moved up one
        where rounding put a node x_{i+1} = t one interval low, so that a node
        starts its own interval as in ``PPoly`` and returns its sample
        exactly.  The cubic is taken in the power form about x_i, with
        ``PPoly``'s coefficients, and summed by Horner's rule.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
        t = np.clip(t, self.a, self.b)
        # fmin sends a NaN point to the last interval, where its value stays NaN
        i = np.fmin((t - self.a) / self.h, self.m - 2).astype(np.intp)
        i += t >= self.starts[i]
        shape = (-1,) + (1,) * (y.ndim - 1)
        w = (t - self.nodes[i]).reshape(shape)
        dx = self.dx[i].reshape(shape)
        y0, s0 = y[i], s[i]
        slope = (y[i + 1] - y0) / dx
        c3 = (s0 + s[i + 1] - 2.0 * slope) / dx
        c2 = (slope - s0) / dx - c3
        c3 /= dx
        if order == 0:
            return y0 + w * (s0 + w * (c2 + w * c3))
        if order == 1:
            return s0 + w * (2.0 * c2 + 3.0 * w * c3)
        return 2.0 * c2 + 6.0 * w * c3


def _spline_grid(m: int, a: float, b: float) -> _SplineGrid:
    """The factored slope system of the grid (m, a, b), built once per grid.

    Only the most recent grid is kept, with read-only factors.  The memo is
    cleared before a new grid is built, so two are never alive at once.
    """
    key = (int(m), float(a), float(b))
    grid = _SPLINE_GRID_MEMO.get(key)
    if grid is None:
        _SPLINE_GRID_MEMO.clear()
        grid = _SplineGrid(*key)
        _SPLINE_GRID_MEMO[key] = grid
    return grid


class IntervalFunction:
    """Function on [a, b] given by M >= 8 equispaced samples, cubic-spline interpolated.

    The interpolant is the not-a-knot cubic spline, which is linear in the
    data (so composition operators built on it are genuine matrices) and
    whose endpoint derivatives come from one-sided information.  It is held
    as the samples and their node slopes.  The slopes are one solve with the
    grid's prefactored slope system (:class:`_SplineGrid`), made when first
    needed and kept; a value or derivative at t is then a gather of the two
    nodes around t.  :meth:`spline` gives the same interpolant as a SciPy
    ``CubicSpline``.
    """

    __slots__ = ("samples", "a", "b", "_slopes")

    def __init__(self, samples, a: float = -1.0, b: float = 1.0):
        arr = np.array(samples, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError("samples must be a one-dimensional vector")
        if arr.size < 8:
            raise ValueError(f"resolution must be >= 8, got {arr.size}")
        if not a < b:
            raise ValueError("need a < b")
        arr.flags.writeable = False
        self.samples = arr
        self.a = float(a)
        self.b = float(b)
        self._slopes = None

    @property
    def resolution(self) -> int:
        return self.samples.size

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.resolution)

    @classmethod
    def from_callable(cls, f, m: int, a: float = -1.0, b: float = 1.0) -> "IntervalFunction":
        ts = np.linspace(a, b, m)
        vals = np.asarray(f(ts), dtype=float)
        if vals.ndim == 0:
            vals = np.full(m, float(vals))
        return cls(vals, a, b)

    def _grid(self) -> _SplineGrid:
        return _spline_grid(self.resolution, self.a, self.b)

    def _node_slopes(self) -> np.ndarray:
        if self._slopes is None:
            slopes = self._grid().slopes(self.samples)
            slopes.flags.writeable = False
            self._slopes = slopes
        return self._slopes

    def spline(self) -> CubicSpline:
        """The same interpolant as a SciPy ``CubicSpline``, built afresh."""
        return CubicSpline(self.nodes, self.samples, bc_type="not-a-knot")

    def _check_domain(self, pts: np.ndarray):
        slack = 1e-12 * (self.b - self.a)
        lo, hi = float(np.min(pts)), float(np.max(pts))
        if lo < self.a - slack or hi > self.b + slack:
            raise OutOfDomainError(
                f"evaluation points span [{lo:.6g}, {hi:.6g}] outside [{self.a:.6g}, {self.b:.6g}]"
            )

    def eval(self, t):
        return self.eval_derivative(t, 0)

    def eval_derivative(self, t, order: int = 1):
        """Derivative of order 0, 1 or 2 at t (scalar or array), t clipped to [a, b]."""
        pts = np.asarray(t, dtype=float)
        flat = np.atleast_1d(pts)
        self._check_domain(flat)
        vals = self._grid().evaluate(self.samples, self._node_slopes(), flat.ravel(), order)
        if pts.ndim == 0:
            return float(vals[0])
        return vals.reshape(pts.shape)

    def derivative(self) -> "IntervalFunction":
        """The spline's slopes at the nodes, as a new interval function."""
        return IntervalFunction(self._node_slopes(), self.a, self.b)

    def _other_samples(self, other):
        if isinstance(other, IntervalFunction):
            if other.resolution != self.resolution or (other.a, other.b) != (self.a, self.b):
                raise ValueError("grid mismatch")
            return other.samples
        return other

    def __add__(self, other):
        return IntervalFunction(self.samples + self._other_samples(other), self.a, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        return IntervalFunction(self.samples - self._other_samples(other), self.a, self.b)

    def __rsub__(self, other):
        return IntervalFunction(self._other_samples(other) - self.samples, self.a, self.b)

    def __mul__(self, other):
        return IntervalFunction(self.samples * self._other_samples(other), self.a, self.b)

    __rmul__ = __mul__

    def __neg__(self):
        return IntervalFunction(-self.samples, self.a, self.b)

    def __repr__(self):
        return f"IntervalFunction(m={self.resolution}, [{self.a}, {self.b}])"


def interval_interpolation_matrix(points, m: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Matrix taking samples at the m equispaced nodes of [a, b] to spline values at `points`.

    Row i holds the values at ``points[i]`` (clipped to [a, b]) of the m
    not-a-knot cardinal splines of the grid.  Their node slopes are those of
    the identity, one multi-column solve with the grid's prefactored slope
    system (:class:`_SplineGrid`); each row is then gathered from the two
    nodes around its point, a block of rows at a time, so that the only
    m x m table besides the result is the slopes, which the call drops.
    """
    grid = _spline_grid(m, a, b)
    pts = np.asarray(points, dtype=float).ravel()
    values = np.eye(grid.m)
    slopes = grid.slopes(values)
    out = np.empty((pts.size, grid.m))
    rows = max(1, _EVAL_BLOCK_ENTRIES // grid.m)
    for start in range(0, pts.size, rows):
        block = slice(start, start + rows)
        out[block] = grid.evaluate(values, slopes, pts[block])
    return out


# ---------------------------------------------------------------------------
# Hölder machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderNormReport:
    """C^r norm surrogate: r = order + exponent, value = max(ck_norm, seminorm)."""

    sup_norm: float
    ck_norm: float
    seminorm_estimate: float
    exponent: float
    order: int
    value: float


def _dyadic_shifts(samples: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Interpolant values f(x_j + h_m) at every node, one row per shift h_m = 2^-m.

    A shift by a whole number of nodes is a roll of the samples.  The other
    shifts are one batched phase shift of the Fourier coefficients; the
    Nyquist coefficient is scaled by cos(n pi h), because the interpolant
    carries that mode as the cosine cos(n pi x).
    """
    n = samples.size
    steps = h * n
    rolled = steps == np.rint(steps)
    out = np.empty((h.size, n))
    for level in np.flatnonzero(rolled):
        out[level] = np.roll(samples, -int(steps[level]))
    shifted = ~rolled
    # k h is exact for h = 2^-m, so the phase is reduced mod 1 before scaling by 2 pi.
    turns = np.outer(h[shifted], np.arange(n // 2 + 1)) % 1.0
    phase = np.exp(2j * np.pi * turns)
    phase[:, -1] = np.cos(np.pi * (steps[shifted] % 2.0))
    out[shifted] = np.fft.irfft(np.fft.rfft(samples) * phase, n, axis=1)
    return out


def _circle_differences(f: GridFunction, budget: int, seed: int):
    """|f(x) - f(y)| and d(x, y) over the dyadic node pairs and `budget` seeded random pairs."""
    h = 2.0 ** -np.arange(1, DYADIC_LEVELS + 1)
    dyadic = np.abs(f.samples - _dyadic_shifts(f.samples, h))
    rng = np.random.default_rng(seed)
    rx = rng.random(budget)
    ry = rng.random(budget)
    rd = circle_distance(rx, ry)
    keep = rd > _MIN_PAIR_DISTANCE
    random = np.abs(f.eval(rx[keep]) - f.eval(ry[keep]))
    diff = np.concatenate([dyadic.ravel(), random])
    d = np.concatenate([np.repeat(h, f.resolution), rd[keep]])
    return diff, d


def _interval_pairs(f: IntervalFunction, budget: int, seed: int):
    nodes = f.nodes
    scale = f.b - f.a
    xs, ys, ds = [], [], []
    for m in range(1, DYADIC_LEVELS + 1):
        h = scale * 2.0**-m
        x = nodes[nodes + h <= f.b + 1e-15]
        xs.append(x)
        ys.append(np.minimum(x + h, f.b))
        ds.append(np.full(x.size, h))
    rng = np.random.default_rng(seed)
    rx = f.a + scale * rng.random(budget)
    ry = f.a + scale * rng.random(budget)
    xs.append(rx)
    ys.append(ry)
    ds.append(np.abs(rx - ry))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    d = np.concatenate(ds)
    keep = d > _MIN_PAIR_DISTANCE * scale
    return x[keep], y[keep], d[keep]


def holder_seminorm(f, alpha: float, pair_budget: int = 4096, seed: int = DEFAULT_SEED) -> float:
    """Estimate sup |f(x)-f(y)| / d(x,y)^alpha over dyadic node pairs plus seeded random pairs.

    The pairs are (x_j, x_j + 2^-m) for every node x_j and m = 1..DYADIC_LEVELS
    (clipped at the right end on an interval), plus `pair_budget` seeded
    uniform pairs, dropping pairs closer than _MIN_PAIR_DISTANCE.  The
    returned value is a lower bound of the true seminorm: only finitely many
    pairs are inspected.  The pair set is deterministic for a given
    (resolution, pair_budget, seed), which makes norm comparisons between
    related functions consistent.  On the circle the dyadic values are exact
    Fourier shifts of the samples and the random pairs use the barycentric
    form of the same interpolant (:meth:`GridFunction.eval`), so no dense
    cardinal matrix is built.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if pair_budget < f.resolution:
        raise ValueError("pair_budget must be at least the resolution")
    if isinstance(f, GridFunction):
        diff, d = _circle_differences(f, pair_budget, seed)
    elif isinstance(f, IntervalFunction):
        x, y, d = _interval_pairs(f, pair_budget, seed)
        diff = np.abs(f.eval(x) - f.eval(y))
    else:
        raise TypeError(f"unsupported function type {type(f)!r}")
    ratios = diff / d**alpha
    return float(np.max(ratios, initial=0.0))


def _split_order(r: float):
    if r <= 0.0:
        raise ValueError("r must be positive")
    k = math.ceil(r) - 1
    alpha = r - k
    return k, alpha


def cr_norm(f, r: float, pair_budget: int = 4096, seed: int = DEFAULT_SEED) -> HolderNormReport:
    """C^r norm surrogate with r = k + alpha, k integer >= 0 and alpha in (0, 1].

    ck_norm is the max of the node sup norms of f, f', ..., f^(k);
    seminorm_estimate is the sampled alpha-Hölder seminorm of f^(k) from
    :func:`holder_seminorm`, a lower bound over its fixed pair set (on the
    circle: exact Fourier shifts for the dyadic pairs, the barycentric
    interpolant for the random ones).
    """
    k, alpha = _split_order(float(r))
    if k >= f.resolution / 4:
        warnings.warn(
            f"order {k} derivatives on {f.resolution} samples: norm surrogate unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    g = f
    sups = [float(np.max(np.abs(g.samples)))]
    for _ in range(k):
        g = g.derivative()
        sups.append(float(np.max(np.abs(g.samples))))
    semi = holder_seminorm(g, alpha, pair_budget=pair_budget, seed=seed)
    ck = max(sups)
    return HolderNormReport(
        sup_norm=sups[0],
        ck_norm=ck,
        seminorm_estimate=semi,
        exponent=alpha,
        order=k,
        value=max(ck, semi),
    )


def empirical_interpolation_constant(
    f,
    k: int,
    alpha: float,
    beta: float,
    gamma: float,
    pair_budget: int = 4096,
    seed: int = DEFAULT_SEED,
) -> float:
    """Smallest M with ||f||_{k+beta} <= M ||f||_{k+alpha}^mu ||f||_{k+gamma}^(1-mu) for this f.

    mu = (gamma-beta)/(gamma-alpha); all three norms are the same cr_norm surrogate.
    """
    if not (0.0 <= alpha < beta < gamma < 1.0):
        raise ValueError("need 0 <= alpha < beta < gamma < 1")
    mu = (gamma - beta) / (gamma - alpha)
    na = cr_norm(f, k + alpha, pair_budget, seed).value
    nb = cr_norm(f, k + beta, pair_budget, seed).value
    ng = cr_norm(f, k + gamma, pair_budget, seed).value
    denom = na**mu * ng ** (1.0 - mu)
    if denom == 0.0:
        return 0.0
    return nb / denom
