import tracemalloc

import numpy as np
import pytest
from dense_oracle import dense_of, differentiation_matrix, slope_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgttrf

from circleresp import spaces

from circleresp import (
    TrigSeries,
    circle_distance,
    circle_nodes,
    cr_norm,
    interpolation_matrix,
    interpolation_products,
)
from circleresp.spaces import (
    DEFAULT_SEED,
    holder_seminorm,
    interval_cr_norm,
    interval_nodes,
    interval_slopes,
    interval_values,
)


def slope_products(points, n):
    """The products (v -> S v, w -> S^T w) of the slopes at the points, V passed as one block."""
    points = np.asarray(points, dtype=float)
    blocks = [(slice(None), interpolation_matrix(points, n))]
    zeros = np.zeros(points.size)
    return (lambda v: interpolation_products(blocks, points, v, zeros, zeros)[1],
            lambda w: interpolation_products(blocks, points, np.zeros(n), zeros, w)[2])


def slopes_at(points, n):
    """The matrix of the forward slope product at the points, one column per unit vector."""
    return dense_of(slope_products(points, n)[0], n)


def random_trig_poly(rng, degree):
    """A series with standard normal constant and coefficients, drawn in that order."""
    const = rng.standard_normal()
    coeffs = rng.standard_normal((degree, 2))
    return TrigSeries(const, coeffs[:, 0], coeffs[:, 1])


def interpolant(points, samples):
    """The trigonometric interpolant of one sample vector at the points."""
    return spaces._interpolant_values(points, samples[None])[:, 0]


class TestInterpolantBasics:
    def test_interpolation_reproduces_nodes(self):
        rng = np.random.default_rng(1)
        nodes = circle_nodes(32)
        samples = random_trig_poly(rng, 5)(nodes)
        assert np.max(np.abs(interpolant(nodes, samples) - samples)) < 1e-12

    def test_periodicity(self):
        samples = np.exp(np.sin(2 * np.pi * circle_nodes(64)))
        pts = np.linspace(0.0, 1.0, 37, endpoint=False) + 0.0123
        assert np.max(np.abs(interpolant(pts, samples) - interpolant(pts + 1.0, samples))) < 1e-12


class TestTrigSeries:
    def test_pads_its_coefficients_and_holds_them_read_only(self):
        f = TrigSeries(0.5, (1.0, 2.0, 3.0), (4.0,))
        assert np.array_equal(f.sin, [1.0, 2.0, 3.0])
        assert np.array_equal(f.cos, [4.0, 0.0, 0.0])
        for coeffs in (f.sin, f.cos):
            with pytest.raises(ValueError):
                coeffs[0] = 1.0

    def test_matches_its_closed_form_with_the_shape_of_x(self):
        f = TrigSeries(0.5, (1.0, -2.0), (0.25,))
        x = np.random.default_rng(2).random((3, 5))
        exact = (0.5 + np.sin(2 * np.pi * x) - 2.0 * np.sin(4 * np.pi * x)
                 + 0.25 * np.cos(2 * np.pi * x))
        assert np.max(np.abs(f(x) - exact)) < 1e-14
        assert f(0.25) == pytest.approx(1.5, abs=1e-15)
        assert np.array_equal(TrigSeries(0.7)(x), np.full(x.shape, 0.7))

    def test_derivative_matches_the_exact_derivative(self):
        # a mixed-length series, its closed form differentiated by hand
        f = TrigSeries(0.3, (1.0, 0.0, -0.5), (0.2,))
        x = np.random.default_rng(3).random(50)
        exact = (2 * np.pi * np.cos(2 * np.pi * x) - 0.5 * 6 * np.pi * np.cos(6 * np.pi * x)
                 - 0.2 * 2 * np.pi * np.sin(2 * np.pi * x))
        assert np.max(np.abs(f.derivative()(x) - exact)) < 1e-12
        second = -(2 * np.pi) ** 2 * (np.sin(2 * np.pi * x) + 0.2 * np.cos(2 * np.pi * x)) \
            + 0.5 * (6 * np.pi) ** 2 * np.sin(6 * np.pi * x)
        assert np.max(np.abs(f.derivative().derivative()(x) - second)) < 1e-10
        assert f.derivative().const == 0.0


def trig_poly_with_nyquist(rng, n):
    """Closed-form p(x) = a0 + sum_{0<k<n/2} (a_k cos + b_k sin)(2 pi k x) + c cos(n pi x).

    Returns p and the coefficient mass |a0| + sum |a_k| + sum |b_k| + |c|.
    """
    ks = np.arange(1, n // 2)
    a0, c = rng.standard_normal(2)
    a = rng.standard_normal(ks.size)
    b = rng.standard_normal(ks.size)

    def p(x):
        angles = 2 * np.pi * np.outer(x, ks)
        return a0 + np.cos(angles) @ a + np.sin(angles) @ b + c * np.cos(n * np.pi * x)

    return p, abs(a0) + np.sum(np.abs(a)) + np.sum(np.abs(b)) + abs(c)


class TestInterpolantValues:
    @pytest.mark.parametrize("n", [8, 64, 250, 1024])
    def test_matches_closed_form_trig_polynomial(self, n):
        rng = np.random.default_rng(n)
        p, mass = trig_poly_with_nyquist(rng, n)
        nodes = circle_nodes(n)
        samples = p(nodes)
        assert np.array_equal(interpolant(nodes, samples), samples)
        for points in (rng.random(400), nodes + 1e-13, nodes + 1e-11, nodes - 3e-9):
            err = np.max(np.abs(interpolant(points, samples) - p(points)))
            assert err <= 1e-10 * mass


class TestDifferentiate:
    def test_constant(self):
        assert np.max(np.abs(spaces._spectral_derivative(np.ones(16)))) < 1e-14

    def test_sine_exact(self):
        n = 32
        nodes = circle_nodes(n)
        expected = 2 * np.pi * np.cos(2 * np.pi * nodes)
        slope = spaces._spectral_derivative(np.sin(2 * np.pi * nodes))
        assert np.max(np.abs(slope - expected)) < 1e-10

    def test_resolution_doubling_oracle(self):
        # doubling the resolution must not move the derivative of smooth data
        def fn(x):
            return np.exp(np.sin(2 * np.pi * x))

        d64 = spaces._spectral_derivative(fn(circle_nodes(64)))
        d128 = spaces._spectral_derivative(fn(circle_nodes(128)))
        assert np.max(np.abs(d64 - d128[::2])) < 1e-8


LONG_PI = 4 * np.arctan(np.longdouble(1))


def cardinal_point_sets(n):
    """Random points, points outside [0, 1), nodes and points 1e-17 to 1e-11 off them.

    The nodes are every (n // 128 | 1)-th one: at most about 128, of both parities.
    """
    rng = np.random.default_rng(n)
    nodes = circle_nodes(n)[:: n // 128 | 1]
    return (rng.random(300), 3.0 * rng.random(50) - 1.0, nodes, nodes + 1e-13, nodes - 1e-13,
            nodes + 1e-11, np.nextafter(nodes, -np.inf), nodes + 1e-17, nodes - 1e-17)


def long_double_points(points, n):
    """The points in long double, moved onto their nearest node where |sin(pi t0)| < 1e-12.

    Returns them with the on-node flag and the nearest node's column.
    """
    y = np.asarray(points, dtype=np.longdouble)
    nearest = np.rint(y * n)
    on_node = np.abs(np.sin(LONG_PI * (y - nearest / n))) < 1e-12
    return np.where(on_node, nearest / n, y), on_node, nearest.astype(int) % n


def long_double_cardinal(points, n):
    """Reference: sin(n pi t) cos(pi t) / (n sin(pi t)) at t = y - x_j, in long double.

    The points are not reduced mod 1 (the function has period 1), and a
    point on a node gets the one-hot row.
    """
    y, on_node, cols = long_double_points(points, n)
    t = y[:, None] - np.arange(n, dtype=np.longdouble) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin(LONG_PI * n * t) * np.cos(LONG_PI * t) / (n * np.sin(LONG_PI * t))
    vals[on_node] = 0.0
    vals[on_node, cols[on_node]] = 1.0
    return vals


class TestInterpolationMatrix:
    EPS = np.finfo(float).eps

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_entries_match_the_long_double_cardinal_function(self, n):
        for points in cardinal_point_sets(n):
            err = np.abs(interpolation_matrix(points, n) - long_double_cardinal(points, n))
            assert np.max(err) <= n * self.EPS

    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_rows_sum_to_one(self, n):
        for points in cardinal_point_sets(n):
            assert np.max(np.abs(interpolation_matrix(points, n).sum(axis=1) - 1.0)) <= n * self.EPS

    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_reproduces_trigonometric_polynomials(self, n):
        rng = np.random.default_rng(n + 1)
        modes = np.arange(1, n // 2)
        a0 = rng.standard_normal()
        a, b = rng.standard_normal((2, modes.size))
        mass = abs(a0) + np.sum(np.abs(a)) + np.sum(np.abs(b))

        def p(x):
            angles = 2 * LONG_PI * np.multiply.outer(x, modes)
            return a0 + np.cos(angles) @ a + np.sin(angles) @ b

        samples = p(circle_nodes(n).astype(np.longdouble)).astype(float)
        for points in cardinal_point_sets(n):
            exact = p(long_double_points(points, n)[0])
            err = np.abs(interpolation_matrix(points, n) @ samples - exact)
            assert np.max(err) <= n * self.EPS * mass

    def test_holds_no_second_matrix(self):
        n = 256
        points = np.random.default_rng(5).random(8 * spaces._EVAL_BLOCK_ENTRIES // n)
        interpolation_matrix(points, n)  # fills the node cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            interpolation_matrix(points, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix, and a block of _EVAL_BLOCK_ENTRIES entries at a time beside it
        assert peak - before <= 1.3 * points.size * n * 8

    def test_on_node_rows_are_one_hot(self):
        n = 16
        assert np.array_equal(interpolation_matrix(circle_nodes(n) + 1e-13, n), np.eye(n))

    def test_a_subnormal_offset_from_node_0_is_on_the_node_without_a_warning(self):
        # 1 / tan(pi t0) overflows to inf there, like the 1 / 0 of a point on the node
        n = 16
        points = [5e-324, 1e-310]
        assert np.array_equal(interpolation_matrix(points, n), np.eye(n)[[0, 0]])
        assert np.max(np.abs(slopes_at(points, n) - differentiation_matrix(n)[[0, 0]])) < 1e-12


def long_double_trig_poly_and_slope(rng, n):
    """Long-double p(x) = a0 + sum_{0<k<n/2} (a_k cos + b_k sin)(2 pi k x) + c cos(n pi x) and p'.

    Returns p, p' and the coefficient mass |a0| + sum |a_k| + sum |b_k| + |c|.
    """
    ks = np.arange(1, n // 2)
    a0, c = rng.standard_normal(2)
    a, b = rng.standard_normal((2, ks.size))

    def p(x):
        angles = 2 * LONG_PI * np.multiply.outer(x, ks)
        return a0 + np.cos(angles) @ a + np.sin(angles) @ b + c * np.cos(n * LONG_PI * x)

    def slope(x):
        angles = 2 * LONG_PI * np.multiply.outer(x, ks)
        return (np.cos(angles) @ (2 * LONG_PI * ks * b) - np.sin(angles) @ (2 * LONG_PI * ks * a)
                - n * LONG_PI * c * np.sin(n * LONG_PI * x))

    return p, slope, abs(a0) + np.sum(np.abs(a)) + np.sum(np.abs(b)) + abs(c)


def slope_error(point_sets, n, seed):
    """Max slope-row error on a random trig polynomial over the point sets, in n^2 eps mass.

    The exact slope is taken in long double at each point, or at its node
    where the point is on one.
    """
    p, slope, mass = long_double_trig_poly_and_slope(np.random.default_rng(seed), n)
    samples = p(circle_nodes(n).astype(np.longdouble)).astype(float)
    err = 0.0
    for points in point_sets:
        points = np.asarray(points, dtype=float)
        slopes, _ = slope_products(points, n)
        exact = slope(long_double_points(points, n)[0])
        err = max(err, float(np.max(np.abs(slopes(samples) - exact))))
    return err / (n * n * np.finfo(float).eps * mass)


class TestInterpolationDerivative:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_rows_sum_to_zero(self, n):
        for points in cardinal_point_sets(n):
            slopes, _ = slope_products(points, n)
            assert np.max(np.abs(slopes(np.ones(n)))) <= n * n * self.EPS  # S 1: the row sums

    @pytest.mark.parametrize("n, rows", [(64, 16), (250, 7)])
    def test_one_pass_over_row_blocks_gives_all_four_products(self, n, rows):
        # blocks of V, a partial last one included, against the dense V and
        # S: within n eps of each product's absolute sum
        rng = np.random.default_rng(n)
        points = rng.random(3 * n // 2)
        v, a, s = rng.standard_normal(n), *rng.standard_normal((2, points.size))
        values = interpolation_matrix(points, n)
        blocks = ((slice(i, i + rows), values[i : i + rows]) for i in range(0, points.size, rows))
        images = interpolation_products(blocks, points, v, a, s)
        slopes = slope_matrix(points, n)
        for image, exact, mass in [
            (images[0], values @ v, np.abs(values) @ np.abs(v)),
            (images[1], slopes @ v, np.abs(slopes) @ np.abs(v)),
            (images[2], values.T @ a + slopes.T @ s,
             np.abs(values).T @ np.abs(a) + np.abs(slopes).T @ np.abs(s)),
        ]:
            assert np.max(np.abs(image - exact)) <= n * self.EPS * np.max(mass)

    @pytest.mark.parametrize("n", [8, 64, 250, 256])
    def test_products_match_the_dense_slope_matrix(self, n):
        # S = V D - nu sigma^T and its transpose, built in the test: measured
        # at most 0.074 n eps ||S||_inf over these point sets (at n = 8), and
        # 0.015 at n = 64 and above
        for points in cardinal_point_sets(n):
            points = np.asarray(points, dtype=float)
            slopes, adjoint = slope_products(points, n)
            oracle = slope_matrix(points, n)
            bound = n * self.EPS * np.max(np.abs(oracle).sum(axis=1))
            assert np.max(np.abs(dense_of(slopes, n) - oracle)) <= bound
            assert np.max(np.abs(dense_of(adjoint, points.size) - oracle.T)) <= bound

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_reproduces_slopes_of_trigonometric_polynomials(self, n):
        assert slope_error(cardinal_point_sets(n), n, n + 2) <= 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="long double is no wider than double here")
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(half=st.integers(4, 64), seed=st.integers(0, 2**32 - 1),
           points=st.lists(st.floats(-1.0, 2.0, exclude_max=True), min_size=1, max_size=40))
    def test_reproduces_slopes_at_random_points(self, half, seed, points):
        assert slope_error([points], 2 * half, seed) <= 1.0

    def test_matches_central_difference_off_grid(self):
        rng = np.random.default_rng(13)
        n = 16
        nyquist = np.cos(np.pi * n * circle_nodes(n))
        samples = random_trig_poly(rng, 5)(circle_nodes(n)) + 0.7 * nyquist
        nodes = circle_nodes(n)
        points = np.concatenate([rng.random(40), nodes[[1, 6]] + 1e-9, nodes[[3, 15]] - 3e-8])
        h = 1e-6
        fd = (interpolation_matrix(points + h, n) - interpolation_matrix(points - h, n)) @ samples
        fd /= 2 * h
        exact = slope_products(points, n)[0](samples)
        assert np.max(np.abs(exact - fd)) < 1e-6
        # the on-grid derivative drops the Nyquist cosine, whose slope is non-zero here
        on_grid = interpolation_matrix(points, n) @ (differentiation_matrix(n) @ samples)
        assert np.max(np.abs(on_grid - fd)) > 1.0

    def test_equals_differentiation_matrix_at_nodes(self):
        # points 1e-13 off a node are on it, like their one-hot value rows
        for n in (8, 64, 256):
            for points in (circle_nodes(n), circle_nodes(n) + 1e-13, circle_nodes(n) - 1e-13):
                assert np.max(np.abs(slopes_at(points, n) - differentiation_matrix(n))) < 1e-12


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        # up to eval rounding noise over the shortest admitted pair distance
        assert holder_seminorm(np.full(16, 5.0), 0.5) < 1e-10

    def test_identity_on_the_interval(self):
        f = interval_nodes(129)
        assert abs(spaces._interval_seminorm(f, 1.0, 4096, DEFAULT_SEED) - 1.0) < 1e-12

    def test_sqrt_on_the_interval(self):
        # true seminorm of sqrt(t + 1) is 1, attained against the left endpoint
        f = np.sqrt(interval_nodes(257) + 1.0)
        est = spaces._interval_seminorm(f, 0.5, 4096, DEFAULT_SEED)
        assert 0.95 <= est <= 1.0 + 1e-12

    def test_monotone_under_refinement(self):
        def fn(x):
            return np.exp(np.sin(2 * np.pi * x))

        coarse = holder_seminorm(fn(circle_nodes(64)), 0.5)
        fine = holder_seminorm(fn(circle_nodes(128)), 0.5)
        assert coarse <= fine + 1e-12

    def test_exponent_outside_the_unit_interval_is_refused(self):
        f = np.zeros(64)
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError):
                holder_seminorm(f, alpha)


def dense_pair_differences(samples, budget, seed):
    """|f(x) - f(y)| and d(x, y) over the circle surrogate's pairs, for each column of samples.

    The pairs are (x_j, x_j + 2^-m) for every node and m = 1..16, plus `budget`
    pairs of seeded uniform points, dropping pairs closer than 1e-9.  Every
    value goes through the dense cardinal matrix of interpolation_matrix.
    """
    n = samples.shape[0]
    nodes = circle_nodes(n)
    h = np.repeat(2.0 ** -np.arange(1, 17), n)
    rng = np.random.default_rng(seed)
    rx = rng.random(budget)
    ry = rng.random(budget)
    d = np.concatenate([h, circle_distance(rx, ry)])
    keep = d > 1e-9

    def values(points):
        return np.concatenate([interpolation_matrix(points[i : i + 2048], n) @ samples
                               for i in range(0, points.size, 2048)])

    at_x = np.concatenate([np.tile(values(nodes), (16, 1)), values(rx)])
    at_y = values(np.concatenate([(np.tile(nodes, 16) + h) % 1.0, ry]))
    return np.abs(at_x - at_y)[keep], d[keep]


class TestHolderSeminormDenseOracle:
    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1000])
    @pytest.mark.parametrize("budget, seed", [(4096, DEFAULT_SEED), (2048, 12345)])
    def test_matches_dense_pair_surrogate(self, n, budget, seed):
        rng = np.random.default_rng(n + seed)
        nodes = circle_nodes(n)
        ks = np.arange(1, n // 2 + 1)
        phases = 2 * np.pi * rng.random(ks.size)
        amplitudes = ks**-1.2 * rng.standard_normal(ks.size)
        rough = np.cos(2 * np.pi * np.outer(nodes, ks) + phases) @ amplitudes
        smooth = np.exp(np.sin(2 * np.pi * nodes))
        samples = np.stack([smooth, rough, rng.standard_normal(n)], axis=1)
        diff, d = dense_pair_differences(samples, budget, seed)
        for column in range(samples.shape[1]):
            f = samples[:, column]
            for alpha in (0.1, 0.5, 1.0):
                oracle = np.max(diff[:, column] / d**alpha)
                fast = holder_seminorm(f, alpha, pair_budget=budget, seed=seed)
                assert abs(fast - oracle) <= 1e-8 * oracle

    def test_matches_dense_pair_surrogate_with_fewer_random_pairs_than_nodes(self):
        # a sup over fewer random pairs is still a lower bound
        self.test_matches_dense_pair_surrogate(64, 32, 7)


def fourier_upper_bounds(rows, alpha, order):
    """Upper bounds of max_j<=order sup |f^(j)| and of [f^(order)]_alpha, for each row of samples.

    Mode k of the interpolant is r_k cos(2 pi k x + phase_k), the Nyquist
    cosine included, so |f^(j)| <= sum_k r_k (2 pi k)^j.  Since
    |e^(i theta) - 1| <= min(2, theta) <= 2^(1-alpha) theta^alpha,
    [f^(order)]_alpha <= 2^(1-alpha) (2 pi)^alpha sum_k r_k (2 pi k)^order k^alpha.
    One rfft per row; the bounds do not depend on any pair set.
    """
    n = rows.shape[-1]
    amplitudes = 2.0 * np.abs(np.fft.rfft(rows)) / n
    amplitudes[..., [0, -1]] /= 2.0
    modes = np.arange(n // 2 + 1)
    sups = np.max([amplitudes @ (2 * np.pi * modes) ** j for j in range(order + 1)], axis=0)
    semi = 2.0 ** (1 - alpha) * (2 * np.pi) ** alpha * (
        amplitudes @ ((2 * np.pi * modes) ** order * modes**alpha))
    return sups, semi


class TestCircleHolderFourierUpperBound:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_sampled_norms_stay_below_the_bound(self, n, alpha):
        # the sampled seminorm is a sup over finitely many pairs, so it is a
        # lower bound; the Fourier bound brackets it from above
        rng = np.random.default_rng(n)
        nodes = circle_nodes(n)
        ks = np.arange(1, n // 2 + 1)
        rough = np.cos(2 * np.pi * np.outer(nodes, ks) + 2 * np.pi * rng.random(ks.size)) @ (
            ks**-1.2 * rng.standard_normal(ks.size))
        rows = np.stack([np.exp(np.sin(2 * np.pi * nodes)), rough, rng.standard_normal(n)])
        # one mode whose steepest point is node 0, alone and in a stack
        mode = np.sin(6 * np.pi * nodes)
        for f in (rows, mode, np.stack([mode, rows[2]])):
            _, semi = fourier_upper_bounds(f, alpha, 0)
            stacked = holder_seminorm(f, alpha)
            assert np.all(stacked <= semi)
            for order in (0, 1, 2):
                sups, semi = fourier_upper_bounds(f, alpha, order)
                assert np.all(cr_norm(f, order + alpha) <= np.maximum(sups, semi))
        for order in (0, 1, 2):
            stacked = cr_norm(rows, order + alpha)
            assert [cr_norm(row, order + alpha) for row in rows] == list(stacked)
        assert [holder_seminorm(row, alpha) for row in rows] == list(holder_seminorm(rows, alpha))
        if alpha == 1.0:
            # the bound is sharp for one mode: its pair (0, 2^-16) reads
            # 6 pi sin(theta) / theta, 1.4e-8 below it
            assert holder_seminorm(mode, alpha) >= 6 * np.pi * (1 - 1e-7)


def interval_pair_ratios(samples, alpha, budget, seed):
    """|f(x) - f(y)| / |x - y|^alpha over the interval surrogate's pairs, from a fresh CubicSpline.

    The pairs are (x_j, min(x_j + 2^(1-m), 1)) for every node x_j with
    x_j + 2^(1-m) <= 1 and m = 1..16, plus `budget` pairs of seeded uniform
    points on [-1, 1], dropping pairs closer than 2e-9.
    """
    nodes = interval_nodes(samples.size)
    xs, ys, ds = [], [], []
    for m in range(1, 17):
        step = 2.0 ** (1 - m)
        x = nodes[nodes + step <= 1.0 + 1e-15]
        xs.append(x)
        ys.append(np.minimum(x + step, 1.0))
        ds.append(np.full(x.size, step))
    rng = np.random.default_rng(seed)
    rx = -1.0 + 2.0 * rng.random(budget)
    ry = -1.0 + 2.0 * rng.random(budget)
    x, y = np.concatenate(xs + [rx]), np.concatenate(ys + [ry])
    d = np.concatenate(ds + [np.abs(rx - ry)])
    keep = d > 2e-9
    spline = CubicSpline(nodes, samples, bc_type="not-a-knot")
    return np.abs(spline(x[keep]) - spline(y[keep])) / d[keep] ** alpha


class TestIntervalSeminormOracle:
    @pytest.mark.parametrize("m", [8, 65, 257])
    @pytest.mark.parametrize("budget, seed", [(4096, DEFAULT_SEED), (32, 7)])
    def test_matches_fresh_cubic_spline_over_its_pairs(self, m, budget, seed):
        rng = np.random.default_rng(m + seed)
        nodes = interval_nodes(m)
        for samples in (np.sin(3.0 * nodes) + nodes**2, np.sqrt(nodes + 1.0),
                        rng.standard_normal(m)):
            for alpha in (0.1, 0.5, 1.0):
                oracle = np.max(interval_pair_ratios(samples, alpha, budget, seed))
                fast = spaces._interval_seminorm(samples, alpha, budget, seed)
                assert abs(fast - oracle) <= 1e-8 * oracle


class TestCrNorm:
    def test_constant(self):
        assert cr_norm(np.ones(16), 1.5) == pytest.approx(1.0, abs=1e-12)

    CIRCLE = np.sin(2 * np.pi * circle_nodes(64)) + 0.3 * np.cos(6 * np.pi * circle_nodes(64))
    INTERVAL = np.sin(3.0 * interval_nodes(65)) + interval_nodes(65) ** 2

    @pytest.mark.parametrize("norm, seminorm, values, slope", [
        (cr_norm, holder_seminorm, CIRCLE, spaces._spectral_derivative(CIRCLE)),
        (interval_cr_norm,
         lambda f, alpha: spaces._interval_seminorm(f, alpha, 4096, DEFAULT_SEED),
         INTERVAL, interval_slopes(INTERVAL)),
    ], ids=["circle", "interval"])
    def test_order_1_5_is_max_of_sups_and_half_seminorm_of_slope(self, norm, seminorm, values,
                                                                 slope):
        expected = max(np.max(np.abs(values)), np.max(np.abs(slope)), seminorm(slope, 0.5))
        assert norm(values, 1.5) == expected

    def test_sine_c1(self):
        f = np.sin(2 * np.pi * circle_nodes(64))
        assert cr_norm(f, 1.0) == pytest.approx(2 * np.pi, abs=1e-6)

    def test_sine_half_exponent_vs_dense_grid_oracle(self):
        n = 64
        f = np.sin(2 * np.pi * circle_nodes(n))
        norm = cr_norm(f, 0.5)
        # independent oracle: exhaustive maximization over ~1e6 exact pairs
        grid = np.linspace(0.0, 1.0, 1000, endpoint=False)
        vals = np.sin(2 * np.pi * grid)
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = circle_distance(grid[:, None], grid[None, :])
        mask = dist > 0
        oracle = float(np.max(diff[mask] / np.sqrt(dist[mask])))
        assert abs(norm - oracle) <= 0.02 * oracle

    def test_interval_half_exponent_vs_dense_grid_oracle(self):
        def fn(t):
            return np.sin(3.0 * t) + t**2

        norm = interval_cr_norm(fn(interval_nodes(257)), 0.5)
        # independent oracle: exhaustive maximization over ~1e6 exact pairs
        grid = np.linspace(-1.0, 1.0, 1001)
        vals = fn(grid)
        dist = np.abs(grid[:, None] - grid[None, :])
        mask = dist > 0
        diff = np.abs(vals[:, None] - vals[None, :])
        oracle = max(float(np.max(np.abs(vals))), float(np.max(diff[mask] / np.sqrt(dist[mask]))))
        assert abs(norm - oracle) <= 0.02 * oracle

    @pytest.mark.parametrize("norm", [cr_norm, interval_cr_norm], ids=["circle", "interval"])
    def test_order_the_resolution_does_not_carry_raises(self, norm):
        # k = 2 derivatives on 8 samples: k >= 8 / 4, so the surrogate is unreliable
        with pytest.raises(ValueError, match="order 2 derivatives on 8 samples"):
            norm(np.ones(8), 2.5)
        assert norm(np.ones(8), 2.0) == pytest.approx(1.0)  # k = 1 is carried

    def test_embedding_monotonicity_in_exponent(self):
        # smaller exponent norm is controlled by the larger-exponent norm
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_trig_poly(rng, 5)(circle_nodes(64))
            for k in (0, 1):
                alpha, beta = 0.8, 0.3
                big = cr_norm(f, k + alpha)
                small = cr_norm(f, k + beta)
                assert small <= max(1.0, big) * 2.0


class TestCrNormOfAStack:
    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("r", [0.3, 1.1])
    def test_each_row_matches_its_norm_alone(self, n, r):
        rng = np.random.default_rng(n)
        stack = np.vstack([rng.standard_normal((4, n)), random_trig_poly(rng, 3)(circle_nodes(n)),
                           np.full(n, -0.5)])
        norms = cr_norm(stack, r)
        assert norms.shape == (stack.shape[0],)
        for row, norm in zip(stack, norms):
            alone = cr_norm(row, r)
            assert abs(norm - alone) <= n * np.finfo(float).eps * alone

    @pytest.mark.parametrize("r", [0.3, 1.1, 2.5])
    def test_a_one_row_stack_gives_the_bits_of_the_function(self, r):
        f = np.random.default_rng(3).standard_normal(64)
        [norm] = cr_norm(f[None], r)
        assert norm == cr_norm(f, r)
        [semi] = holder_seminorm(f[None], r % 1.0)
        assert semi == holder_seminorm(f, r % 1.0)

    def test_eval_keeps_the_bits_of_one_two_column_weight_matrix(self):
        # one function's reference: the cot table times the n x 2 matrix of
        # its signed samples and the signs, as one block of points
        n = 64
        rng = np.random.default_rng(8)
        f = rng.standard_normal(n)
        points = rng.random(spaces._EVAL_BLOCK_ENTRIES // n)
        angles = np.pi * circle_nodes(n)
        table = np.stack([np.cos(angles), np.sin(angles)])
        sign = 1.0 - 2.0 * (np.arange(n) % 2)
        cos_x, sin_x = np.cos(np.pi * points), np.sin(np.pi * points)
        cot = np.stack([cos_x, sin_x], axis=1) @ table
        cot /= np.stack([sin_x, -cos_x], axis=1) @ table
        sums = cot @ np.stack([sign * f, sign], axis=1)
        assert np.array_equal(interpolant(points, f), sums[:, 0] / sums[:, 1])

    def test_random_points_on_a_node_take_its_samples(self, monkeypatch):
        n = 32
        seeded = np.random.default_rng

        class SnappedDraws:
            """The seeded draws with every third point moved onto its nearest node."""

            def __init__(self, seed):
                self.rng = seeded(seed)

            def random(self, size):
                points = self.rng.random(size)
                points[::3] = np.rint(points[::3] * n) % n / n
                return points

        monkeypatch.setattr(np.random, "default_rng", SnappedDraws)
        rng = seeded(21)
        stack = np.vstack([rng.standard_normal((3, n)), random_trig_poly(rng, 4)(circle_nodes(n))])
        diff, d = dense_pair_differences(stack.T, 512, 5)
        for alpha in (0.3, 1.0):
            semis = holder_seminorm(stack, alpha, pair_budget=512, seed=5)
            oracle = np.max(diff / d[:, None] ** alpha, axis=0)
            assert np.all(np.abs(semis - oracle) <= 1e-8 * oracle)

    def test_a_16_by_256_stack_holds_no_budget_sized_table(self):
        stack = np.random.default_rng(16).standard_normal((16, 256))
        cr_norm(stack, 0.3, 4096)  # fills the node-angle cache
        tracemalloc.start()
        try:
            cr_norm(stack, 0.3, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 16 x 4096 array of pair values alone is 0.5 MB
        assert peak < 1.5e6

    @pytest.mark.parametrize("stack, error", [
        (np.zeros((2, 9)), ValueError),
        (np.zeros((2, 6)), ValueError),
        (np.zeros(9), ValueError),
        (np.zeros(7), ValueError),
        (np.zeros((1, 2, 16)), TypeError),
        ([[0.0] * 16], TypeError),
        ([0.0] * 16, TypeError),
    ], ids=["odd", "short", "odd-vector", "short-vector", "3-d", "list", "list-vector"])
    def test_a_stack_that_is_not_circle_rows_is_refused(self, stack, error):
        with pytest.raises(error):
            cr_norm(stack, 0.5)


class TestIntervalValues:
    def test_out_of_domain(self):
        with pytest.raises(ValueError, match="outside"):
            interval_values(np.zeros(16), 1.5)

    def test_nan_point_gives_nan_as_in_scipy(self):
        samples = np.cos(interval_nodes(16))
        spline = CubicSpline(interval_nodes(16), samples, bc_type="not-a-knot")
        for order in (0, 1, 2):
            vals = interval_values(samples, np.array([np.nan, 0.5]), order)
            assert np.isnan(vals[0])
            assert vals[1] == pytest.approx(spline(0.5, nu=order), rel=1e-13)

    def test_derivative_of_cubic_is_near_exact(self):
        mid = np.linspace(-0.9, 0.9, 33)
        slopes = interval_values(interval_nodes(65) ** 3, mid, 1)
        assert np.max(np.abs(slopes - 3 * mid**2)) < 1e-10


def cardinal_matrix(points, m, grid=None):
    """The m cardinal splines of the grid at the points: row r holds their values at points[r].

    Row j of the identity stack, cardinal spline j, is read at all the
    points, which are clipped and located by the memo's grid, or by ``grid``.
    """
    grid = spaces._spline_grid(m) if grid is None else grid
    return interval_values(np.eye(m), grid.locate(np.tile(np.asarray(points, float), (m, 1)))).T


@pytest.fixture
def cold_spline_grid():
    spaces._SPLINE_GRID_MEMO.clear()
    yield spaces._SPLINE_GRID_MEMO
    spaces._SPLINE_GRID_MEMO.clear()


class TestCardinalSplines:
    @pytest.mark.parametrize("m", [33, 65, 129])
    def test_cold_warm_and_fresh_agree_bitwise(self, cold_spline_grid, m):
        rng = np.random.default_rng(m)
        # nodes, both ends, points outside [-1, 1] (clipped) and random points
        pts = np.concatenate([interval_nodes(m), [-1.1, 1.1], rng.uniform(-1.0, 1.0, 2000)])
        cold = cardinal_matrix(pts, m)
        warm = cardinal_matrix(pts, m)
        fresh = cardinal_matrix(pts, m, spaces._SplineGrid(m))
        assert cold.shape == (pts.size, m)
        assert np.array_equal(cold, fresh)
        assert np.array_equal(warm, fresh)
        assert np.array_equal(cold[:m], np.eye(m))

    def test_memo_holds_one_read_only_grid(self, cold_spline_grid):
        interval_values(np.zeros(33), [0.1])
        interval_values(np.zeros(65), [0.1, 0.2])
        assert list(cold_spline_grid) == [65]
        grid = cold_spline_grid[65]
        assert len(grid.factors) == 5  # dl, d, du, du2, ipiv of dgttrf
        for arr in (grid.nodes, grid.dx, grid.starts, *grid.factors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_factors_are_built_once_per_grid(self, cold_spline_grid, monkeypatch):
        # each build finds the memo empty: the previous grid is dropped first
        memo_sizes = []

        def watching(*args, **kwargs):
            memo_sizes.append(len(cold_spline_grid))
            return dgttrf(*args, **kwargs)

        monkeypatch.setattr(spaces, "dgttrf", watching)
        pts = np.linspace(-1.0, 1.0, 7)
        for m in (33, 33, 65, 65, 65, 33):
            samples = np.cos(interval_nodes(m))
            interval_values(samples, pts)
            interval_values(interval_slopes(samples), pts, 2)
        assert memo_sizes == [0, 0, 0]

    @pytest.mark.parametrize("m", [1, 3])
    def test_rejects_a_grid_without_a_not_a_knot_system(self, cold_spline_grid, m):
        with pytest.raises(ValueError):
            interval_values(np.zeros(m), [0.0])


# The slack interval_values allows beyond [-1, 1], relative to the domain's length 2.
DOMAIN_SLACK = 1e-12


def direct_interval_values(samples, t, order):
    """Reference: the spline of the samples at t, clipped, located and evaluated in one pass.

    The arithmetic of the located path written out on the points, with the
    slope system built outside the memo: the cubic Hermite form
    y0 + (h01 (y1 - y0) + h10 s0 + h11 s1) at u = (t - x_i) / dx_i, with y0
    added last, and its derivatives without the y0 term.
    """
    grid = spaces._SplineGrid(samples.size)
    s = grid.slopes(samples)
    t = np.clip(np.asarray(t, dtype=float).ravel(), -1.0, 1.0)
    i = np.fmin((t + 1.0) / grid.h, grid.m - 2).astype(np.intp)
    i += t >= grid.starts[i]
    w, dx = t - grid.nodes[i], grid.dx[i]
    u = w / dx
    rest = 1.0 - u
    h01, h10, h11 = (
        (u * u * (3.0 - 2.0 * u), w * rest * rest, w * u * -rest),
        (6.0 * u * rest / dx, rest * (1.0 - 3.0 * u), u * (3.0 * u - 2.0)),
        ((6.0 - 12.0 * u) / (dx * dx), (6.0 * u - 4.0) / dx, (6.0 * u - 2.0) / dx),
    )[order]
    y0 = samples[i]
    small = h01 * (samples[i + 1] - y0) + h10 * s[i] + h11 * s[i + 1]
    return small + y0 if order == 0 else small


def locating_points(m):
    """Every node, both ends, points just outside them (clipped), NaN and random points."""
    rng = np.random.default_rng(m)
    edge = 0.5 * DOMAIN_SLACK * 2.0
    return np.concatenate([interval_nodes(m), [-1.0 - edge, 1.0 + edge, np.nan],
                           rng.uniform(-1.0, 1.0, 200), [np.nan]])


class TestIntervalLocate:
    @pytest.mark.parametrize("m", [8, 65, 1025])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_located_path_equals_the_direct_path(self, cold_spline_grid, m, order):
        samples = np.random.default_rng(order).standard_normal(m)
        pts = locating_points(m)
        direct = direct_interval_values(samples, pts, order)
        located = spaces.interval_locate(pts, m)
        assert np.array_equal(interval_values(samples, located, order), direct, equal_nan=True)
        assert np.array_equal(interval_values(samples, pts, order), direct, equal_nan=True)
        assert np.isnan(direct[m + 2]) and np.isnan(direct[-1])
        # one located set serves every spline on the grid
        other = np.cos(3.0 * interval_nodes(m))
        assert np.array_equal(interval_values(other, located, order),
                              direct_interval_values(other, pts, order), equal_nan=True)

    def test_keeps_the_shape_of_the_points(self):
        samples = np.sin(interval_nodes(33))
        grid_pts = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        located = spaces.interval_locate(grid_pts, 33)
        assert located.shape == (3, 4)
        assert np.array_equal(interval_values(samples, located), interval_values(samples, grid_pts))
        scalar = interval_values(samples, spaces.interval_locate(0.3, 33), 1)
        assert isinstance(scalar, float) and scalar == interval_values(samples, 0.3, 1)

    def test_domain_rules_are_checked_when_located(self):
        with pytest.raises(ValueError, match="outside"):
            spaces.interval_locate(np.array([0.0, 1.0 + 2.0 * DOMAIN_SLACK * 2.0]), 16)
        with pytest.raises(ValueError, match="outside"):
            spaces.interval_locate(-1.5, 16)
        located = spaces.interval_locate(np.array([np.nan, 1.0 + 0.5 * DOMAIN_SLACK * 2.0]), 16)
        # clipped to the right end, which closes the last interval
        assert located.index[1] == 14 and located.offset[1] == located.width[1]
        assert np.isnan(interval_values(np.ones(16), located)[0])

    def test_located_arrays_are_read_only(self):
        located = spaces.interval_locate(np.linspace(-1.0, 1.0, 5), 16)
        for arr in (located.index, located.offset, located.width):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_points_located_on_another_grid_are_refused(self):
        located = spaces.interval_locate(np.linspace(-1.0, 1.0, 5), 16)
        with pytest.raises(ValueError, match="located on 16 nodes, samples on 17"):
            interval_values(np.ones(17), located)


class TestHermiteForm:
    @pytest.mark.parametrize("m", [8, 65, 1025])
    def test_a_constant_reads_back_exactly(self, cold_spline_grid, m):
        pts = locating_points(m)
        pts = pts[~np.isnan(pts)]
        located = spaces.interval_locate(pts, m)
        for c in (0.37, -2.5, 1e-3, 7.0 / 3.0):
            samples = np.full(m, c)
            assert np.all(interval_values(samples, located) == c)
            for order in (1, 2):
                assert np.all(interval_values(samples, located, order) == 0.0)
            rows = np.full((3, m), c)
            stacked = spaces.interval_locate(np.stack([pts, pts[::-1], -pts]), m)
            assert np.all(interval_values(rows, stacked) == c)

    def test_weights_are_kept_read_only_per_order(self):
        located = spaces.interval_locate(np.linspace(-1.0, 1.0, 7), 16)
        for order in (0, 1, 2):
            weights = located.weights(order)
            assert weights.shape == (3, 7) and located.weights(order) is weights
            assert not weights.flags.writeable
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            located.weights(3)


class TestIntervalValuesOfAStack:
    @pytest.mark.parametrize("m", [8, 65, 1025])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_each_row_is_its_spline_alone_bitwise(self, cold_spline_grid, m, order):
        rng = np.random.default_rng(m + order)
        rows = rng.standard_normal((5, m))
        pts = np.stack([locating_points(m) for _ in range(5)])
        pts[1:] = rng.uniform(-1.0, 1.0, pts[1:].shape)
        located = spaces.interval_locate(pts, m)
        values = interval_values(rows, located, order)
        assert values.shape == pts.shape
        assert np.array_equal(interval_values(rows, pts, order), values, equal_nan=True)
        for row, t, got in zip(rows, pts, values):
            assert np.array_equal(got, interval_values(row, t, order), equal_nan=True)
            assert np.array_equal(got, direct_interval_values(row, t, order), equal_nan=True)

    def test_points_located_on_another_grid_are_refused(self):
        located = spaces.interval_locate(np.zeros((2, 3)), 16)
        with pytest.raises(ValueError, match="located on 16 nodes, samples on 17"):
            interval_values(np.ones((2, 17)), located)

    def test_points_without_a_row_per_spline_are_refused(self):
        with pytest.raises(ValueError, match=r"points of shape \(3, 2\) for a stack of 2"):
            interval_values(np.ones((2, 16)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"points of shape \(\) for a stack of 2"):
            interval_values(np.ones((2, 16)), 0.5)


def relocating_seminorm(samples, alpha, budget, seed):
    """Reference: the interval seminorm with its pairs drawn and located on every call."""
    x, y, d = spaces._interval_pairs(samples.size, budget, seed)
    ratios = np.abs(direct_interval_values(samples, x, 0) - direct_interval_values(samples, y, 0))
    return float(np.max(ratios / d**alpha, initial=0.0))


class TestIntervalPairSet:
    @pytest.mark.parametrize("m", [8, 65, 1025])
    def test_warm_pair_set_equals_a_cold_one(self, cold_spline_grid, m):
        nodes = interval_nodes(m)
        cases = [(np.sin(3.0 * nodes) + nodes**2, 0.5), (np.sqrt(nodes + 1.0), 0.1),
                 (np.random.default_rng(m).standard_normal(m), 1.0)]
        for samples, alpha in cases:
            cold_spline_grid.clear()
            cold = spaces._interval_seminorm(samples, alpha, 4096, DEFAULT_SEED)
            warm = spaces._interval_seminorm(samples, alpha, 4096, DEFAULT_SEED)
            assert cold == warm == relocating_seminorm(samples, alpha, 4096, DEFAULT_SEED)

    def test_a_new_budget_seed_or_grid_rebuilds_it(self, cold_spline_grid, monkeypatch):
        builds = []
        drawing = spaces._interval_pairs

        def counting(m, budget, seed):
            builds.append((m, budget, seed))
            return drawing(m, budget, seed)

        samples = {m: np.cos(2.0 * interval_nodes(m)) for m in (33, 65)}
        calls = [(33, 4096, 1), (33, 4096, 1), (33, 4096, 2), (33, 32, 2), (33, 32, 2),
                 (65, 32, 2), (33, 32, 2), (33, 32, 1)]
        expected = [relocating_seminorm(samples[m], 0.5, budget, seed)
                    for m, budget, seed in calls]
        monkeypatch.setattr(spaces, "_interval_pairs", counting)
        for (m, budget, seed), reference in zip(calls, expected):
            assert spaces._interval_seminorm(samples[m], 0.5, budget, seed) == reference
        assert builds == [(33, 4096, 1), (33, 4096, 2), (33, 32, 2), (65, 32, 2), (33, 32, 2),
                          (33, 32, 1)]

    def test_a_new_alpha_rebuilds_it_with_its_powers(self, cold_spline_grid, monkeypatch):
        builds = []
        drawing = spaces._interval_pairs

        def counting(m, budget, seed):
            builds.append((m, budget, seed))
            return drawing(m, budget, seed)

        samples = np.sin(3.0 * interval_nodes(65))
        alphas = (0.5, 0.5, 0.3, 0.3, 0.5)
        expected = [relocating_seminorm(samples, alpha, 4096, 1) for alpha in alphas]
        monkeypatch.setattr(spaces, "_interval_pairs", counting)
        for alpha, reference in zip(alphas, expected):
            assert spaces._interval_seminorm(samples, alpha, 4096, 1) == reference
        assert builds == [(65, 4096, 1)] * 3
        key, _, powered = cold_spline_grid[65].pairs
        assert key == (4096, 1, 0.5)
        assert np.array_equal(powered, drawing(65, 4096, 1)[2] ** 0.5)

    def test_holds_one_read_only_set_per_grid(self, cold_spline_grid):
        f = np.cos(interval_nodes(65))
        interval_cr_norm(f, 0.5, seed=3)
        interval_cr_norm(f, 0.5, seed=4)
        grid = cold_spline_grid[65]
        key, ends, powered = grid.pairs
        assert key == (4096, 4, 0.5)
        assert ends.shape == (2, powered.size) and ends.m == 65
        x, y, d = spaces._interval_pairs(65, 4096, 4)
        assert np.array_equal(ends.offset, spaces.interval_locate(np.stack([x, y]), 65).offset)
        for arr in (ends.index, ends.offset, ends.width, powered):
            assert not arr.flags.writeable
        interval_slopes(np.ones(33))  # a new grid drops the old one with its pair set
        assert list(cold_spline_grid) == [33] and cold_spline_grid[33].pairs is None


class TestCotTables:
    def test_one_pair_of_tables_per_norm_call(self, monkeypatch):
        made = []
        making = spaces._cot_tables
        monkeypatch.setattr(spaces, "_cot_tables", lambda n, points: made.append(n) or making(
            n, points))
        stack = np.random.default_rng(5).standard_normal((3, 256))
        cr_norm(stack, 0.5, 4096)  # 4096 random pairs: 32 blocks of 128 pairs at n = 256
        assert made == [256]

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_shared_tables_equal_fresh_ones_bitwise(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((2, n))
        points = rng.random(3 * max(1, spaces._EVAL_BLOCK_ENTRIES // n) + 5)
        fresh = spaces._interpolant_values(points, rows)
        tables = spaces._cot_tables(n, points.size)
        tables[:] = np.nan  # what an earlier block left behind is overwritten
        assert np.array_equal(spaces._interpolant_values(points, rows, tables), fresh)
        assert np.array_equal(spaces._interpolant_values(points, rows, tables), fresh)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(m=st.integers(8, 300), seed=st.integers(0, 2**32 - 1))
def test_interval_spline_matches_a_fresh_cubic_spline(m, seed):
    nodes = interval_nodes(m)
    rng = np.random.default_rng(seed)
    inside = 0.5 * DOMAIN_SLACK * 2.0
    pts = np.concatenate([nodes, [-1.0, 1.0, -1.0 - inside, 1.0 + inside],
                          rng.uniform(-1.0, 1.0, 64)])
    clipped = np.clip(pts, -1.0, 1.0)
    samples = rng.standard_normal(m)
    spline = CubicSpline(nodes, samples, bc_type="not-a-knot")
    for order in (0, 1, 2):
        ref = spline(clipped, nu=order)
        assert np.max(np.abs(interval_values(samples, pts, order) - ref)) <= 1e-13 * np.max(
            np.abs(ref))
    mat = cardinal_matrix(pts, m)
    basis = CubicSpline(nodes, np.eye(m), axis=0, bc_type="not-a-knot")(clipped)
    assert np.max(np.abs(mat - basis)) <= 1e-13 * np.max(np.abs(basis))
    # the spline reproduces constants
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-14
    # every node but the last starts its own interval, where it returns its sample exactly
    assert np.array_equal(interval_values(samples, nodes[:-1]), samples[:-1])
    assert np.array_equal(mat[: m - 1], np.eye(m)[: m - 1])
