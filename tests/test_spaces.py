import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgttrf

from circleresp import spaces

from circleresp import (
    DualFunctional,
    GridFunction,
    IntervalFunction,
    OutOfDomainError,
    circle_distance,
    circle_nodes,
    compose,
    cr_norm,
    empirical_interpolation_constant,
    holder_seminorm,
    interpolation_derivative_matrix,
    interpolation_matrix,
)
from circleresp.spaces import (
    DEFAULT_SEED,
    differentiation_matrix,
    interval_interpolation_matrix,
)


def random_trig_poly(rng, n, degree):
    xs = circle_nodes(n)
    vals = np.full(n, rng.standard_normal())
    for m in range(1, degree + 1):
        vals += rng.standard_normal() * np.sin(2 * np.pi * m * xs)
        vals += rng.standard_normal() * np.cos(2 * np.pi * m * xs)
    return GridFunction(vals)


class TestGridFunctionBasics:
    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(7))
        with pytest.raises(ValueError):
            GridFunction(np.zeros(9))  # odd
        GridFunction(np.zeros(8))

    def test_interpolation_reproduces_nodes(self):
        rng = np.random.default_rng(1)
        f = random_trig_poly(rng, 32, 5)
        assert np.max(np.abs(f.eval(f.nodes) - f.samples)) < 1e-12

    def test_periodicity(self):
        f = GridFunction.from_callable(lambda x: np.exp(np.sin(2 * np.pi * x)), 64)
        pts = np.linspace(0.0, 1.0, 37, endpoint=False) + 0.0123
        assert np.max(np.abs(f.eval(pts) - f.eval(pts + 1.0))) < 1e-12

    def test_immutable_samples(self):
        f = GridFunction(np.zeros(8))
        with pytest.raises(ValueError):
            f.samples[0] = 1.0


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


class TestGridFunctionEval:
    @pytest.mark.parametrize("n", [8, 64, 250, 1024])
    def test_matches_closed_form_trig_polynomial(self, n):
        rng = np.random.default_rng(n)
        p, mass = trig_poly_with_nyquist(rng, n)
        nodes = circle_nodes(n)
        f = GridFunction(p(nodes))
        assert np.array_equal(f.eval(nodes), f.samples)
        for points in (rng.random(400), nodes + 1e-13, nodes + 1e-11, nodes - 3e-9):
            err = np.max(np.abs(f.eval(points) - p(points)))
            assert err <= 1e-10 * mass


class TestDifferentiate:
    def test_constant(self):
        f = GridFunction.constant(1.0, 16)
        assert np.max(np.abs(f.derivative().samples)) < 1e-14

    def test_sine_exact(self):
        n = 32
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        expected = 2 * np.pi * np.cos(2 * np.pi * circle_nodes(n))
        assert np.max(np.abs(f.derivative().samples - expected)) < 1e-10

    def test_resolution_doubling_oracle(self):
        # doubling the resolution must not move the derivative of smooth data
        def fn(x):
            return np.exp(np.sin(2 * np.pi * x))

        d64 = GridFunction.from_callable(fn, 64).derivative().samples
        d128 = GridFunction.from_callable(fn, 128).derivative().samples
        assert np.max(np.abs(d64 - d128[::2])) < 1e-8

    def test_antiderivative_roundtrip_mean_zero(self):
        rng = np.random.default_rng(3)
        n = 64
        f = random_trig_poly(rng, n, 6)
        f = f - f.mean()
        back = f.antiderivative().derivative()
        assert np.max(np.abs(back.samples - f.samples)) < 1e-10


def one_line_interpolation_matrix(points, n):
    """Reference: the cardinal table written as one expression."""
    pts = np.asarray(points, dtype=float).ravel() % 1.0
    t = (pts[:, None] - circle_nodes(n)[None, :]) % 1.0
    s = np.sin(np.pi * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin(np.pi * n * t) * np.cos(np.pi * t) / (n * s)
    hit_row, hit_col = np.nonzero(np.abs(s) < 1e-12)
    if hit_row.size:
        vals[hit_row] = 0.0
        vals[hit_row, hit_col] = 1.0
    return vals


class TestInterpolationMatrix:
    @pytest.mark.parametrize("n", [8, 64, 250, 256, 1024])
    def test_bitwise_equal_to_one_line_form(self, n):
        rng = np.random.default_rng(n)
        nodes = circle_nodes(n)
        ulp_below = np.nextafter(nodes, -np.inf)
        for points in (rng.random(300), 3.0 * rng.random(50) - 1.0, nodes,
                       nodes + 1e-13, nodes - 1e-13, nodes + 1e-11, ulp_below,
                       nodes + 1e-17, nodes - 1e-17):
            assert np.array_equal(interpolation_matrix(points, n),
                                  one_line_interpolation_matrix(points, n))

    def test_on_node_rows_are_one_hot(self):
        n = 16
        assert np.array_equal(interpolation_matrix(circle_nodes(n) + 1e-13, n), np.eye(n))


class TestInterpolationDerivative:
    def test_matches_central_difference_off_grid(self):
        rng = np.random.default_rng(13)
        n = 16
        nyquist = np.cos(np.pi * n * circle_nodes(n))
        samples = random_trig_poly(rng, n, 5).samples + 0.7 * nyquist
        nodes = circle_nodes(n)
        points = np.concatenate([rng.random(40), nodes[[1, 6]] + 1e-9, nodes[[3, 15]] - 3e-8])
        h = 1e-6
        fd = (interpolation_matrix(points + h, n) - interpolation_matrix(points - h, n)) @ samples
        fd /= 2 * h
        exact = interpolation_derivative_matrix(points, n) @ samples
        assert np.max(np.abs(exact - fd)) < 1e-6
        # the on-grid derivative drops the Nyquist cosine, whose slope is non-zero here
        on_grid = interpolation_matrix(points, n) @ (differentiation_matrix(n) @ samples)
        assert np.max(np.abs(on_grid - fd)) > 1.0

    def test_equals_differentiation_matrix_at_nodes(self):
        for n in (8, 64, 256):
            exact = interpolation_derivative_matrix(circle_nodes(n), n)
            assert np.max(np.abs(exact - differentiation_matrix(n))) < 1e-12


class TestCompose:
    def test_constant_outer(self):
        g = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 32)
        f = GridFunction.constant(2.5, 32)
        assert np.max(np.abs(compose(f, g).samples - 2.5)) < 1e-12

    def test_quarter_shift(self):
        n = 64
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        g = GridFunction((circle_nodes(n) + 0.25) % 1.0)
        expected = np.cos(2 * np.pi * circle_nodes(n))
        assert np.max(np.abs(compose(f, g).samples - expected)) < 1e-10

    def test_random_trig_composition_oracle(self):
        # closed-form oracle: evaluate the outer trig polynomial directly
        rng = np.random.default_rng(7)
        n = 64
        coeffs = rng.standard_normal((2, 4))

        def outer(x):
            out = np.zeros_like(x)
            for m in range(1, 5):
                out += coeffs[0, m - 1] * np.sin(2 * np.pi * m * x)
                out += coeffs[1, m - 1] * np.cos(2 * np.pi * m * x)
            return out

        f = GridFunction.from_callable(outer, n)
        g = random_trig_poly(rng, n, 4)
        expected = outer(g.samples % 1.0)
        assert np.max(np.abs(compose(f, g).samples - expected)) < 1e-9

    def test_compose_with_identity_is_exact(self):
        rng = np.random.default_rng(11)
        f = random_trig_poly(rng, 32, 5)
        identity = GridFunction(circle_nodes(32))
        assert np.array_equal(compose(f, identity).samples, f.samples)


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        # up to eval rounding noise over the shortest admitted pair distance
        f = GridFunction.constant(5.0, 16)
        assert holder_seminorm(f, 0.5) < 1e-10

    def test_identity_on_unit_interval(self):
        f = IntervalFunction(np.linspace(0.0, 1.0, 129), 0.0, 1.0)
        assert abs(holder_seminorm(f, 1.0) - 1.0) < 1e-12

    def test_sqrt_on_unit_interval(self):
        # true seminorm is 1, attained against the left endpoint
        f = IntervalFunction(np.sqrt(np.linspace(0.0, 1.0, 257)), 0.0, 1.0)
        est = holder_seminorm(f, 0.5)
        assert 0.95 <= est <= 1.0 + 1e-12

    def test_monotone_under_refinement(self):
        def fn(x):
            return np.exp(np.sin(2 * np.pi * x))

        coarse = holder_seminorm(GridFunction.from_callable(fn, 64), 0.5)
        fine = holder_seminorm(GridFunction.from_callable(fn, 128), 0.5)
        assert coarse <= fine + 1e-12

    def test_budget_validation(self):
        f = GridFunction.constant(0.0, 64)
        with pytest.raises(ValueError):
            holder_seminorm(f, 0.5, pair_budget=32)
        with pytest.raises(ValueError):
            holder_seminorm(f, 1.5)


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
            f = GridFunction(samples[:, column])
            for alpha in (0.1, 0.5, 1.0):
                oracle = np.max(diff[:, column] / d**alpha)
                fast = holder_seminorm(f, alpha, pair_budget=budget, seed=seed)
                assert abs(fast - oracle) <= 1e-8 * oracle


class TestCrNorm:
    def test_constant(self):
        report = cr_norm(GridFunction.constant(1.0, 16), 1.5)
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.order == 1 and report.exponent == 0.5

    def test_sine_c1(self):
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 64)
        report = cr_norm(f, 1.0)
        assert report.value == pytest.approx(2 * np.pi, abs=1e-6)

    def test_sine_half_exponent_vs_dense_grid_oracle(self):
        n = 64
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        report = cr_norm(f, 0.5)
        # independent oracle: exhaustive maximization over ~1e6 exact pairs
        grid = np.linspace(0.0, 1.0, 1000, endpoint=False)
        vals = np.sin(2 * np.pi * grid)
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = circle_distance(grid[:, None], grid[None, :])
        mask = dist > 0
        oracle = float(np.max(diff[mask] / np.sqrt(dist[mask])))
        assert abs(report.value - oracle) <= 0.02 * oracle

    def test_ck_dominates_sup(self):
        rng = np.random.default_rng(5)
        f = random_trig_poly(rng, 64, 4)
        report = cr_norm(f, 2.5)
        assert report.ck_norm >= report.sup_norm

    def test_resolution_warning(self):
        f = GridFunction.constant(1.0, 8)
        with pytest.warns(RuntimeWarning):
            cr_norm(f, 2.5)

    def test_embedding_monotonicity_in_exponent(self):
        # smaller exponent norm is controlled by the larger-exponent norm
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_trig_poly(rng, 64, 5)
            for k in (0, 1):
                alpha, beta = 0.8, 0.3
                big = cr_norm(f, k + alpha).value
                small = cr_norm(f, k + beta).value
                assert small <= max(1.0, big) * 2.0


class TestInterpolationInequality:
    def test_constant_function(self):
        f = GridFunction.constant(1.0, 16)
        assert empirical_interpolation_constant(f, 0, 0.2, 0.5, 0.8) <= 1.0

    def test_sine(self):
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 64)
        assert empirical_interpolation_constant(f, 0, 0.2, 0.5, 0.8) <= 2.0

    def test_random_sweep_order_one(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = random_trig_poly(rng, 64, 3)
            assert empirical_interpolation_constant(f, 1, 0.1, 0.5, 0.9) <= 4.0

    def test_empirical_constant_consistency(self):
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 64)
        c = empirical_interpolation_constant(f, 0, 0.2, 0.5, 0.8)
        # c is where ||f||_beta <= M ||f||_alpha^mu ||f||_gamma^(1-mu) starts to hold
        na, nb, ng = (cr_norm(f, r).value for r in (0.2, 0.5, 0.8))
        mu = (0.8 - 0.5) / (0.8 - 0.2)
        assert nb <= (c + 1e-12) * na**mu * ng ** (1.0 - mu)
        assert not nb <= c * 0.99 * na**mu * ng ** (1.0 - mu)

    def test_parameter_validation(self):
        f = GridFunction.constant(1.0, 16)
        with pytest.raises(ValueError):
            empirical_interpolation_constant(f, 0, 0.5, 0.2, 0.8)
        with pytest.raises(ValueError):
            empirical_interpolation_constant(f, 0, 0.0, 0.2, 0.8)


class TestDualFunctional:
    def test_lebesgue_normalization(self):
        ell = DualFunctional.lebesgue(32)
        one = GridFunction.constant(1.0, 32)
        assert ell.pair(one) == pytest.approx(1.0, abs=1e-15)

    def test_linearity_exact(self):
        rng = np.random.default_rng(19)
        ell = DualFunctional(rng.standard_normal(16))
        f = rng.standard_normal(16)
        g = rng.standard_normal(16)
        assert ell.pair(2.0 * f + g) == pytest.approx(2.0 * ell.pair(f) + ell.pair(g), rel=1e-12)


class TestIntervalFunction:
    def test_out_of_domain(self):
        f = IntervalFunction(np.zeros(16), -1.0, 1.0)
        with pytest.raises(OutOfDomainError):
            f.eval(1.5)

    def test_nan_point_gives_nan_as_in_scipy(self):
        f = IntervalFunction(np.cos(np.linspace(-1.0, 1.0, 16)), -1.0, 1.0)
        for order in (0, 1, 2):
            vals = f.eval_derivative(np.array([np.nan, 0.5]), order)
            assert np.isnan(vals[0])
            assert vals[1] == pytest.approx(f.spline()(0.5, nu=order), rel=1e-13)

    def test_derivative_of_cubic_is_near_exact(self):
        ts = np.linspace(-1.0, 1.0, 65)
        f = IntervalFunction(ts**3, -1.0, 1.0)
        mid = np.linspace(-0.9, 0.9, 33)
        assert np.max(np.abs(f.eval_derivative(mid, 1) - 3 * mid**2)) < 1e-10


def fresh_interval_interpolation_matrix(points, m, a=-1.0, b=1.0):
    """The interval interpolation matrix in one gather, from a slope system built outside the memo."""
    grid = spaces._SplineGrid(m, float(a), float(b))
    values = np.eye(m)
    return grid.evaluate(values, grid.slopes(values), np.asarray(points, dtype=float).ravel())


@pytest.fixture
def cold_spline_grid():
    spaces._SPLINE_GRID_MEMO.clear()
    yield spaces._SPLINE_GRID_MEMO
    spaces._SPLINE_GRID_MEMO.clear()


class TestIntervalInterpolationMatrix:
    @pytest.mark.parametrize("m, a, b", [(65, -1.0, 1.0), (33, 0.0, 2.0), (129, -1.0, 1.0)])
    def test_cold_warm_and_fresh_agree_bitwise(self, cold_spline_grid, m, a, b):
        rng = np.random.default_rng(m)
        nodes = np.linspace(a, b, m)
        # nodes, both ends, points outside [a, b] (clipped) and enough random
        # points for several blocks of rows
        pts = np.concatenate([nodes, [a - 0.1, b + 0.1], rng.uniform(a, b, 2000)])
        cold = interval_interpolation_matrix(pts, m, a, b)
        warm = interval_interpolation_matrix(pts, m, a, b)
        fresh = fresh_interval_interpolation_matrix(pts, m, a, b)
        assert cold.shape == (pts.size, m)
        assert np.array_equal(cold, fresh)
        assert np.array_equal(warm, fresh)
        assert np.array_equal(cold[:m], np.eye(m))

    def test_memo_holds_one_read_only_grid(self, cold_spline_grid):
        interval_interpolation_matrix([0.1], 33)
        interval_interpolation_matrix([0.1, 0.2], 65)
        assert list(cold_spline_grid) == [(65, -1.0, 1.0)]
        grid = cold_spline_grid[(65, -1.0, 1.0)]
        assert len(grid.factors) == 5  # dl, d, du, du2, ipiv of dgttrf
        for arr in (grid.nodes, grid.dx, grid.starts, *grid.factors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # a returned matrix is the caller's own array
        mat = interval_interpolation_matrix([0.1], 65)
        mat[0, 0] = 7.0
        assert np.array_equal(interval_interpolation_matrix([0.1], 65),
                              fresh_interval_interpolation_matrix([0.1], 65))

    def test_factors_are_built_once_per_grid(self, cold_spline_grid, monkeypatch):
        # each build finds the memo empty: the previous grid is dropped first
        memo_sizes = []

        def watching(*args, **kwargs):
            memo_sizes.append(len(cold_spline_grid))
            return dgttrf(*args, **kwargs)

        monkeypatch.setattr(spaces, "dgttrf", watching)
        pts = np.linspace(-1.0, 1.0, 7)
        for m in (33, 33, 65, 65, 65, 33):
            interval_interpolation_matrix(pts, m)
            f = IntervalFunction(np.cos(np.linspace(-1.0, 1.0, m)))
            f.eval(pts)
            f.derivative().eval_derivative(pts, 2)
        assert memo_sizes == [0, 0, 0]

    @pytest.mark.parametrize("m, a, b", [(3, -1.0, 1.0), (8, 1.0, 1.0)])
    def test_rejects_a_grid_without_a_not_a_knot_system(self, cold_spline_grid, m, a, b):
        with pytest.raises(ValueError):
            interval_interpolation_matrix([0.0], m, a, b)


# The slack IntervalFunction._check_domain allows beyond [a, b], relative to b - a.
DOMAIN_SLACK = 1e-12


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(m=st.integers(8, 300), a=st.floats(-10.0, 10.0), width=st.floats(0.01, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_interval_spline_matches_a_fresh_cubic_spline(m, a, width, seed):
    b = a + width
    nodes = np.linspace(a, b, m)
    rng = np.random.default_rng(seed)
    inside = 0.5 * DOMAIN_SLACK * (b - a)
    pts = np.concatenate([nodes, [a, b, a - inside, b + inside], rng.uniform(a, b, 64)])
    clipped = np.clip(pts, a, b)
    samples = rng.standard_normal(m)
    f = IntervalFunction(samples, a, b)
    spline = CubicSpline(nodes, samples, bc_type="not-a-knot")
    for order in (0, 1, 2):
        ref = spline(clipped, nu=order)
        assert np.max(np.abs(f.eval_derivative(pts, order) - ref)) <= 1e-13 * np.max(np.abs(ref))
    mat = interval_interpolation_matrix(pts, m, a, b)
    basis = CubicSpline(nodes, np.eye(m), axis=0, bc_type="not-a-knot")(clipped)
    assert np.max(np.abs(mat - basis)) <= 1e-13 * np.max(np.abs(basis))
    # the spline reproduces constants
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-14
    # every node but the last starts its own interval, where it returns its sample exactly
    assert np.array_equal(f.eval(nodes[:-1]), samples[:-1])
    assert np.array_equal(mat[: m - 1], np.eye(m)[: m - 1])
