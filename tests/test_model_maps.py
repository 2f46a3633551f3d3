"""The interval model maps: the composition map's order-2 check and the affine oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from dense_oracle import no_dense_solve

from circleresp import (
    AffineMapConfig,
    CompositionMapConfig,
    DegenerateFitError,
    affine_holder_experiment,
    affine_map,
    composition_map,
    composition_second_derivative_check,
    fixed_point_derivative,
    solve_fixed_point,
    sup_norm,
    theil_sen_loglog,
)
from circleresp import cli, config, fixed_point, model_maps, spaces
from circleresp.fixed_point import ParametrizedMap, _checked_solve, fixed_point_second_derivatives
from circleresp.model_maps import SecondDerivativeRow, interval_nodes
from circleresp.spaces import interval_values


def affine_series_solution(cfg, u, terms=60):
    """Closed-form fixed point phi_u(t) = sum_k 2^-k g(t_k, u), t_{k+1} = (t_k + u)/2.

    The series is the Neumann sum of the affine contraction and converges
    geometrically; 60 terms reach the rounding floor.  It is an oracle that
    is independent of the Picard solver.
    """
    t = interval_nodes(cfg.resolution).copy()
    acc = np.zeros(cfg.resolution)
    for k in range(terms):
        acc += 2.0**-k * cfg.g(t, u)
        t = (t + u) / 2.0
    return acc


def per_direction_check(cfg, directions, fd_delta=1e-2, tol=1e-13):
    """The composition check with a full engine and a full oracle per direction.

    Each direction solves its own base fixed point, builds its own P0 and
    Q0 products, and solves the oracle's value at 0 again.
    """
    fmap = composition_map(cfg)
    m = cfg.resolution
    u0 = np.zeros(m)
    rows = []
    for label, h in directions:
        phi = solve_fixed_point(fmap, u0, np.zeros(m), tol=tol).phi_star
        p0 = fmap.p_product(u0, phi)
        q0 = fmap.q_product(u0, phi)
        z = fixed_point_derivative(p0, q0, h)
        engine = _checked_solve(q0, 2.0 * fmap.q2_product(u0, phi)(h, z, h, z))

        def solve_at(c):
            return solve_fixed_point(fmap, u0 + c * h, np.zeros(m), tol=tol).phi_star

        f0 = solve_at(0.0)
        d2 = solve_at(fd_delta) - 2.0 * f0 + solve_at(-fd_delta)
        d2_wide = solve_at(2.0 * fd_delta) - 2.0 * f0 + solve_at(-2.0 * fd_delta)
        fd = (16.0 * d2 - d2_wide) / (12.0 * fd_delta**2)
        abs_err = sup_norm(engine - fd)
        fd_scale = sup_norm(fd)
        rel_err = abs_err / fd_scale if fd_scale > 1e-9 else abs_err
        rows.append(SecondDerivativeRow(label, sup_norm(engine), fd_scale, abs_err, rel_err))
    return rows


def dense_composition_q(phi):
    """Q0 = [diag(phi' o phi) + S] / 2 as a matrix, S the spline reading at phi.

    Row i of S holds the cardinal splines of the grid at phi_i: the identity
    stack read at the points, each row of the stack at all of them.
    """
    m = phi.size
    inner = np.clip(phi, -1.0, 1.0)
    spline = interval_values(np.eye(m), np.tile(inner, (m, 1))).T
    return 0.5 * (np.diag(interval_values(phi, inner, 1)) + spline)


class TestCompositionQ:
    def test_the_q_product_equals_the_dense_q(self):
        cfg = CompositionMapConfig(radius=0.5, param_radius=0.2, resolution=129)
        fmap = composition_map(cfg)
        rng = np.random.default_rng(23)
        m = cfg.resolution
        for _ in range(5):
            phi = model_maps.random_ball_function(rng, m, 0.95 * cfg.radius * rng.uniform(0.2, 1.0))
            u = model_maps.random_ball_function(rng, m, 0.95 * cfg.param_radius)
            z = model_maps.random_ball_function(rng, m, rng.uniform(0.2, 1.0))
            dense = dense_composition_q(phi) @ z
            assert sup_norm(fmap.q_product(u, phi)(z) - dense) <= 1e-14 * sup_norm(dense)


class TestCompositionSecondDerivativeCheck:
    CFG = CompositionMapConfig(resolution=65)

    def test_oracle_step_outside_the_parameter_ball_raises(self):
        # the oracle solves at u = +-2 fd_delta h; along constants ||h|| = 1,
        # so fd_delta = param_radius / 2 is the largest step the ball admits
        with pytest.raises(ValueError, match="along constant reaches 0.2002 > param_radius"):
            composition_second_derivative_check(self.CFG, fd_delta=0.1001)
        rows = composition_second_derivative_check(self.CFG, fd_delta=0.1)
        assert [row.label for row in rows] == ["constant", "linear"]

    def test_meets_the_benchmark_gates(self):
        rows = composition_second_derivative_check(self.CFG)
        by_label = {row.label: row for row in rows}
        assert [row.label for row in rows] == ["constant", "linear"]
        assert by_label["constant"].abs_error <= 1e-6
        assert by_label["linear"].rel_error <= 1e-4
        # D^2 phi along t -> t is 1 (phi = u + u^2 + ... on linear u)
        assert by_label["linear"].engine_sup == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("radius, param_radius, fd_delta", [
        (0.5, 0.2, 1e-2), (0.35, 0.1, 8e-3),
    ])
    def test_rows_equal_the_per_direction_form(self, radius, param_radius, fd_delta):
        cfg = CompositionMapConfig(radius=radius, param_radius=param_radius, resolution=65)
        ts = interval_nodes(65)
        for directions in ([("constant", np.ones(65)), ("linear", ts.copy())],
                           [("sine", 0.3 * np.sin(ts)), ("quadratic", ts**2 - 0.5)]):
            assert composition_second_derivative_check(
                cfg, directions, fd_delta=fd_delta
            ) == per_direction_check(cfg, directions, fd_delta=fd_delta)

    def test_no_inversion_and_one_stacked_solve_of_the_shifted_points(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", no_dense_solve)
        monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
        stacks = []
        solving = fixed_point.solve_fixed_points

        def counting(fmap, us, *args, **kwargs):
            stacks.append(len(us))
            return solving(fmap, us, *args, **kwargs)

        # the one-row solve_fixed_point of both modules goes through fixed_point's
        monkeypatch.setattr(fixed_point, "solve_fixed_points", counting)
        monkeypatch.setattr(model_maps, "solve_fixed_points", counting)
        composition_second_derivative_check(self.CFG)
        # the check's base point, the engine's base solve, which starts at it
        # and returns it, and the four shifted points of both directions
        assert stacks == [1, 1, 8]

    def test_stacked_rows_are_the_one_row_applies(self):
        cfg = CompositionMapConfig(resolution=129)
        fmap = composition_map(cfg)
        rng = np.random.default_rng(7)
        phis = np.array([model_maps.random_ball_function(rng, 129, 0.4) for _ in range(5)])
        us = np.array([model_maps.random_ball_function(rng, 129, 0.15) for _ in range(5)])
        stacked = fmap.apply(us, phis)
        for row in range(5):
            assert np.array_equal(stacked[row], fmap.apply(us[row], phis[row]))


class TestAffineSeriesSolution:
    @pytest.mark.parametrize("g", [
        lambda t, u: 0.3 * np.cos(t + u),
        lambda t, u: 0.2 * np.sin(3.0 * t) * (1.0 + u),
    ])
    def test_picard_fixed_point_matches_the_series(self, g):
        # the spline map converges to the series at fourth order in the grid step
        errors = []
        for m in (65, 257):
            cfg = AffineMapConfig(g=g, epsilon=0.3, resolution=m)
            fmap = affine_map(cfg)
            worst = 0.0
            for u in (0.0, 0.2, -0.25):
                picard = solve_fixed_point(fmap, np.array([u]), np.zeros(m), tol=1e-14).phi_star
                worst = max(worst, sup_norm(picard - affine_series_solution(cfg, u)))
            errors.append(worst)
        assert errors[1] <= 1e-9
        assert errors[0] / errors[1] >= 100.0  # 4^4 = 256 for a fourth-order scheme

    def test_constant_forcing_is_twice_the_constant(self):
        cfg = AffineMapConfig(g=lambda t, u: np.full_like(t, 0.3), epsilon=0.5, resolution=33)
        assert sup_norm(affine_series_solution(cfg, 0.1) - 0.6) < 1e-15


class TestAffineHolderExperiment:
    LIPSCHITZ = AffineMapConfig(g=lambda t, u: 0.35 * u * np.cos(t), epsilon=0.15,
                                holder_exponent=1.0, resolution=33)

    def test_distances_within_the_solvers_error_are_not_fitted(self):
        # each shifted solve stops after one Picard step, at 0.35 delta from
        # phi_0 = 0: below twice the largest residual of these solves
        with pytest.raises(DegenerateFitError):
            affine_holder_experiment(self.LIPSCHITZ, [3e-13, 4e-13, 5e-13])
        report = affine_holder_experiment(self.LIPSCHITZ, [3e-13, 4e-13, 1e-3, 2e-3, 4e-3])
        assert report.n_points == 3
        assert report.slope == pytest.approx(1.0, abs=1e-5)

    def test_a_delta_outside_the_epsilon_interval_is_refused_before_any_solve(self,
                                                                               monkeypatch):
        # the forcing is checked on [-epsilon, epsilon] only
        solves = []
        for name in ("solve_fixed_point", "solve_fixed_points"):
            monkeypatch.setattr(model_maps, name, lambda *args, **kw: solves.append(args))
        with pytest.raises(ValueError, match=r"delta -0\.2 lies outside \[-epsilon, epsilon\] "
                                             r"= \[-0\.15, 0\.15\]"):
            affine_holder_experiment(self.LIPSCHITZ, [0.1, 0.15, -0.2, 0.9])
        assert solves == []


class TestCompositionSecondDerivativeAtALinearBase:
    # At u0 = c t the fixed point is phi0 = a t, a = 1 - sqrt(1 - 2c), and the
    # cubic splines carry linear functions exactly: D^2 phi[t, t] is
    # (1 - 2c)^(-3/2) t and D^2 phi[1, 1] is 0, up to rounding.  Measured
    # worst cases: 4.6e-13 and 8.6e-13 at m = 257, 2.9e-12 and 1.4e-11 at
    # m = 1025 (c = 0.1 and 0.15).
    @pytest.mark.parametrize("m, linear_bound, constant_bound", [
        (257, 1e-12, 2e-12), (1025, 6e-12, 3e-11),
    ])
    @pytest.mark.parametrize("c", [0.1, 0.15])
    def test_matches_the_closed_form(self, m, linear_bound, constant_bound, c):
        fmap = composition_map(CompositionMapConfig(resolution=m))
        ts = interval_nodes(m)
        linear, constant = fixed_point_second_derivatives(
            fmap, c * ts, np.zeros(m), [(ts, ts), (np.ones(m), np.ones(m))], tol=1e-13)
        assert sup_norm(linear - (1.0 - 2.0 * c) ** -1.5 * ts) <= linear_bound
        assert sup_norm(constant) <= constant_bound

    def test_curvature_term_against_richardson_at_a_curved_base(self):
        # phi0'' vanishes at a linear base, so the order-2 curvature term is checked
        # here, where |phi0''| reaches 0.1; the engine matched the oracle to
        # 8.3e-7 of its size (m = 257, fd_delta = 1e-2)
        m, delta = 257, 1e-2
        fmap = composition_map(CompositionMapConfig(resolution=m))
        ts = interval_nodes(m)
        u0 = 0.1 * np.sin(2.0 * ts)
        [engine] = fixed_point_second_derivatives(fmap, u0, np.zeros(m), [(ts, ts)], tol=1e-14)

        def solve_at(c):
            return solve_fixed_point(fmap, u0 + c * ts, np.zeros(m), tol=1e-14).phi_star

        shifted = [solve_at(c) for c in (delta, -delta, 2.0 * delta, -2.0 * delta)]
        fd = model_maps._richardson_second_difference(shifted, solve_at(0.0), delta)
        assert sup_norm(engine - fd) <= 1e-5 * sup_norm(fd)


AFFINE = AffineMapConfig(
    g=lambda t, u: 0.3 * u * np.cos(t) + 0.1 * u**2,
    g_du=lambda t, u: 0.3 * np.cos(t) + 0.2 * u,
    g_duu=lambda t, u: np.full_like(t, 0.2),
    epsilon=0.3,
    resolution=65,
)


def development_order(fmap, u, phi, h, z, with_b=True):
    """The Theil–Sen order in t of the remainder of F(u+th, phi+tz) - F(u, phi), t = 2^-2..2^-8.

    The remainder takes off t (P h + Q z), and t^2 b(h, z, h, z) too
    ``with_b``, b the map's order-2 product at (u, phi): it falls at
    order 3 when b's diagonal is the order-2 term, at order 2 without it.
    """
    base = fmap.apply(u, phi)
    first = fmap.p_product(u, phi)(h) + fmap.q_product(u, phi)(z)
    second = fmap.q2_product(u, phi)(h, z, h, z) if with_b else 0.0
    steps = [2.0**-k for k in range(2, 9)]
    remainders = [sup_norm(fmap.apply(u + t * h, phi + t * z) - base - t * first - t * t * second)
                  for t in steps]
    return theil_sen_loglog(steps, remainders, 0.0)[0]


class TestOrderTwoCoefficient:
    # The order-2 product apart from the engine, whose tests build their
    # references from the same coefficients.  Measured orders 3.03
    # (composition) and 3.01 (affine), and 2.00 for both without the product
    # or without one of its cross terms.
    TS = interval_nodes(65)
    PHI = 0.2 * np.cos(TS) + 0.1 * TS
    Z = 0.3 * np.sin(TS) + 0.2

    def test_composition_development_falls_at_order_3(self):
        fmap = composition_map(CompositionMapConfig(resolution=65))
        u, h = 0.1 * np.sin(2.0 * self.TS), np.cos(3.0 * self.TS)
        assert development_order(fmap, u, self.PHI, h, self.Z) == pytest.approx(3.0, abs=0.1)
        assert development_order(fmap, u, self.PHI, h, self.Z, with_b=False) == pytest.approx(
            2.0, abs=0.1)

    def test_affine_development_falls_at_order_3(self):
        fmap = affine_map(AFFINE)
        u, h = np.array([0.1]), np.array([1.0])
        assert development_order(fmap, u, self.PHI, h, self.Z) == pytest.approx(3.0, abs=0.1)
        assert development_order(fmap, u, self.PHI, h, self.Z, with_b=False) == pytest.approx(
            2.0, abs=0.1)


class TestOrderTwoProductIsSymmetric:
    # b(h1, z1, h2, z2) and b(h2, z2, h1, z1) have the same bits, so the
    # engine's 2 b is its symmetrized form and needs one call per pair.  Two
    # of the z are constants, whose slopes read exactly 0, so the last bits
    # of composition's curvature term are not lost in a larger slope term.
    TS = interval_nodes(65)

    def increments(self, p):
        rng = np.random.default_rng(31)
        zs = [0.1 * rng.standard_normal(65), 0.1 * rng.standard_normal(65),
              np.full(65, rng.standard_normal()), np.full(65, rng.standard_normal())]
        return [(rng.standard_normal(p), z) for z in zs]

    def assert_symmetric(self, b, increments):
        for (h1, z1), (h2, z2) in zip(increments, increments[1:] + increments[:1]):
            assert np.array_equal(b(h1, z1, h2, z2), b(h2, z2, h1, z1))

    def test_composition_at_a_curved_base(self):
        fmap = composition_map(CompositionMapConfig(resolution=65))
        u0 = 0.1 * np.sin(2.0 * self.TS)
        phi = solve_fixed_point(fmap, u0, np.zeros(65), tol=1e-14).phi_star
        assert sup_norm(interval_values(phi, phi, 2)) > 0.01
        self.assert_symmetric(fmap.q2_product(u0, phi), self.increments(65))

    def test_affine_with_both_parameter_derivatives(self):
        fmap = affine_map(AFFINE)
        phi = solve_fixed_point(fmap, [0.1], np.zeros(65), tol=1e-14).phi_star
        self.assert_symmetric(fmap.q2_product([0.1], phi), self.increments(1))


def relocating_affine_map(cfg):
    """Reference: the affine map with (t+u)/2 located and g(., u) evaluated on every call."""
    ts = interval_nodes(cfg.resolution)

    def shift(u):
        return (ts + float(u[0])) / 2.0

    def apply_row(u, phi):
        return 0.5 * interval_values(phi, shift(u)) + cfg.g(ts, float(u[0]))

    def apply(u, phi):
        if np.ndim(phi) == 2:
            return np.stack([apply_row(row_u, row_phi) for row_u, row_phi in zip(u, phi)])
        return apply_row(u, phi)

    return ParametrizedMap(
        apply=apply,
        p_product=lambda u, phi: lambda h: (0.25 * interval_values(phi, shift(u), 1)
                                            + cfg.g_du(ts, float(u[0]))) * float(h[0]),
        q_product=lambda u, phi: lambda z: 0.5 * interval_values(z, shift(u)),
        q2_product=lambda u, phi: lambda h1, z1, h2, z2: (
            (interval_values(phi, shift(u), 2) / 16.0 + 0.5 * cfg.g_duu(ts, float(u[0])))
            * (float(h1[0]) * float(h2[0]))
            + (interval_values(z2, shift(u), 1) * float(h1[0])
               + interval_values(z1, shift(u), 1) * float(h2[0])) / 8.0),
    )


@pytest.fixture
def counted_locates(monkeypatch):
    """The point sets located through ``interval_locate`` while the test runs."""
    located = []
    locating = spaces.interval_locate

    def counting(t, m):
        located.append(m)
        return locating(t, m)

    monkeypatch.setattr(spaces, "interval_locate", counting)
    monkeypatch.setattr(model_maps, "interval_locate", counting)
    return located


class TestAffineMapLocatesOncePerParameter:
    @pytest.mark.parametrize("u", [0.0, 0.1, -0.13])
    def test_picard_solve_equals_the_relocating_map_bitwise(self, u):
        fmap, reference = affine_map(AFFINE), relocating_affine_map(AFFINE)
        start = 0.2 * np.sin(interval_nodes(65))
        fast = solve_fixed_point(fmap, [u], start, tol=1e-14)
        slow = solve_fixed_point(reference, [u], start, tol=1e-14)
        assert np.array_equal(fast.phi_star, slow.phi_star)
        assert (fast.iterations, fast.residual) == (slow.iterations, slow.residual)
        phi, h, z = fast.phi_star, np.array([0.7]), np.cos(interval_nodes(65))
        assert np.array_equal(fmap.p_product([u], phi)(h), reference.p_product([u], phi)(h))
        assert np.array_equal(fmap.q_product([u], phi)(z), reference.q_product([u], phi)(z))
        h2, z2 = np.array([-0.4]), np.sin(2.0 * interval_nodes(65))
        assert np.array_equal(fmap.q2_product([u], phi)(h, z, h2, z2),
                              reference.q2_product([u], phi)(h, z, h2, z2))

    def test_a_new_parameter_locates_again(self, counted_locates):
        fmap, reference = affine_map(AFFINE), relocating_affine_map(AFFINE)
        phi = 0.2 * np.sin(interval_nodes(65))
        params = (0.1, 0.1, -0.2, -0.2, 0.1)
        expected = [reference.apply([u], phi) for u in params]
        counted_locates.clear()
        for u, want in zip(params, expected):
            assert np.array_equal(fmap.apply([u], phi), want)
        assert counted_locates == [65] * 3

    def test_the_order_2_product_keeps_its_points_across_a_slot_change(self, counted_locates):
        phi = 0.2 * np.sin(interval_nodes(65))
        h1, z1 = np.array([0.7]), np.cos(interval_nodes(65))
        h2, z2 = np.array([-0.4]), np.sin(2.0 * interval_nodes(65))
        fmap = affine_map(AFFINE)
        b = fmap.q2_product([0.1], phi)
        fmap.apply([-0.2], phi)  # another parameter replaces the slot
        fresh = affine_map(AFFINE).q2_product([0.1], phi)
        counted_locates.clear()
        assert np.array_equal(b(h1, z1, h2, z2), fresh(h1, z1, h2, z2))
        assert counted_locates == []

    def test_one_solve_locates_once(self, counted_locates):
        result = solve_fixed_point(affine_map(AFFINE), [0.1], np.zeros(65), tol=1e-14)
        assert result.iterations > 10
        assert counted_locates == [65]


def run_kind(tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text, encoding="utf-8")
    report = cli.run_experiment(config.load_config(path), tmp_path / "out")
    assert report.passed
    return report


@pytest.fixture
def counted_pair_sets(monkeypatch):
    """The (m, budget, seed) of every interval pair set drawn while the test runs."""
    drawn = []
    drawing = spaces._interval_pairs

    def counting(m, budget, seed):
        drawn.append((m, budget, seed))
        return drawing(m, budget, seed)

    monkeypatch.setattr(spaces, "_interval_pairs", counting)
    return drawn


class TestIntervalKindTraffic:
    @pytest.mark.parametrize("regularity, pair_sets", [
        ("lipschitz", []), ("holder\nexponent = 0.5", [(65, 4096, 11)]),
    ], ids=["lipschitz", "holder"])
    def test_example_affine_locates_once_per_solve_and_draws_a_pair_set_below_alpha_1(
            self, tmp_path, counted_locates, counted_pair_sets, regularity, pair_sets):
        deltas = [2.0**-k for k in range(4, 10)]
        run_kind(tmp_path, f"kind = example-affine\nseed = 11\nregularity = {regularity}\n"
                           "epsilon = 0.12\ninterval_resolution = 65\n"
                           f"deltas = {' '.join(map(repr, deltas))}\n")
        # the base solve and one stacked solve of every delta, which passes
        # the same stack at every step; the five forcing norms are exact at
        # alpha = 1 and share one pair set below it
        assert counted_locates == [65, 65]
        assert counted_pair_sets == pair_sets

    def test_example_composition_draws_no_pair_set(self, tmp_path, counted_pair_sets):
        # every norm it takes is a C^{1,1} norm, whose Lipschitz seminorm is exact
        run_kind(tmp_path, "kind = example-composition\nseed = 5\n"
                           "interval_resolution = 65\nsamples = 4\n")
        assert counted_pair_sets == []


def per_sample_suite(cfg, n_samples, seed):
    """The constraint suite one sample at a time: each norm, apply and product on one row.

    A sample draws phi, psi, u and z in that order, each a target fraction
    and then its coefficients (:func:`model_maps.random_ball_function`).
    """
    fmap = composition_map(cfg)
    m, r = cfg.resolution, cfg.radius
    rng = np.random.default_rng(seed)
    ball, contraction, q_norm = [], [], []
    for _ in range(n_samples):
        phi = model_maps.random_ball_function(rng, m, 0.95 * r * rng.uniform(0.2, 1.0))
        psi = model_maps.random_ball_function(rng, m, 0.95 * r * rng.uniform(0.2, 1.0))
        u = model_maps.random_ball_function(rng, m, 0.95 * cfg.param_radius
                                            * rng.uniform(0.2, 1.0))
        z = model_maps.random_ball_function(rng, m, rng.uniform(0.2, 1.0))
        image = fmap.apply(u, phi)
        ball.append(spaces.interval_cr_norm(image, 2.0))
        contraction.append(model_maps.c1_norm(image - fmap.apply(u, psi))
                           / model_maps.c1_norm(phi - psi))
        q_norm.append(sup_norm(fmap.q_product(u, phi)(z)) / sup_norm(z))
    return ball, contraction, q_norm


class TestCompositionConstraintSuite:
    @pytest.mark.parametrize("radius, param_radius, m, n_samples, seed", [
        (0.5, 0.2, 65, 20, 3), (0.35, 0.1, 129, 5, 11), (0.45, 0.15, 1025, 12, 4),
    ])
    def test_equals_one_sample_at_a_time_bitwise(self, radius, param_radius, m, n_samples,
                                                 seed):
        cfg = CompositionMapConfig(radius=radius, param_radius=param_radius, resolution=m)
        ball, contraction, q_norm = per_sample_suite(cfg, n_samples, seed)
        report = model_maps.composition_constraint_suite(cfg, n_samples, seed)
        assert (report.ball_max, report.contraction_max, report.q_norm_max) == (
            max(ball), max(contraction), max(q_norm))
        assert all(type(v) is float
                   for v in (report.ball_max, report.contraction_max, report.q_norm_max))
        assert (report.ball_violations, report.contraction_violations,
                report.q_norm_violations) == (0, 0, 0)

    def test_a_ball_function_reads_its_target_norm(self):
        rng = np.random.default_rng(2)
        for m in (65, 1025):
            f = model_maps.random_ball_function(rng, m, 0.3)
            # scaling moves the slopes of slopes by rounding of about eps / h^2
            h = 2.0 / (m - 1)
            assert abs(spaces.interval_cr_norm(f, 2.0) - 0.3) <= 0.3 * np.finfo(float).eps / h**2


def suite_stacks(m, n_samples, seed):
    """The phi, u and z stacks of a suite's first block, as :func:`_ball_rows` builds them."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, n_samples, 5))
    targets = rng.uniform(0.2, 1.0, (3, n_samples)) * np.array([[0.45], [0.15], [1.0]])
    return (model_maps._ball_rows(c, t, m) for c, t in zip(coeffs, targets))


class TestStackedQProduct:
    @pytest.mark.parametrize("m", [65, 1025])
    def test_rows_are_the_one_row_products_bitwise(self, m):
        fmap = composition_map(CompositionMapConfig(resolution=m))
        phi, u, z = suite_stacks(m, 6, m)
        z[3] = 0.0
        stacked = fmap.q_product(u, phi)(z)
        for row in range(6):
            assert np.array_equal(stacked[row], fmap.q_product(u[row], phi[row])(z[row]))
        assert not stacked[3].any()

    def test_the_suite_takes_one_q_product_per_block(self, monkeypatch):
        made = []
        making = model_maps.composition_map

        def counting(cfg):
            fmap = making(cfg)
            return dataclasses.replace(fmap, q_product=lambda u, phi: made.append(np.shape(u))
                                       or fmap.q_product(u, phi))

        monkeypatch.setattr(model_maps, "composition_map", counting)
        model_maps.composition_constraint_suite(CompositionMapConfig(resolution=65), 20, seed=3)
        assert made == [(16, 65), (4, 65)]

    def test_the_suite_skips_a_zero_z_row(self, monkeypatch):
        # as one sample at a time: no ratio, and no 0 / 0 warning, which fails here
        cfg = CompositionMapConfig(resolution=65)
        built = []
        building = model_maps._ball_rows

        def zeroing(coeffs, targets, m):
            rows = building(coeffs, targets, m)
            built.append(rows)
            if len(built) == 4:  # z, the fourth role
                rows[1] = 0.0
            return rows

        monkeypatch.setattr(model_maps, "_ball_rows", zeroing)
        report = model_maps.composition_constraint_suite(cfg, 5, seed=3)
        phi, _, u, z = built
        fmap = composition_map(cfg)
        ratios = [sup_norm(fmap.q_product(u[r], phi[r])(z[r])) / sup_norm(z[r])
                  for r in (0, 2, 3, 4)]
        assert (report.q_norm_max, report.q_norm_violations) == (max(ratios), 0)


class TestCompositionExperimentTraffic:
    def run_experiment(self, m):
        cfg = CompositionMapConfig(resolution=m)
        model_maps.composition_constraint_suite(cfg, n_samples=12)
        composition_second_derivative_check(cfg)

    @pytest.mark.parametrize("m", [257, 1025])
    def test_reads_at_most_73_slope_maps(self, monkeypatch, m):
        calls = []
        slopes = spaces._SplineGrid.slopes
        monkeypatch.setattr(spaces._SplineGrid, "slopes",
                            lambda grid, y: calls.append(np.shape(y)) or slopes(grid, y))
        self.run_experiment(m)
        # 394 one-row slope maps when every ball sample, norm, apply, Q
        # product and shifted Picard solve took its own; 73 with them stacked
        assert len(calls) <= 73

    def test_peak_at_m_1025(self):
        self.run_experiment(1025)  # fills the kept unit-spacing maps
        spaces._SPLINE_GRID_MEMO.clear()  # each bench experiment draws its own grid
        tracemalloc.start()
        try:
            self.run_experiment(1025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            spaces._SPLINE_GRID_MEMO.clear()
        # measured: 3.71 MB with a sampled C^{1,1} seminorm and one sample at
        # a time, 1.93 MB with the exact seminorm and the samples as stacks,
        # 2.32 MB with the Q products stacked too (their located points)
        assert peak < 2.5e6


class TestForcingBall:
    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    def test_the_five_forcings_are_one_norm_call(self, monkeypatch, exponent):
        calls = []
        norming = model_maps.interval_cr_norm

        def counting(samples, r, seed=spaces.DEFAULT_SEED):
            calls.append((np.shape(samples), r, seed))
            return norming(samples, r, seed)

        monkeypatch.setattr(model_maps, "interval_cr_norm", counting)
        regularity = "lipschitz" if exponent == 1.0 else "holder"
        AffineMapConfig(g=lambda t, u: abs(u) ** exponent * np.cos(t), regularity=regularity,
                        holder_exponent=exponent, epsilon=0.12,
                        resolution=65).validate_forcing_ball(seed=4)
        assert calls == [((5, 65), exponent, 4)]

    def test_the_first_forcing_outside_the_ball_is_named(self):
        # at u = 0.05 the forcing is 0.55 cos t, whose sup is its C^1 norm
        cfg = AffineMapConfig(g=lambda t, u: (3.0 * u + 0.4) * np.cos(t), holder_exponent=1.0,
                              epsilon=0.1, resolution=65)
        with pytest.raises(ValueError, match=r"\|\|g\(\., 0\.05\)\|\|_C\^1 = 0\.55 > 1/2"):
            cfg.validate_forcing_ball()


class TestCompositionCheckTraffic:
    def test_allocates_no_m_by_m_array(self):
        # every solve is a Krylov solve on products of Q0, so the peak stays
        # below one m x m float array (8 m^2 bytes)
        m = 1025
        tracemalloc.start()
        try:
            rows = composition_second_derivative_check(CompositionMapConfig(resolution=m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.label for row in rows] == ["constant", "linear"]
        assert peak < 8 * m * m
