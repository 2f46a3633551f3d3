"""The interval model maps: the composition map's order-2 check and the affine oracle."""

import numpy as np
import pytest

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
)
from circleresp import fixed_point, model_maps
from circleresp.fixed_point import _checked_inverse, _identity_minus
from circleresp.model_maps import SecondDerivativeRow, interval_nodes


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

    Each direction solves its own base fixed point, inverts and checks
    Id - Q0 once per solve, and solves the oracle's value at 0 again.
    """
    fmap = composition_map(cfg)
    m = cfg.resolution
    u0 = np.zeros(m)
    rows = []
    for label, h in directions:
        phi = solve_fixed_point(fmap, u0, np.zeros(m), tol=tol).phi_star
        p0 = fmap.p_matrix(u0, phi)
        q0 = fmap.q_matrix(u0, phi)
        z = fixed_point_derivative(p0, q0, h)
        rhs = (fmap.q20(u0, phi, h, h) + fmap.q20(u0, phi, h, h) + fmap.q11(u0, phi, h, z)
               + fmap.q11(u0, phi, h, z) + fmap.q02(u0, phi, z, z) + fmap.q02(u0, phi, z, z))
        engine = _checked_inverse(_identity_minus(q0))[0] @ rhs

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


def no_second_factorization(*args, **kwargs):
    raise AssertionError("a checked system was factored again by np.linalg.solve")


class TestCompositionQ:
    def test_matrix_free_q_equals_the_q_matrix(self):
        cfg = CompositionMapConfig(radius=0.5, param_radius=0.2, resolution=129)
        fmap = composition_map(cfg)
        rng = np.random.default_rng(23)
        m = cfg.resolution
        for _ in range(5):
            phi = model_maps.random_ball_function(rng, m, 0.95 * cfg.radius * rng.uniform(0.2, 1.0))
            u = model_maps.random_ball_function(rng, m, 0.95 * cfg.param_radius)
            z = model_maps.random_ball_function(rng, m, rng.uniform(0.2, 1.0))
            dense = fmap.q_matrix(u, phi) @ z
            assert sup_norm(model_maps._composition_q(phi, z) - dense) <= 1e-14 * sup_norm(dense)


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

    def test_one_inversion_and_ten_picard_solves(self, monkeypatch):
        inversions = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or real_inv(a))
        monkeypatch.setattr(np.linalg, "solve", no_second_factorization)
        solves = {"check": 0, "engine": 0}

        def counting(key, solve):
            def wrapped(*args, **kwargs):
                solves[key] += 1
                return solve(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(model_maps, "solve_fixed_point",
                            counting("check", model_maps.solve_fixed_point))
        monkeypatch.setattr(fixed_point, "solve_fixed_point",
                            counting("engine", fixed_point.solve_fixed_point))
        composition_second_derivative_check(self.CFG)
        # the check: the base point once and four shifted points per direction;
        # the engine's base solve starts at the base point and returns it
        assert inversions == [(65, 65)]
        assert solves == {"check": 9, "engine": 1}


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
