import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import (
    dense_d_u_operator,
    dense_of,
    neumann_sum,
    no_dense_solve,
    residual_matrix,
)

from circleresp import (
    DegenerateFitError,
    MaxIterExceededError,
    NonContractionError,
    NumericsError,
    ParametrizedMap,
    SingularSystemError,
    fixed_point_derivative,
    fixed_point_second_derivatives,
    solve_fixed_point,
    solve_fixed_points,
    sup_norm,
    taylor_residual_scan,
    theil_sen_loglog,
)
from circleresp.fixed_point import _checked_solve
from circleresp.model_maps import (
    AffineMapConfig,
    CompositionMapConfig,
    affine_map,
    composition_map,
    interval_nodes,
)
from circleresp.transfer import (
    assemble_operator,
    geometric_weight,
    normalized_map,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
)


def identity(v):
    return np.asarray(v, dtype=float)


def half(v):
    return 0.5 * v


def product_of(mat):
    """The product v -> mat @ v of a dense matrix."""
    return lambda v: mat @ v


def linear_map():
    # F(u, phi) = phi/2 + u, fixed point phi* = 2u
    return ParametrizedMap(
        apply=lambda u, phi: phi / 2.0 + u,
        p_product=lambda u, phi: identity,
        q_product=lambda u, phi: half,
        q2_product=lambda u, phi: lambda h1, z1, h2, z2: np.zeros(1),
    )


def quadratic_map():
    # F(u, phi) = phi/2 + u^2/2, fixed point phi* = u^2
    return ParametrizedMap(
        apply=lambda u, phi: phi / 2.0 + u**2 / 2.0,
        p_product=lambda u, phi: lambda h: float(u[0]) * h,
        q_product=lambda u, phi: half,
        q2_product=lambda u, phi: lambda h1, z1, h2, z2: 0.5 * (h1 * h2),
    )


class TestSolveFixedPoint:
    def test_linear_geometric(self):
        result = solve_fixed_point(linear_map(), np.ones(1), np.zeros(1), tol=1e-12)
        assert abs(result.phi_star[0] - 2.0) < 1e-11
        assert result.contraction_estimate == pytest.approx(0.5, abs=1e-6)
        assert result.residual <= 1e-12

    def test_idempotence(self):
        result = solve_fixed_point(linear_map(), np.ones(1), np.array([2.0]), tol=1e-12)
        assert result.iterations <= 1
        assert result.phi_star[0] == 2.0

    def test_composition_zero_parameter(self):
        cfg = CompositionMapConfig()
        fmap = composition_map(cfg)
        m = cfg.resolution
        result = solve_fixed_point(fmap, np.zeros(m), np.zeros(m), tol=1e-13)
        assert result.iterations == 0
        assert sup_norm(result.phi_star) == 0.0

    def test_composition_constant_parameter(self):
        # constant ansatz: a/2 + c = a forces a = 2c
        cfg = CompositionMapConfig()
        fmap = composition_map(cfg)
        m = cfg.resolution
        c = 0.07
        result = solve_fixed_point(fmap, np.full(m, c), np.zeros(m), tol=1e-13)
        assert sup_norm(result.phi_star - 2.0 * c) < 1e-12

    def test_affine_constant_forcing(self):
        cfg = AffineMapConfig(g=lambda t, u: np.full_like(t, 0.3), epsilon=0.5)
        fmap = affine_map(cfg)
        result = solve_fixed_point(fmap, np.zeros(1), np.zeros(cfg.resolution), tol=1e-13)
        assert sup_norm(result.phi_star - 0.6) < 1e-12

    def test_non_contraction_detected(self):
        fmap = ParametrizedMap(apply=lambda u, phi: 2.0 * phi + u)
        with pytest.raises(NonContractionError):
            solve_fixed_point(fmap, np.ones(1), np.zeros(1), tol=1e-12)

    def test_max_iter_exceeded(self):
        with pytest.raises(MaxIterExceededError):
            solve_fixed_point(linear_map(), np.ones(1), np.zeros(1), tol=1e-12, max_iter=3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_fixed_point(linear_map(), np.ones(1), np.zeros(1), tol=0.0)
        with pytest.raises(ValueError):
            solve_fixed_point(linear_map(), np.ones(1), np.zeros(1), max_iter=0)


def affine_case(regularity, m):
    """An affine map of the experiments' forcing classes at m nodes."""
    if regularity == "holder":
        return affine_map(AffineMapConfig(lambda t, u: abs(u) ** 0.5 * np.cos(t), "holder",
                                          holder_exponent=0.5, resolution=m))
    return affine_map(AffineMapConfig(lambda t, u: 0.35 * u * np.cos(t), resolution=m))


# Eight shifted parameters of a Hölder ladder and u = 0, whose row starts at
# its fixed point phi = 0 and finishes at step 0.
STACK_PARAMETERS = [0.06 * 2.0**-k for k in range(8)] + [0.0]


def row_by_row(apply):
    """An ``apply`` that takes a stack one row at a time through the one-row ``apply``."""
    def rows(u, phi):
        if np.ndim(phi) == 2:
            return np.stack([apply(row_u, row_phi) for row_u, row_phi in zip(u, phi)])
        return apply(u, phi)

    return rows


# A map applies a stack as one array expression, or one row at a time as the
# normalized transfer map does; a solve treats both alike.
APPLY_FORMS = pytest.mark.parametrize("one_row", [False, True], ids=["stacked", "row_by_row"])


def scalar_rows_map(one_row=False):
    """phi <- u * phi + 1 on one entry, which contracts for |u| < 1 and diverges for u > 1."""
    def apply(u, phi):
        return u[..., :1] * phi + 1.0

    return ParametrizedMap(apply=row_by_row(apply) if one_row else apply)


def breaking_map(bad, one_row=False):
    """phi <- phi/2 + u on one entry, whose step is ``bad`` once phi >= 1.7.

    From phi = 0, u = 1 steps to 1, 1.5 and 1.75, so its step 3 is ``bad``.
    """
    def step(u, phi):
        return np.where(phi >= 1.7, bad, 0.5 * phi + u[..., :1])

    return ParametrizedMap(apply=row_by_row(step) if one_row else step)


class TestSolveFixedPoints:
    @pytest.mark.parametrize("m", [65, 1025])
    @pytest.mark.parametrize("regularity", ["holder", "lipschitz"])
    def test_every_row_is_its_one_row_solve_bitwise(self, regularity, m):
        fmap = affine_case(regularity, m)
        one_at_a_time = dataclasses.replace(fmap, apply=row_by_row(fmap.apply))
        us = np.array(STACK_PARAMETERS)[:, None]
        stacked = solve_fixed_points(fmap, us, np.zeros(m), tol=1e-13)
        assert stacked[-1].iterations == 0
        assert min(r.iterations for r in stacked[:-1]) > 20
        for u, row in zip(us, stacked):
            alone = solve_fixed_point(one_at_a_time, u, np.zeros(m), tol=1e-13)
            assert np.array_equal(row.phi_star, alone.phi_star)
            assert (row.iterations, row.residual, row.contraction_estimate) == (
                alone.iterations, alone.residual, alone.contraction_estimate)
        # a map that applies its stack one row at a time gives the same rows
        looped = solve_fixed_points(one_at_a_time, us, np.zeros(m), tol=1e-13)
        assert [(r.iterations, r.residual, r.contraction_estimate) for r in looped] == [
            (r.iterations, r.residual, r.contraction_estimate) for r in stacked]
        assert all(np.array_equal(a.phi_star, b.phi_star) for a, b in zip(looped, stacked))

    @pytest.mark.parametrize("m", [65, 1025])
    @pytest.mark.parametrize("regularity", ["holder", "lipschitz"])
    def test_a_stack_applies_as_its_rows(self, regularity, m):
        fmap = affine_case(regularity, m)
        us = np.array(STACK_PARAMETERS)[:, None]
        phis = np.random.default_rng(m).uniform(-0.5, 0.5, (len(us), m))
        expected = [fmap.apply(u, phi) for u, phi in zip(us, phis)]
        rows = fmap.apply(us, phis)
        assert all(np.array_equal(row, want) for row, want in zip(rows, expected))
        # a stack of some of the rows, in another order, reads the same rows
        pick = [5, 0, 8]
        rows = fmap.apply(us[pick], phis[pick])
        assert all(np.array_equal(rows[j], expected[r]) for j, r in enumerate(pick))

    def test_a_stack_of_starting_states(self):
        fmap = affine_case("lipschitz", 65)
        us = np.array(STACK_PARAMETERS[:3])[:, None]
        starts = np.random.default_rng(3).uniform(-0.2, 0.2, (3, 65))
        stacked = solve_fixed_points(fmap, us, starts, tol=1e-13)
        for u, start, row in zip(us, starts, stacked):
            alone = solve_fixed_point(fmap, u, start, tol=1e-13)
            assert np.array_equal(row.phi_star, alone.phi_star)
            assert row.iterations == alone.iterations

    @APPLY_FORMS
    def test_a_row_that_does_not_contract_raises_as_alone(self, one_row):
        fmap = scalar_rows_map(one_row)
        with pytest.raises(NonContractionError) as alone:
            solve_fixed_point(fmap, [2.0], np.zeros(1))
        with pytest.raises(NonContractionError) as stacked:
            solve_fixed_points(fmap, [[0.5], [2.0], [0.25]], np.zeros(1))
        assert str(stacked.value) == "row 1: " + str(alone.value)

    @APPLY_FORMS
    def test_an_exhausted_budget_raises_as_alone(self, one_row):
        fmap = scalar_rows_map(one_row)
        with pytest.raises(MaxIterExceededError) as alone:
            solve_fixed_point(fmap, [0.9], np.zeros(1), max_iter=30)
        # the row at u = 0 finishes at step 1; the budget runs out on the row at 0.9
        with pytest.raises(MaxIterExceededError) as stacked:
            solve_fixed_points(fmap, [[0.0], [0.9]], np.zeros(1), max_iter=30)
        assert str(stacked.value) == "row 1: " + str(alone.value)

    @APPLY_FORMS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_step_raises_at_its_iteration(self, bad, one_row):
        # unchecked, a NaN step runs out the whole budget and an infinite one
        # warns on inf - inf
        fmap = breaking_map(bad, one_row)
        with pytest.raises(NumericsError, match=r"^non-finite step at iteration 3$") as alone:
            solve_fixed_point(fmap, [1.0], np.zeros(1))
        # the rows at u = 0.5 and 0.25 contract to 1 and 0.5 and never reach 1.7
        with pytest.raises(NumericsError) as stacked:
            solve_fixed_points(fmap, [[0.5], [1.0], [0.25]], np.zeros(1))
        assert str(stacked.value) == "row 1: " + str(alone.value)

    def test_each_step_applies_the_whole_parameter_stack_in_one_call(self):
        seen = []

        def apply(u, phi):
            seen.append(u.copy())
            return u[..., :1] * phi + 1.0

        us = np.array([[0.0], [0.5]])
        results = solve_fixed_points(ParametrizedMap(apply=apply), us, np.zeros(1))
        # the row at u = 0 finishes at step 1 and stays in every later stack
        assert results[0].iterations == 1 < results[1].iterations
        assert len(seen) == results[1].iterations + 1
        assert all(np.array_equal(u, us) for u in seen)

    def test_a_map_has_one_apply_and_three_products(self):
        assert [field.name for field in dataclasses.fields(ParametrizedMap)] == [
            "apply", "p_product", "q_product", "q2_product"]

    def test_an_empty_stack_solves_nothing(self):
        assert solve_fixed_points(scalar_rows_map(), np.zeros((0, 1)), np.zeros(1)) == []


class TestFixedPointDerivative:
    def test_zero_q(self):
        h = np.array([1.0, -2.0, 0.5])
        z = fixed_point_derivative(identity, lambda v: 0.0 * v, h)
        assert np.allclose(z, h, atol=1e-14)

    def test_scalar_half(self):
        z = fixed_point_derivative(identity, half, np.array([3.0]))
        assert z[0] == pytest.approx(6.0, rel=1e-12)

    def test_singular_system(self):
        with pytest.raises(SingularSystemError):
            fixed_point_derivative(identity, identity, np.ones(2))

    @staticmethod
    def contracting_system():
        rng = np.random.default_rng(23)
        q = rng.standard_normal((12, 12))
        q *= 0.6 / np.linalg.norm(q, np.inf)
        return q, rng.standard_normal(12)

    @staticmethod
    def non_normal_system():
        # rho(Q) = 1/2 but ||Q|| = 1e6: the iterates grow a million-fold before they decay
        return np.array([[0.5, 1e6], [0.0, 0.5]]), np.array([1.0, -1.0])

    @staticmethod
    def inverse_norm(q, order=1):
        """||(Id - Q)^-1|| from the dense inverse, the oracle of the Neumann sum's bound."""
        return np.linalg.norm(np.linalg.inv(np.eye(q.shape[0]) - q), order)

    @pytest.mark.parametrize("system", ["contracting_system", "non_normal_system"])
    def test_neumann_partial_sum_is_within_its_certified_tolerance(self, system):
        q, rhs = getattr(self, system)()
        n = q.shape[0]
        direct = np.linalg.solve(np.eye(n) - q, rhs)
        tolerance = 0.5e-8 * sup_norm(direct)
        series = neumann_sum(product_of(q), rhs, self.inverse_norm(q), tolerance)
        assert series is not None
        assert sup_norm(series - direct) <= tolerance
        # the checked solve against the certified sum, and within its forward error
        # bound ||(Id - Q)^-1||_2 times its stop on the residual of the dense solve
        z = fixed_point_derivative(identity, product_of(q), rhs)
        assert sup_norm(z - series) <= 2.0 * tolerance
        assert np.linalg.norm(z - direct) <= self.inverse_norm(q, 2) * 2.0 * stop_of(rhs, z)

    def test_divergent_series_returns_the_solve_without_a_warning(self):
        q = 100.0 * np.eye(3)
        rhs = np.array([1.0, -2.0, 0.5])
        assert neumann_sum(product_of(q), rhs, self.inverse_norm(q), 1e-8) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = fixed_point_derivative(identity, product_of(q), rhs)
        assert np.allclose(z, rhs / -99.0, rtol=1e-15, atol=0.0)

    def test_composition_derivative_formula(self):
        # at u = 0 the fixed point is 0 and Q z = z(0)/2, so z = h + h(0) * 1
        cfg = CompositionMapConfig()
        fmap = composition_map(cfg)
        m = cfg.resolution
        ts = interval_nodes(m)
        u0 = np.zeros(m)
        phi0 = np.zeros(m)
        p0 = fmap.p_product(u0, phi0)
        q0 = fmap.q_product(u0, phi0)
        for h in (np.ones(m), ts.copy(), np.sin(ts)):
            h0 = h[(m - 1) // 2]  # value at t = 0
            z = fixed_point_derivative(p0, q0, h)
            assert sup_norm(z - (h + h0)) < 1e-10

    def test_composition_derivative_vs_finite_differences(self):
        cfg = CompositionMapConfig()
        fmap = composition_map(cfg)
        m = cfg.resolution
        ts = interval_nodes(m)
        u0 = np.zeros(m)
        phi0 = np.zeros(m)
        z = fixed_point_derivative(fmap.p_product(u0, phi0), fmap.q_product(u0, phi0),
                                   np.sin(ts))

        def fd(step):
            up = solve_fixed_point(fmap, step * np.sin(ts), phi0, tol=1e-13).phi_star
            dn = solve_fixed_point(fmap, -step * np.sin(ts), phi0, tol=1e-13).phi_star
            return (up - dn) / (2.0 * step)

        coarse, fine = fd(1e-3), fd(1e-4)
        richardson = sup_norm(fine - coarse) / 3.0
        assert sup_norm(z - fine) <= max(1e-6, 10.0 * richardson)


def with_singular_values(rng, sv):
    """Q1 diag(sv) Q2 for random orthogonal Q1, Q2."""
    q1, _ = np.linalg.qr(rng.standard_normal((sv.size, sv.size)))
    q2, _ = np.linalg.qr(rng.standard_normal((sv.size, sv.size)))
    return (q1 * sv) @ q2


def system_product(system):
    """The product of Q = Id - A for a dense system A, so that x - Q x = A x."""
    return lambda v: v - system @ v


def stop_of(b, x):
    """The checked solve's stop on the true residual of b and x."""
    return np.sqrt(b.size) * np.finfo(float).eps * (np.linalg.norm(b) + np.linalg.norm(x))


class TestCheckedSolve:
    @staticmethod
    def well_separated_system():
        rng = np.random.default_rng(37)
        sv = np.linspace(1.0, 2.0, 64)
        sv[-1] = 1e-6
        return with_singular_values(rng, sv), rng.standard_normal(64)

    def test_meets_its_stop_and_its_forward_error_bound(self):
        # the residual meets the stop, and the error is at most ||A^-1||_2
        # times the residual, rounding of the residual included
        system, rhs = self.well_separated_system()
        x = _checked_solve(system_product(system), rhs)
        direct = np.linalg.solve(system, rhs)
        assert np.linalg.norm(rhs - system @ x) <= 2.0 * stop_of(rhs, x)
        bound = 1e6 * 2.0 * stop_of(rhs, x)
        assert np.linalg.norm(x - direct) <= bound

    def test_exactly_singular_raises_without_warning(self):
        system = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for singular in (system, np.zeros((3, 3))):
                with pytest.raises(SingularSystemError, match="no solution"):
                    _checked_solve(system_product(singular), np.ones(3))  # ones is off the range

    def test_a_consistent_singular_system_is_solved(self):
        # Q = diag(1, 0): b = (0, 1) lies in the range of Id - Q, and its
        # Krylov space is invariant at once
        x = _checked_solve(lambda v: np.array([v[0], 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(x, [0.0, 1.0])

    def test_nan_system_raises(self):
        system = np.eye(4)
        system[1, 2] = np.nan
        calls = []

        def product(v):
            calls.append(1)
            return system_product(system)(v)

        with pytest.raises(NumericsError, match="non-finite b or product after 1 Krylov steps"):
            _checked_solve(product, np.ones(4))
        assert len(calls) == 1
        with pytest.raises(NumericsError, match="non-finite b or product after 0 Krylov steps"):
            _checked_solve(half, np.array([1.0, np.inf]))

    def test_exhausted_budget_names_its_steps_and_residual(self):
        # Q = 0.999 U for a random orthogonal U: the spectrum of Id - Q rings
        # the origin at 1e-3, and GMRES gains little per step
        rng = np.random.default_rng(41)
        rotation, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        with pytest.raises(MaxIterExceededError,
                           match=r"after 100 steps \(relative residual [0-9.]+e[+-][0-9]+\)"):
            _checked_solve(product_of(0.999 * rotation), rng.standard_normal(300))

    def test_arnoldi_basis_stays_orthonormal_on_a_non_normal_system(self):
        # A = Id - Q is upper triangular with diagonal 1 + 0.01 N(0, 1), so the
        # eigenvalues of Q cluster at 0, and entries N(0, 1/n) above it, so Q
        # is far from normal.  The first 20 products take Arnoldi's basis
        # vectors: with one Gram-Schmidt pass they drift 1.3e-4 from
        # orthonormal, with two they stay within 7e-16
        n = 60
        rng = np.random.default_rng(0)
        system = (np.diag(1.0 + 0.01 * rng.standard_normal(n))
                  + np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n))
        rhs = rng.standard_normal(n)
        seen = []

        def product(v):
            seen.append(v.copy())
            return v - system @ v

        x = _checked_solve(product, rhs)
        assert np.linalg.norm(rhs - system @ x) <= 2.0 * stop_of(rhs, x)
        basis = np.stack(seen[:20], axis=1)
        assert np.max(np.abs(basis.T @ basis - np.eye(20))) <= 1e-14

    def test_zero_right_hand_side_gives_exact_zeros_without_a_product(self):
        def no_product(v):
            raise AssertionError("a product for b = 0")

        x = _checked_solve(no_product, np.zeros(5))
        assert np.array_equal(x, np.zeros(5)) and not np.signbit(x).any()


def row_sup_norms(vs):
    return np.max(np.abs(vs), axis=1)


class TestTaylorResidualScan:
    def test_linear_map_exact_development(self):
        fmap = linear_map()
        report = taylor_residual_scan(fmap, np.zeros(1), np.zeros(1), np.ones(1),
                                      [2.0**-k for k in range(2, 9)], row_sup_norms, tol=1e-15)
        assert all(r.residual_norm <= 1e-12 for r in report.rows)
        assert report.fitted_order == float("inf")

    def test_quadratic_map_order_two(self):
        fmap = quadratic_map()
        u0 = np.array([0.3])
        phi0 = np.array([0.09])
        report = taylor_residual_scan(fmap, u0, phi0, np.ones(1),
                                      [2.0**-k for k in range(3, 11)], row_sup_norms, tol=1e-15)
        assert report.fitted_order == pytest.approx(2.0, abs=0.05)

    def test_one_outlier_residual_leaves_the_order_at_two(self):
        fmap = quadratic_map()
        u0 = np.array([0.3])
        phi0 = np.array([0.09])
        deltas = [2.0**-k for k in range(3, 11)]

        def one_outlier(vs):
            norms = row_sup_norms(vs)
            norms[3] *= 1e3  # the residual of the fourth delta
            return norms

        report = taylor_residual_scan(fmap, u0, phi0, np.ones(1), deltas, one_outlier,
                                      tol=1e-15)
        assert report.fitted_order == pytest.approx(2.0, abs=0.05)
        assert report.n_points == len(deltas)
        rows = report.rows
        least_squares = np.polyfit(np.log([r.h_norm for r in rows]),
                                   np.log([r.residual_norm for r in rows]), 1)[0]
        assert abs(least_squares - 2.0) > 0.05

    def test_composition_map_order_at_least_1_9(self):
        cfg = CompositionMapConfig()
        fmap = composition_map(cfg)
        m = cfg.resolution
        u0 = np.zeros(m)
        phi0 = np.zeros(m)
        direction = np.sin(interval_nodes(m))
        report = taylor_residual_scan(fmap, u0, phi0, direction,
                                      [2.0**-k for k in range(3, 10)], row_sup_norms, tol=1e-13)
        assert report.fitted_order >= 1.9
        normalized = [r.normalized_residual for r in report.rows]
        assert normalized[-1] < normalized[0]

    @pytest.mark.parametrize("given, missing", [
        ({}, "p_product"), ({"p_product": lambda u, phi: identity}, "q_product"),
    ])
    def test_missing_product_raises_before_any_solve(self, given, missing):
        def no_apply(u, phi):
            raise AssertionError("the map was applied")

        fmap = ParametrizedMap(apply=no_apply, **given)
        with pytest.raises(ValueError, match=f"does not supply {missing}"):
            taylor_residual_scan(fmap, np.zeros(1), np.zeros(1), np.ones(1), [0.5, 0.25],
                                 row_sup_norms)


class TestSecondDerivative:
    def test_scalar_quadratic(self):
        [d2] = fixed_point_second_derivatives(
            quadratic_map(), np.zeros(1), np.zeros(1), [(np.ones(1), np.ones(1))]
        )
        assert d2[0] == pytest.approx(2.0, rel=1e-10)

    def test_scalar_affine_vanishes(self):
        [d2] = fixed_point_second_derivatives(
            linear_map(), np.array([0.4]), np.zeros(1), [(np.ones(1), np.ones(1))]
        )
        assert abs(d2[0]) < 1e-12

    def test_missing_coefficient(self):
        fmap = ParametrizedMap(
            apply=lambda u, phi: phi / 2.0 + u,
            p_product=lambda u, phi: identity, q_product=lambda u, phi: half,
        )
        with pytest.raises(ValueError, match="does not supply q2_product"):
            fixed_point_second_derivatives(fmap, np.zeros(1), np.zeros(1),
                                           [(np.ones(1), np.ones(1))])

    def test_affine_interval_map_vs_richardson(self):
        # g linear in u: the curvature of the fixed point comes from branch motion
        cfg = AffineMapConfig(
            g=lambda t, u: 0.3 * u * np.cos(t),
            g_du=lambda t, u: 0.3 * np.cos(t),
            g_duu=lambda t, u: np.zeros_like(t),
            epsilon=0.3,
        )
        fmap = affine_map(cfg)
        m = cfg.resolution
        [engine] = fixed_point_second_derivatives(
            fmap, np.zeros(1), np.zeros(m), [(np.ones(1), np.ones(1))], tol=1e-13
        )

        def solve_at(c):
            return solve_fixed_point(fmap, np.array([c]), np.zeros(m), tol=1e-13).phi_star

        delta = 1e-3
        base = solve_at(0.0)
        narrow = solve_at(delta) - 2 * base + solve_at(-delta)
        wide = solve_at(2 * delta) - 2 * base + solve_at(-2 * delta)
        fd = (16.0 * narrow - wide) / (12.0 * delta**2)
        assert sup_norm(engine - fd) / sup_norm(fd) < 1e-5


def per_pair_second_derivative(fmap, u0, h1, h2, phi0, tol=1e-12):
    """The order-2 engine with its own base solve and its own products and solve per system."""
    u0 = np.asarray(u0, dtype=float)
    phi = solve_fixed_point(fmap, u0, phi0, tol=tol).phi_star
    p0 = fmap.p_product(u0, phi)
    q0 = fmap.q_product(u0, phi)
    z1 = fixed_point_derivative(p0, q0, h1)
    z2 = z1 if h2 is h1 or np.array_equal(h1, h2) else fixed_point_derivative(p0, q0, h2)
    return _checked_solve(q0, 2.0 * fmap.q2_product(u0, phi)(h1, z1, h2, z2))


class TestSecondDerivatives:
    def test_composition_pairs_bitwise_equal_to_per_pair_solves(self):
        cfg = CompositionMapConfig(resolution=65)
        fmap = composition_map(cfg)
        ts = interval_nodes(65)
        u0 = 0.05 * np.sin(ts)
        h1, h2 = ts.copy(), np.cos(ts)
        pairs = [(h1, h1), (h1, h2), (h2, h1), (h2, h2.copy())]
        got = fixed_point_second_derivatives(fmap, u0, np.zeros(65), pairs, tol=1e-13)
        assert len(got) == len(pairs)
        for (a, b), d2 in zip(pairs, got):
            assert np.array_equal(d2, per_pair_second_derivative(fmap, u0, a, b, np.zeros(65),
                                                                 tol=1e-13))
            assert np.array_equal(d2, fixed_point_second_derivatives(fmap, u0, np.zeros(65),
                                                                     [(a, b)], tol=1e-13)[0])

    def test_affine_pairs_bitwise_equal_to_per_pair_solves(self):
        # exercises both terms of the affine order-2 product with a scalar parameter
        cfg = AffineMapConfig(
            g=lambda t, u: 0.3 * u * np.cos(t) + 0.1 * u**2,
            g_du=lambda t, u: 0.3 * np.cos(t) + 0.2 * u,
            g_duu=lambda t, u: np.full_like(t, 0.2),
            epsilon=0.3,
            resolution=65,
        )
        fmap = affine_map(cfg)
        pairs = [(np.ones(1), np.ones(1)), (np.ones(1), np.array([-0.5]))]
        got = fixed_point_second_derivatives(fmap, [0.1], np.zeros(65), pairs, tol=1e-13)
        for (a, b), d2 in zip(pairs, got):
            assert np.array_equal(d2, per_pair_second_derivative(fmap, [0.1], a, b, np.zeros(65),
                                                                 tol=1e-13))

    def test_one_q0_product_for_all_pairs_and_no_dense_solve(self, monkeypatch):
        fmap = composition_map(CompositionMapConfig(resolution=65))
        ts = interval_nodes(65)
        built, b_calls = [], []

        def q2_product(u, phi):
            built.append("q2")
            b = fmap.q2_product(u, phi)
            return lambda *v: b_calls.append(1) or b(*v)

        counted = dataclasses.replace(
            fmap, q_product=lambda u, phi: built.append("q") or fmap.q_product(u, phi),
            q2_product=q2_product)
        monkeypatch.setattr(np.linalg, "inv", no_dense_solve)
        monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
        fixed_point_second_derivatives(counted, 0.05 * ts, np.zeros(65),
                                       [(ts, ts), (ts, np.ones(65)), (np.ones(65), ts)])
        assert built == ["q", "q2"]
        assert b_calls == [1, 1, 1]

    def test_each_direction_is_solved_once_across_pairs(self, monkeypatch):
        # (t, 1) and (1, t): z_t and z_1 once each, then one solve per pair
        m = 1025
        fmap = composition_map(CompositionMapConfig(resolution=m))
        ts = interval_nodes(m)
        pairs = [(ts, np.ones(m)), (np.ones(m), ts.copy())]
        alone = [fixed_point_second_derivatives(fmap, 0.05 * ts, np.zeros(m), [pair])[0]
                 for pair in pairs]
        solves = []
        solving = _checked_solve
        monkeypatch.setattr("circleresp.fixed_point._checked_solve",
                            lambda q, b: solves.append(b.size) or solving(q, b))
        got = fixed_point_second_derivatives(fmap, 0.05 * ts, np.zeros(m), pairs)
        assert solves == [m] * 4
        for d2, reference in zip(got, alone):
            assert np.array_equal(d2, reference)

    def test_singular_system_raises_through_the_plural(self):
        fmap = ParametrizedMap(
            apply=lambda u, phi: phi / 2.0 + u,
            p_product=lambda u, phi: identity, q_product=lambda u, phi: identity,
            q2_product=lambda u, phi: lambda h1, z1, h2, z2: np.zeros(2),
        )
        with pytest.raises(SingularSystemError):
            fixed_point_second_derivatives(fmap, np.ones(2), np.zeros(2),
                                           [(np.ones(2), np.ones(2))])

    def test_missing_coefficient_raises_before_any_solve(self):
        fmap = ParametrizedMap(apply=lambda u, phi: 2.0 * phi)
        with pytest.raises(ValueError, match="does not supply p_product"):
            fixed_point_second_derivatives(fmap, np.zeros(1), np.zeros(1), [])


class TestFitting:
    def test_degenerate_fit(self):
        with pytest.raises(DegenerateFitError):
            theil_sen_loglog([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 0.0)
        with pytest.raises(DegenerateFitError):
            theil_sen_loglog([1.0], [2.0], 0.0)
        with pytest.raises(DegenerateFitError):
            theil_sen_loglog([1.0, 2.0], [2.0, 0.0], 0.0)

    def test_a_point_at_the_floor_is_dropped(self):
        x = [1.0, 2.0, 4.0, 8.0]
        y = [1.0, 4.0, 16.0, 1e-3]  # slope 2 above the floor; the last point sits on it
        assert theil_sen_loglog(x, y, 1e-3) == (pytest.approx(2.0, rel=1e-14), 3)
        assert theil_sen_loglog(x, y, 0.0)[1] == 4

    def test_fewer_than_two_points_above_the_floor_raise(self):
        with pytest.raises(DegenerateFitError, match="among the 1 points"):
            theil_sen_loglog([1.0, 2.0, 4.0], [1.0, 4.0, 16.0], 4.0)
        assert theil_sen_loglog([1.0, 2.0, 4.0], [1.0, 4.0, 16.0], 1.0) == (
            pytest.approx(2.0, rel=1e-14), 2)

    def test_theil_sen_is_the_median_pairwise_slope(self):
        x = [1.0, 2.0, 4.0, 4.0]
        y = [1.0, 2.0, 8.0, 16.0]  # pairwise log-log slopes 1, 1.5, 2, 2, 2.5 (x=4 twice: skipped)
        assert theil_sen_loglog(x, y, 0.0) == (pytest.approx(2.0, rel=1e-14), 4)

    def test_theil_sen_ignores_one_outlier(self):
        deltas = 2.0 ** -np.arange(2, 10)
        for exponent in (0.5, 1.0):
            clean = deltas ** exponent
            assert theil_sen_loglog(deltas, clean, 0.0)[0] == pytest.approx(exponent, rel=1e-12)
            for index, factor in ((0, 1e-2), (-1, 1e-2), (3, 1e3)):
                dirty = clean.copy()
                dirty[index] *= factor
                assert theil_sen_loglog(deltas, dirty, 0.0)[0] == pytest.approx(exponent,
                                                                                 rel=1e-12)
                least_squares = np.polyfit(np.log(deltas), np.log(dirty), 1)[0]
                assert abs(least_squares - exponent) > 0.1


def circle_system(transpose):
    """Q = R/lambda (or R^T/lambda) and the response forcing of the record it solves, n = 64."""
    family = trig_perturbed_family(sin_coeffs=(1.0,))
    weight = trig_weight(0.5, (), (0.1,))
    lmat = assemble_operator(family, weight, 0.2, 64)
    data = spectral_data(lmat)
    rmat = residual_matrix(lmat, data)
    dop = dense_d_u_operator(family, weight, 0.2, 1.0, 64)
    if transpose:
        forced = dop.T @ data.ell
        forced = forced - float(forced @ data.phi) * data.ell
        return (lambda z: rmat.T @ z / data.lam), forced / data.lam
    forced = dop @ data.phi
    return (lambda z: rmat @ z / data.lam), (forced - (data.ell @ forced) * data.phi) / data.lam


def route_system():
    """The renormalized map's Q0 and P0 at its fixed point, normalized by ell as on the CLI."""
    family = trig_perturbed_family(sin_coeffs=(1.0,))
    weight = geometric_weight(family)
    data = spectral_data(assemble_operator(family, weight, 0.1, 64))
    fmap = normalized_map(family, weight, data.ell, 64)
    return fmap.q_product([0.1], data.phi), fmap.p_product([0.1], data.phi)([1.0])


def composition_system(base):
    """The composition map's Q0 at the fixed point of u0 = base(t), m = 257, and P0 sin."""
    m = 257
    ts = interval_nodes(m)
    fmap = composition_map(CompositionMapConfig(resolution=m))
    phi = solve_fixed_point(fmap, base(ts), np.zeros(m), tol=1e-13).phi_star
    return fmap.q_product(base(ts), phi), fmap.p_product(base(ts), phi)(np.sin(3.0 * ts))


def affine_system():
    """The affine map's Q0 at u = 0.1, m = 257, and its P0 h."""
    cfg = AffineMapConfig(g=lambda t, u: 0.3 * u * np.cos(t), g_du=lambda t, u: 0.3 * np.cos(t),
                          epsilon=0.3, resolution=257)
    fmap = affine_map(cfg)
    phi = solve_fixed_point(fmap, [0.1], np.zeros(257), tol=1e-13).phi_star
    return fmap.q_product([0.1], phi), fmap.p_product([0.1], phi)([1.0])


SYSTEMS = {
    "circle": lambda: circle_system(False),
    "circle-transpose": lambda: circle_system(True),
    "route": route_system,
    "composition-at-zero": lambda: composition_system(np.zeros_like),
    "composition-nonlinear":
        lambda: composition_system(lambda t: 0.1 * t + 0.05 * np.sin(2.0 * t)),
    "affine": affine_system,
}


# The checked solve against the dense inverse, relative in the sup norm:
# measured at most 5.8e-15 over the systems below, with their forcings and a
# generic right-hand side.
SOLVE_VS_INVERSE = 2e-14


class TestCheckedSolveOnEverySystem:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_agrees_with_the_dense_inverse(self, name):
        q, forcing = SYSTEMS[name]()
        n = forcing.size
        inverse = np.linalg.inv(np.eye(n) - dense_of(q, n))  # the oracle, built in the test
        generic = np.random.default_rng(43).standard_normal(n)
        for b in (forcing, generic):
            ref = inverse @ b
            assert sup_norm(_checked_solve(q, b) - ref) <= SOLVE_VS_INVERSE * sup_norm(ref)
        assert np.array_equal(_checked_solve(q, np.zeros(n)), np.zeros(n))


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "circleresp").glob("*.py"))
# Dense solves and the identity a dense system is built from: none in the library.
DENSE = ("linalg.inv", "linalg.solve", "linalg.pinv", "np.eye", "numpy.eye")
# Small dense problems, allowed only inside the checked solve (its Hessenberg problem).
SMALL = ("linalg.lstsq", "linalg.qr")


def dotted_name(node):
    """The dotted name of an expression such as np.linalg.inv, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def library_calls():
    """(file, enclosing top-level function, dotted name, line) of every library call."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and dotted_name(node.func):
                    found.append((path.name, owner, dotted_name(node.func), node.lineno))
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    for alias in node.names:
                        found.append((path.name, owner, f"{node.module}.{alias.name}",
                                      node.lineno))
    return found


class TestOneCheckedLinearSolve:
    def test_no_dense_solve_and_small_problems_only_in_the_checked_solve(self):
        calls = library_calls()
        dense = [c for c in calls if c[2].endswith(DENSE)]
        small = [c for c in calls if c[2].endswith(SMALL)]
        assert dense == []
        assert small and all(c[:2] == ("fixed_point.py", "_checked_solve") for c in small), small
