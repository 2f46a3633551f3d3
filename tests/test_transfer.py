import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from circleresp import (
    ConsistencyError,
    DualFunctional,
    GridFunction,
    MaxIterExceededError,
    NoSpectralGapError,
    NonPositiveEigenfunctionError,
    NotExpandingError,
    assemble_operator,
    certify_family,
    check_expanding,
    circle_nodes,
    constant_weight,
    cr_norm,
    d_u_operator,
    doubling_family,
    exp_scaled_weight,
    fit_loglog,
    fit_semilog,
    fixed_point_derivative,
    geometric_weight,
    gibbs_measure,
    holder_scan_operator,
    inverse_branches,
    lambda_derivative,
    linear_response,
    measure_response,
    normalized_map,
    pressure_s_derivative,
    pressure_s_derivatives,
    solve_fixed_point,
    spectral_data,
    sup_norm,
    trig_perturbed_family,
    trig_weight,
    twisted_weight,
)
from circleresp import cli, config, spaces, transfer

PERTURBED = trig_perturbed_family(sin_coeffs=(1.0,))
DOUBLING = doubling_family()


def dense_response_parts(family, g, u0, h, n):
    """Reference: the response with the dense d_u L kept alive, solved by the inverse route."""
    data = spectral_data(assemble_operator(family, g, u0, n))
    dop = d_u_operator(family, g, u0, h, n)
    phi = data.phi.samples
    forced = dop @ phi
    rhs = (forced - float(data.ell.weights @ forced) * phi) / data.lam
    inverse = np.linalg.inv(np.eye(n) - data.r / data.lam)
    return data, dop, inverse, inverse @ rhs


def dense_weighted_sigma(r, lam, power):
    """The spectral-gap bound by its definition, and its rounding term.

    T holds the cosines of modes 0..n/2 and the sines of modes 1..n/2-1 at
    the nodes, W weights mode j by e^(a j); the bound is
    ||(W T M T^-1 W^-1)^power||_1^(1/power) plus e^(a n/2) n eps ||T M T^-1||_1
    for M = R/lambda.
    """
    n = r.shape[0]
    cos_modes = np.arange(n // 2 + 1)
    sin_modes = cos_modes[1:-1]
    angles = 2 * np.pi * circle_nodes(n)
    t = np.vstack([np.cos(np.outer(cos_modes, angles)), np.sin(np.outer(sin_modes, angles))])
    rate = min(transfer._MAX_WEIGHT_RATE, transfer._MAX_LOG_WEIGHT / (n // 2))
    w = np.exp(rate * np.concatenate([cos_modes, sin_modes]))
    coef = t @ (r / lam) @ np.linalg.inv(t)
    rounding = np.exp(rate * (n // 2)) * n * np.finfo(float).eps * np.linalg.norm(coef, 1)
    weighted = np.linalg.matrix_power(w[:, None] * coef / w, power)
    return float(np.linalg.norm(weighted, 1) ** (1.0 / power)) + rounding, rounding


def bench_like_family(rng, weight_kind):
    """A certified degree-2 trig family and weight drawn as the benchmark draws them.

    1-3 map modes scaled so that |dT/dx| >= 1.7 on |u| <= 0.7; the weight is
    geometric, or 0.5 plus 1-2 trig modes of summed amplitude below 0.3.
    """
    modes = int(rng.integers(1, 4))
    sin_c, cos_c = rng.standard_normal(modes), rng.standard_normal(modes)
    scale = 0.3 / 0.7 * rng.uniform(0.5, 1.0) / (np.abs(sin_c).sum() + np.abs(cos_c).sum())
    family = trig_perturbed_family(2, sin_c * scale, cos_c * scale)
    if weight_kind == "geometric":
        weight = geometric_weight(family)
    else:
        wmodes = int(rng.integers(1, 3))
        wsin, wcos = rng.standard_normal(wmodes), rng.standard_normal(wmodes)
        wscale = 0.5 * rng.uniform(0.2, 0.6) / (np.abs(wsin).sum() + np.abs(wcos).sum())
        weight = trig_weight(0.5, wsin * wscale, wcos * wscale)
    return family, weight, float(rng.uniform(-0.4, 0.4))


def random_trig(rng, n, degree=4):
    xs = circle_nodes(n)
    vals = np.full(n, rng.standard_normal())
    for m in range(1, degree + 1):
        vals += rng.standard_normal() / m * np.sin(2 * np.pi * m * xs)
        vals += rng.standard_normal() / m * np.cos(2 * np.pi * m * xs)
    return vals


class TestInverseBranches:
    def test_doubling_at_zero(self):
        ys = inverse_branches(DOUBLING, [0.0], 0.0)
        assert np.allclose(np.sort(ys), [0.0, 0.5], atol=1e-14)

    def test_doubling_at_half(self):
        ys = inverse_branches(DOUBLING, [0.0], 0.5)
        assert np.allclose(np.sort(ys), [0.25, 0.75], atol=1e-14)

    def test_perturbed_vs_bisection_oracle(self):
        u = np.array([0.1])
        x = 0.3

        def lift(y):
            return float(PERTURBED.forward(u, np.array([y]))[0])

        ys = np.sort(inverse_branches(PERTURBED, u, x))
        # oracle: root-bracketing on each monotone lift interval
        for k, y_newton in enumerate(ys):
            y_oracle = brentq(lambda y: lift(y) - (x + k), -0.25, 1.25, xtol=1e-15)
            assert abs(y_newton - y_oracle) < 1e-12

    def test_branch_residuals(self):
        u = np.array([0.4])
        xs = circle_nodes(64)
        ys = inverse_branches(PERTURBED, u, xs)
        for k in range(2):
            resid = PERTURBED.forward(u, ys[k]) - (xs + np.ceil(-xs - 1e-12) + k)
            # target offsets were recomputed here; just check T(y) = x mod 1
            frac = np.abs(((PERTURBED.forward(u, ys[k]) - xs) + 0.5) % 1.0 - 0.5)
            assert np.max(frac) < 1e-12


class TestAssembleOperator:
    def test_doubling_half_weight_row_sums(self):
        lmat = assemble_operator(DOUBLING, constant_weight(0.5), [0.0], 64)
        assert np.max(np.abs(lmat @ np.ones(64) - 1.0)) < 1e-13

    def test_doubling_unit_weight_doubles(self):
        lmat = assemble_operator(DOUBLING, constant_weight(1.0), [0.0], 32)
        assert np.max(np.abs(lmat @ np.ones(32) - 2.0)) < 1e-12

    def test_duality_for_geometric_weight(self):
        # quadrature check of the pushforward identity: mean(L phi) = mean(phi)
        rng = np.random.default_rng(31)
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.35], n)
        leb = np.full(n, 1.0 / n)
        for _ in range(5):
            phi = random_trig(rng, n)
            assert abs(leb @ (lmat @ phi) - leb @ phi) < 1e-11

    def test_exactness_on_low_degree_modes(self):
        # oracle: evaluate the branch sum with exact trig values
        n = 64
        u = np.array([0.2])
        g = geometric_weight(PERTURBED)
        lmat = assemble_operator(PERTURBED, g, u, n)
        xs = circle_nodes(n)
        ys = inverse_branches(PERTURBED, u, xs)
        phi = np.sin(2 * np.pi * xs)
        oracle = sum(
            g.value(u, ys[k]) * np.sin(2 * np.pi * ys[k]) for k in range(2)
        )
        assert np.max(np.abs(lmat @ phi - oracle)) < 1e-12


def whole_matrix_operator(family, g, u, n):
    """Reference: the branch sum of assemble_operator with each branch added as a whole n x n product."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros((n, n))
    for yb in inverse_branches(family, u, circle_nodes(n)):
        out += g.value(u, yb)[:, None] * spaces.interpolation_matrix(yb, n)
    return out


class TestAssembleOperatorRowBlocks:
    @pytest.mark.parametrize("n", [32, 200])
    @pytest.mark.parametrize("weight", [
        geometric_weight(PERTURBED),
        trig_weight(0.5, (0.2,), (0.1,)),
    ])
    def test_bitwise_equal_to_the_whole_matrix_form(self, n, weight):
        # n = 200 leaves a partial last block
        assert np.array_equal(assemble_operator(PERTURBED, weight, [0.2], n),
                              whole_matrix_operator(PERTURBED, weight, [0.2], n))

    def test_peaks_near_its_result_beyond_the_memo(self):
        n = 256
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, [0.2], n)  # warm the branch memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lmat = assemble_operator(PERTURBED, g, [0.2], n)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * lmat.itemsize
        assert peak - before <= 1.2 * matrix
        assert current - before <= 1.1 * matrix


@pytest.fixture
def branch_builds(monkeypatch):
    """Cold branch memo, and the list of resolutions interpolation_matrix was built at."""
    transfer._BRANCH_MEMO.clear()
    builds = []

    def counting(points, n):
        builds.append(n)
        return spaces.interpolation_matrix(points, n)

    monkeypatch.setattr(transfer, "interpolation_matrix", counting)
    yield builds
    transfer._BRANCH_MEMO.clear()


CLI_CFG = """\
seed = 7
resolution = 32
map.degree = 2
map.sin = 0.2
map.cos = 0.1
param_box = 0.7
weight.kind = geometric
u0 = 0.15
"""


class TestBranchInterpolationReuse:
    N = 32
    U = np.array([0.2])

    def test_cold_and_warm_memo_agree_bitwise(self, branch_builds):
        g = geometric_weight(PERTURBED)
        cold_op = assemble_operator(PERTURBED, g, self.U, self.N)
        warm_du = d_u_operator(PERTURBED, g, self.U, [1.0], self.N)
        assert len(branch_builds) == PERTURBED.degree
        transfer._BRANCH_MEMO.clear()
        cold_du = d_u_operator(PERTURBED, g, self.U, [1.0], self.N)
        warm_op = assemble_operator(PERTURBED, g, self.U, self.N)
        assert len(branch_builds) == 2 * PERTURBED.degree
        assert np.array_equal(cold_op, warm_op)
        assert np.array_equal(cold_du, warm_du)
        # the memoized matrices are the ones a fresh build gives
        ys = inverse_branches(PERTURBED, self.U, circle_nodes(self.N))
        direct = np.zeros((self.N, self.N))
        for yb in ys:
            direct += g.value(self.U, yb)[:, None] * spaces.interpolation_matrix(yb, self.N)
        assert np.array_equal(warm_op, direct)

    def test_memo_holds_one_read_only_branch_set(self, branch_builds):
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, [0.1], self.N)
        assemble_operator(PERTURBED, g, self.U, self.N)
        ys = inverse_branches(PERTURBED, self.U, circle_nodes(self.N))
        assert list(transfer._BRANCH_MEMO) == [(self.N, ys.tobytes())]
        mats = transfer._BRANCH_MEMO[(self.N, ys.tobytes())]
        assert len(mats) == PERTURBED.degree
        for mat in mats:
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    @pytest.mark.parametrize("kind, extra, most", [
        ("pressure-check", "observable.count = 2\n", 2),
        ("solve", "", 2),
        ("response", "", 6),
    ])
    def test_cli_kinds_build_each_branch_set_once(self, branch_builds, tmp_path, kind,
                                                  extra, most):
        # degree 2, and a cold memo builds all branches at once: pressure-check
        # and solve assemble at one u only; response finishes all its work at
        # u0 (spectral and route-equivalence) before it moves to u0 +- fd_delta
        path = tmp_path / "experiment.cfg"
        path.write_text(f"kind = {kind}\n" + CLI_CFG + extra, encoding="utf-8")
        assert cli.run_experiment(config.load_config(path), tmp_path / "out").passed
        assert 0 < len(branch_builds) <= most


class TestSpectralData:
    def test_doubling_geometric_analytic(self):
        n = 64
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), [0.0], n))
        assert abs(data.lam - 1.0) < 1e-12
        assert np.max(np.abs(data.phi.samples - 1.0)) < 1e-9
        assert np.max(np.abs(data.ell.weights - 1.0 / n)) < 1e-9
        assert data.sigma_estimate <= 0.51

    def test_doubling_unit_weight(self):
        data = spectral_data(assemble_operator(DOUBLING, constant_weight(1.0), [0.0], 32))
        assert abs(data.lam - 2.0) < 1e-11
        assert np.max(np.abs(data.phi.samples - 1.0)) < 1e-9

    def test_projector_identities(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        pi, r = np.outer(data.phi.samples, data.ell.weights), data.r
        assert np.max(np.abs(pi @ pi - pi)) < 1e-10
        assert np.max(np.abs(pi @ r)) < 1e-9
        assert np.max(np.abs(r @ pi)) < 1e-9
        assert np.max(np.abs(lmat - data.lam * pi - r)) < 1e-12
        assert data.eigen_residual < 1e-9
        assert np.min(data.phi.samples) > 0.0
        assert abs(data.ell.weights @ data.phi.samples - 1.0) < 1e-12

    def test_bitwise_equal_to_one_line_forms(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        phi, ell, lam = data.phi.samples, data.ell.weights, data.lam
        assert np.array_equal(data.r, lmat - lam * np.outer(phi, ell))
        # The two forms round differently, and the weights amplify that by up
        # to e^(a n/2) (e^16 here): the bound already adds that rounding term.
        dense, rounding = dense_weighted_sigma(data.r, lam, data.sigma_power)
        assert abs(data.sigma_estimate - dense) <= 1e-2 * rounding

    def test_holds_one_matrix_and_peaks_at_three(self):
        # R is the only n x n array kept; the sigma bound needs R and two
        # (n+2) x (n+2) buffers (the one-line forms peaked at 6 and kept 2)
        n = 256
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = spectral_data(lmat)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * lmat.itemsize
        assert data.sigma_estimate < 1.0
        assert peak - before <= 3.5 * matrix
        assert current - before <= 1.5 * matrix

    def test_normalization_against_reference(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        ref = DualFunctional.lebesgue(n)
        data = spectral_data(lmat, ell_ref=ref)
        assert abs(ref.weights @ data.phi.samples - 1.0) < 1e-12

    def test_unconverged_power_iteration_raises(self):
        # column-stochastic, eigenvalues 1 and 0.9995: about 42 000 steps to converge
        lmat = np.array([[0.9998, 0.0003], [0.0002, 0.9997]])
        with pytest.raises(MaxIterExceededError, match="final increment"):
            spectral_data(lmat)

    def test_sign_changing_leading_vector_rejected(self):
        lmat = np.diag([0.5] * 7 + [-2.0])
        with pytest.raises(NonPositiveEigenfunctionError):
            spectral_data(lmat)

    def test_spectral_decay_fit(self):
        # strong perturbation mixes modes enough for a clean geometric fit
        family = trig_perturbed_family(sin_coeffs=(1.0, 0.6))
        n = 128
        data = spectral_data(assemble_operator(family, geometric_weight(family), [0.9], n))
        rng = np.random.default_rng(7)
        v = rng.standard_normal(n)
        norms = []
        for _ in range(30):
            v = data.r @ v / data.lam
            norms.append(sup_norm(v))
        fit = fit_semilog(np.arange(1, 31), norms)
        sigma = float(np.exp(fit.slope))
        assert sigma < 0.9
        assert fit.r_squared > 0.99

    def test_resolution_convergence(self):
        family = PERTURBED
        weight = trig_weight(0.5, (), (0.1,))
        lam64 = spectral_data(assemble_operator(family, weight, [0.3], 64)).lam
        d128 = spectral_data(assemble_operator(family, weight, [0.3], 128))
        assert abs(lam64 - d128.lam) < 1e-10
        phi64 = spectral_data(assemble_operator(family, weight, [0.3], 64),
                              ell_ref=DualFunctional.lebesgue(64)).phi.samples
        phi128 = d128.phi.samples
        phi128 = phi128 / (np.mean(phi128))  # same Lebesgue normalization
        assert np.max(np.abs(phi64 - phi128[::2])) < 1e-8


def two_mode_operator(n, lam, second, coupling=0.0):
    """lam (Pi + R) with Pi = <1/n, .> 1 and R = second on cos 2 pi x and cos 4 pi x.

    ``coupling`` adds cos 4 pi x -> cos 2 pi x, a Jordan-like transient:
    in the Fourier coefficients R is [[second, coupling], [0, second]].
    The ones vector is exactly the leading eigenvector, with eigenvalue lam.
    """
    x = circle_nodes(n)
    f1, f2 = np.cos(2 * np.pi * x), np.cos(4 * np.pi * x)
    r = second * (np.outer(f1, f1) + np.outer(f2, f2)) + coupling * np.outer(f1, f2)
    return lam * (np.full((n, n), 1.0 / n) + 2.0 / n * r)


class TestSpectralGapBound:
    @pytest.mark.parametrize("n", [16, 32])
    def test_equals_the_dense_weighted_form(self, n):
        # weights up to e^(n/4): the two forms agree to 1e-12 while that
        # amplification stays small
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        dense, _ = dense_weighted_sigma(data.r, data.lam, data.sigma_power)
        assert data.sigma_power == 4
        assert abs(data.sigma_estimate - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("weight_kind", ["geometric", "trig"])
    def test_bounds_the_subdominant_ratio(self, n, weight_kind):
        rng = np.random.default_rng(4078 + n + len(weight_kind))
        for _ in range(4):
            family, weight, u0 = bench_like_family(rng, weight_kind)
            data = spectral_data(assemble_operator(family, weight, [u0], n))
            rho = np.max(np.abs(np.linalg.eigvals(data.r / data.lam)))
            assert rho <= data.sigma_estimate < 1.0

    def test_independent_of_the_resolution_at_one_weight_rate(self, monkeypatch):
        # The default rate min(0.5, 40/n) is 0.156 at n = 256 and 0.039 at
        # n = 1024; held at 0.039 for both, the bound is one of the operator
        # on analytic functions, not of the grid.
        monkeypatch.setattr(transfer, "_MAX_WEIGHT_RATE", 40.0 / 1024)
        family = trig_perturbed_family(2, (0.25, -0.05), (0.1,))
        weight = trig_weight(0.5, (0.1,), (0.05,))
        sigmas = [spectral_data(assemble_operator(family, weight, [0.2], n)) for n in (256, 1024)]
        assert [data.sigma_power for data in sigmas] == [4, 4]
        assert abs(sigmas[0].sigma_estimate - sigmas[1].sigma_estimate) <= 1e-3

    def test_second_eigenvalue_near_lambda_raises(self):
        with pytest.raises(NoSpectralGapError, match="at power 32"):
            spectral_data(two_mode_operator(16, 2.0, 0.9995))

    def test_transient_certifies_at_a_later_power(self):
        # With coupling c' = 0.13 after weighting, ||J^k||_1 = k c' r^(k-1) + r^k
        # is 1.0087 at k = 4 and 0.9907 at k = 8.
        n, r = 16, 0.9
        rate = min(transfer._MAX_WEIGHT_RATE, transfer._MAX_LOG_WEIGHT / (n // 2))
        data = spectral_data(two_mode_operator(n, 1.5, r, 0.13 * np.exp(rate)))
        assert data.sigma_power == 8
        assert data.sigma_estimate == pytest.approx((8 * 0.13 * r**7 + r**8) ** (1 / 8), abs=1e-9)
        assert data.sigma_estimate == pytest.approx(
            dense_weighted_sigma(data.r, data.lam, 8)[0], rel=1e-12)


class TestNormalizedMap:
    def test_q_at_fixed_point_is_scaled_remainder(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        qmat = fmap.q_matrix(np.array([0.3]), data.phi.samples)
        target = lmat / data.lam - np.outer(data.phi.samples, data.ell.weights)
        assert np.max(np.abs(qmat - target)) < 1e-10
        assert np.max(np.abs(target - data.r / data.lam)) < 1e-12

    def test_eigenvector_is_fixed_point(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        image = fmap.apply(np.array([0.3]), data.phi.samples)
        assert sup_norm(image - data.phi.samples) < 1e-12

    def test_iterate_identity(self):
        # F^k(u, phi) = L^k phi / <l, L^k phi>
        rng = np.random.default_rng(37)
        n = 64
        u = np.array([0.3])
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), u, n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        phi = 1.5 + 0.3 * np.abs(random_trig(rng, n))
        iterated = phi.copy()
        for _ in range(3):
            iterated = fmap.apply(u, iterated)
        powered = np.linalg.matrix_power(lmat, 3) @ phi
        powered /= data.ell.weights @ powered
        assert sup_norm(iterated - powered) < 1e-11

    def test_picard_solve_converges_to_eigenvector(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        result = solve_fixed_point(fmap, np.array([0.3]), np.ones(n), tol=1e-12)
        assert sup_norm(result.phi_star - data.phi.samples) < 1e-10
        assert result.contraction_estimate < 1.0


class TestDuOperator:
    def test_u_independent_family_zero(self):
        dop = d_u_operator(DOUBLING, constant_weight(0.5), [0.0], [1.0], 32)
        assert np.max(np.abs(dop)) == 0.0

    def test_weight_linear_in_u(self):
        # g(u, x) = 1/2 + u c(x): the derivative operator assembles weight c
        def base_weight(u, y):
            return 0.5 + float(u[0]) * np.cos(2 * np.pi * y)

        from circleresp import Weight

        g = Weight(
            value=base_weight,
            du_value=lambda u, y: np.cos(2 * np.pi * y)[:, None],
            dx_value=lambda u, y: -2 * np.pi * float(u[0]) * np.sin(2 * np.pi * y),
        )
        n = 32
        dop = d_u_operator(DOUBLING, g, [0.1], [1.0], n)
        oracle = assemble_operator(DOUBLING, trig_weight(2.0, (), (1.0,)), [0.0], n)
        oracle -= assemble_operator(DOUBLING, constant_weight(2.0), [0.0], n)
        # trig_weight(2 + cos) minus constant 2 leaves the pure cos weight; both
        # oracle weights are positive, as assemble_operator requires
        assert np.max(np.abs(dop - oracle)) < 1e-12

    def test_matches_finite_differences(self):
        n = 64
        u0 = np.array([0.2])
        g = geometric_weight(PERTURBED)
        dop = d_u_operator(PERTURBED, g, u0, [1.0], n)
        delta = 1e-5
        plus = assemble_operator(PERTURBED, g, u0 + delta, n)
        minus = assemble_operator(PERTURBED, g, u0 - delta, n)
        fd = (plus - minus) / (2 * delta)
        assert np.max(np.abs(dop - fd)) < 1e-7


def per_term_d_u_operator(family, g, u, h, n):
    """Reference: d_u L . h with each branch term added as a whole n x n product."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    out = np.zeros((n, n))
    for yb in inverse_branches(family, u, circle_nodes(n)):
        interp = spaces.interpolation_matrix(yb, n)
        if family.du_forward is not None:
            du_t = family.du_forward(u, yb) @ h
            if np.any(du_t != 0.0):
                branch_motion = -du_t / family.dx_forward(u, yb)
                if g.dx_value is not None:
                    out += (branch_motion * g.dx_value(u, yb))[:, None] * interp
                out += ((branch_motion * g.value(u, yb))[:, None]
                        * spaces.interpolation_derivative_matrix(yb, n))
        if g.du_value is not None:
            out += (g.du_value(u, yb) @ h)[:, None] * interp
    return out


class TestDuOperatorRowBlocks:
    @pytest.mark.parametrize("n", [32, 200])
    @pytest.mark.parametrize("weight", [
        geometric_weight(PERTURBED),
        trig_weight(0.5, (0.2,), (0.1,)),
        exp_scaled_weight(0.5, 1.0),
    ])
    def test_bitwise_equal_to_the_per_term_form(self, n, weight):
        # n = 200 leaves a partial last block
        assert np.array_equal(d_u_operator(PERTURBED, weight, [0.2], [1.0], n),
                              per_term_d_u_operator(PERTURBED, weight, [0.2], [1.0], n))

    def test_peaks_near_its_result_beyond_the_memo(self):
        n = 256
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, [0.2], n)  # warm the branch memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dop = d_u_operator(PERTURBED, g, [0.2], [1.0], n)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * dop.itemsize
        assert peak - before <= 2.2 * matrix
        assert current - before <= 1.1 * matrix


class TestLinearResponse:
    def test_u_independent_family_zero_response(self):
        resp = linear_response(DOUBLING, constant_weight(0.5), [0.0], [1.0], 32)
        assert sup_norm(resp.samples) < 1e-12

    def test_matches_eigenfunction_finite_differences(self):
        n = 64
        g = geometric_weight(PERTURBED)
        delta = 1e-4

        def response_and_fd(u0):
            resp = linear_response(PERTURBED, g, [u0], [1.0], n).samples
            base = spectral_data(assemble_operator(PERTURBED, g, [u0], n))
            plus = spectral_data(assemble_operator(PERTURBED, g, [u0 + delta], n),
                                 ell_ref=base.ell).phi.samples
            minus = spectral_data(assemble_operator(PERTURBED, g, [u0 - delta], n),
                                  ell_ref=base.ell).phi.samples
            return resp, (plus - minus) / (2 * delta)

        # At u0 = 0 the map is doubling with weight 1/2 and the forcing
        # -1/4 sum_b cos(2 pi y_b) vanishes: the true response is 0, so check
        # absolutely that it is at rounding level and the central difference
        # is within its O(delta^2) truncation.
        resp, fd = response_and_fd(0.0)
        assert sup_norm(resp) < 1e-12
        assert sup_norm(resp - fd) < delta**2
        # Where the response is non-zero the relative check applies.
        resp, fd = response_and_fd(0.2)
        assert sup_norm(resp) > 1e-2
        assert sup_norm(resp - fd) / sup_norm(resp) < 1e-4

    def test_response_annihilated_by_reference_functional(self):
        n = 64
        g = geometric_weight(PERTURBED)
        resp = linear_response(PERTURBED, g, [0.1], [1.0], n).samples
        base = spectral_data(assemble_operator(PERTURBED, g, [0.1], n))
        assert abs(base.ell.weights @ resp) < 1e-12

    def test_route_equivalence(self):
        # response formula == resolvent derivative of the renormalized map
        n = 64
        u0 = np.array([0.1])
        g = geometric_weight(PERTURBED)
        resp = linear_response(PERTURBED, g, u0, [1.0], n).samples
        base = spectral_data(assemble_operator(PERTURBED, g, u0, n))
        fmap = normalized_map(PERTURBED, g, base.ell, n)
        phi0 = base.phi.samples
        alt = fixed_point_derivative(fmap.p_matrix(u0, phi0), fmap.q_matrix(u0, phi0), [1.0])
        assert sup_norm(resp - alt) < 1e-9


class TestLambdaDerivative:
    def test_u_independent_family(self):
        assert lambda_derivative(DOUBLING, constant_weight(0.5), [0.0], [1.0], 32) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_exponentially_scaled_weight(self):
        # L_u = e^u L_0 scales the eigenvalue exactly, so dlambda/du = lambda
        d = lambda_derivative(DOUBLING, exp_scaled_weight(0.5, 1.0), [0.0], [1.0], 32)
        assert abs(d - 1.0) < 1e-8

    def test_generic_family_vs_richardson(self):
        n = 64
        g = geometric_weight(PERTURBED)
        weight = trig_weight(0.5, (), (0.1,))
        u0 = np.array([0.2])
        d = lambda_derivative(PERTURBED, weight, u0, [1.0], n)

        def lam(u):
            return spectral_data(assemble_operator(PERTURBED, weight, [u], n)).lam

        def central(step):
            return (lam(0.2 + step) - lam(0.2 - step)) / (2 * step)

        fd = (4.0 * central(1e-4) - central(2e-4)) / 3.0
        assert abs(d - fd) / max(1.0, abs(fd)) < 1e-5

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_bitwise_equal_to_dense_derivative_form(self, weight):
        n = 64
        data, dop, _, response = dense_response_parts(PERTURBED, weight, [0.2], [1.0], n)
        dense = float(data.ell.weights @ (dop @ data.phi.samples))
        assert lambda_derivative(PERTURBED, weight, [0.2], [1.0], n) == dense
        assert np.array_equal(linear_response(PERTURBED, weight, [0.2], [1.0], n).samples,
                              response)

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_dropped_term_is_at_rounding_level(self, weight):
        # lambda' omits <ell_0, L_0 phi'>, which is lambda <ell_0, phi'> = 0 by
        # the normalization; computed, it is within n eps ||ell_0||_1 ||L_0 phi'||_inf
        n = 64
        lmat = assemble_operator(PERTURBED, weight, [0.2], n)
        wts = spectral_data(lmat).ell.weights
        moved = lmat @ linear_response(PERTURBED, weight, [0.2], [1.0], n).samples
        scale = np.abs(wts).sum() * sup_norm(moved)
        assert scale > 1e-3
        assert abs(float(wts @ moved)) <= n * np.finfo(float).eps * scale


class TestGibbsMeasure:
    def test_normalization(self):
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), [0.0], 32))
        one = GridFunction.constant(1.0, 32)
        assert gibbs_measure(data, one) == pytest.approx(1.0, abs=1e-12)

    def test_lebesgue_mean_zero(self):
        n = 32
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), [0.0], n))
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        assert abs(gibbs_measure(data, f)) < 1e-12

    def test_positivity(self):
        n = 64
        data = spectral_data(assemble_operator(PERTURBED, geometric_weight(PERTURBED), [0.3], n))
        f = GridFunction.from_callable(lambda x: 0.5 + 0.5 * np.cos(2 * np.pi * x) ** 2, n)
        assert gibbs_measure(data, f) > 0.0


class TestPressureDerivative:
    def test_constant_observable(self):
        n = 32
        c = 0.7
        obs = GridFunction.constant(c, n)
        d = pressure_s_derivative(DOUBLING, geometric_weight(DOUBLING), [0.0], obs, n)
        assert abs(d - c) < 1e-10

    def test_lebesgue_mean_zero_observable(self):
        n = 32
        obs = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        d = pressure_s_derivative(DOUBLING, geometric_weight(DOUBLING), [0.0], obs, n)
        assert abs(d) < 1e-8

    def test_identity_for_random_observables(self):
        rng = np.random.default_rng(41)
        n = 64
        g = geometric_weight(PERTURBED)
        data = spectral_data(assemble_operator(PERTURBED, g, [0.3], n))
        for _ in range(3):
            obs = GridFunction(random_trig(rng, n, degree=3))
            d = pressure_s_derivative(PERTURBED, g, [0.3], obs, n)
            m = gibbs_measure(data, obs)
            assert abs(d - m) / max(1.0, abs(m)) < 1e-6


def per_observable_pressure(family, g, u, observable, n, delta=1e-4):
    """Four twisted decompositions and one decomposition of the base, per observable."""

    def log_lam(s):
        weight = twisted_weight(g, s, observable)
        return float(np.log(spectral_data(assemble_operator(family, weight, u, n)).lam))

    derivative = (8.0 * (log_lam(delta) - log_lam(-delta))
                  - (log_lam(2 * delta) - log_lam(-2 * delta))) / (12.0 * delta)
    gibbs = gibbs_measure(spectral_data(assemble_operator(family, g, u, n)), observable)
    return derivative, gibbs


@pytest.fixture
def decompositions(monkeypatch):
    """Count of spectral_data calls through transfer and cli."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return spectral_data(*args, **kwargs)

    monkeypatch.setattr(transfer, "spectral_data", counting)
    monkeypatch.setattr(cli, "spectral_data", counting)
    return calls


class TestPressureDerivatives:
    N = 32
    U = np.array([0.3])

    def observables(self):
        rng = np.random.default_rng(43)
        return [GridFunction(random_trig(rng, self.N, degree=3)) for _ in range(3)]

    def test_pairs_equal_the_per_observable_form(self):
        g = trig_weight(0.5, (0.2,), (0.1,))
        observables = self.observables()
        pairs = pressure_s_derivatives(PERTURBED, g, self.U, observables, self.N)
        assert pairs == [per_observable_pressure(PERTURBED, g, self.U, obs, self.N)
                         for obs in observables]
        assert [pressure_s_derivative(PERTURBED, g, self.U, obs, self.N)
                for obs in observables] == [d for d, _ in pairs]

    def test_base_is_decomposed_once(self, decompositions):
        observables = self.observables()
        pressure_s_derivatives(PERTURBED, geometric_weight(PERTURBED), self.U, observables,
                               self.N)
        assert len(decompositions) == 1 + 4 * len(observables)

    def test_cli_pressure_check_decomposes_nine_times(self, decompositions, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("kind = pressure-check\n" + CLI_CFG + "observable.count = 2\n",
                        encoding="utf-8")
        assert cli.run_experiment(config.load_config(path), tmp_path / "out").passed
        assert len(decompositions) == 9

    def test_identity_is_still_checked(self):
        with pytest.raises(ConsistencyError):
            pressure_s_derivatives(PERTURBED, geometric_weight(PERTURBED), self.U,
                                   self.observables(), self.N, identity_rtol=0.0)


class TestMeasureResponse:
    def test_constant_observable_is_stationary(self):
        n = 64
        g = geometric_weight(PERTURBED)
        one = GridFunction.constant(1.0, n)
        assert abs(measure_response(PERTURBED, g, [0.2], [1.0], one, n)) < 1e-10

    def test_u_independent_family(self):
        n = 32
        obs = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), n)
        assert abs(measure_response(DOUBLING, constant_weight(0.5), [0.0], [1.0], obs, n)) < 1e-12

    def test_matches_finite_differences(self):
        n = 64
        weight = trig_weight(0.5, (), (0.1,))
        obs = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + 0.2, n)
        u0 = 0.2
        d = measure_response(PERTURBED, weight, [u0], [1.0], obs, n)

        def m_at(u):
            data = spectral_data(assemble_operator(PERTURBED, weight, [u], n))
            return gibbs_measure(data, obs)

        delta = 1e-4
        fd = (m_at(u0 + delta) - m_at(u0 - delta)) / (2 * delta)
        assert abs(d - fd) / max(1.0, abs(fd)) < 1e-4

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_bitwise_equal_to_dense_derivative_form(self, weight):
        n = 64
        obs = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + 0.2, n)
        data, dop, inverse, phi_dot = dense_response_parts(PERTURBED, weight, [0.2], [1.0], n)
        lam, phi, wts = data.lam, data.phi.samples, data.ell.weights
        lam_dot = float(wts @ (dop @ phi))
        forced = dop.T @ wts - lam_dot * wts
        forced = forced - float(forced @ phi) * wts
        ell_dot = inverse.T @ (forced / lam)
        a = obs.samples
        dense = float(ell_dot @ (a * phi)) + float(wts @ (a * phi_dot))
        assert measure_response(PERTURBED, weight, [0.2], [1.0], obs, n) == dense


class TestOneFactorizationPerCheckedSystem:
    def test_inversions_and_assemblies_per_response_function(self, monkeypatch):
        n = 32
        weight = trig_weight(0.5, (), (0.1,))
        obs = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + 0.2, n)
        counts = {"inv": 0, "assemble": 0}
        real_inv, real_assemble = np.linalg.inv, transfer.assemble_operator

        def counting_inv(a):
            counts["inv"] += 1
            return real_inv(a)

        def counting_assemble(*args):
            counts["assemble"] += 1
            return real_assemble(*args)

        def no_solve(*args, **kwargs):
            raise AssertionError("a checked system was factored again by np.linalg.solve")

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        monkeypatch.setattr(transfer, "assemble_operator", counting_assemble)
        calls = {
            "measure_response": lambda: measure_response(PERTURBED, weight, [0.2], [1.0], obs, n),
            "lambda_derivative": lambda: lambda_derivative(PERTURBED, weight, [0.2], [1.0], n),
            "linear_response": lambda: linear_response(PERTURBED, weight, [0.2], [1.0], n),
        }
        seen = {}
        for name, call in calls.items():
            counts.update(inv=0, assemble=0)
            call()
            seen[name] = dict(counts)
        assert seen == {
            "measure_response": {"inv": 1, "assemble": 1},
            "lambda_derivative": {"inv": 0, "assemble": 1},
            "linear_response": {"inv": 1, "assemble": 1},
        }


class TestHolderScan:
    DELTAS = [2.0**-k for k in range(3, 9)]
    CLI_DELTAS = [2.0**-k for k in range(2, 10)]

    def test_near_cancelling_first_step_passes_enforced_gamma(self):
        # Benchmark reproducer (scan-256, seed 409, pass 0): u0 + 1/4 is close
        # to -u0, so phi barely moves at the first step.  A least-squares line
        # over the ladder fits 0.53 there, below gamma - 0.1 = 0.7.
        family = certify_family(trig_perturbed_family(
            2, (-0.3347848496236372,), (-0.06629194333260828,)), 0.7)
        report = holder_scan_operator(
            family, geometric_weight(family), [-0.1308254354295878], [[1.0]],
            self.CLI_DELTAS, 0.9, 0.1, 256, seed=1547520018, enforce_gamma=True,
        )
        fp_diffs = [r.fixed_point_diff for r in report.rows]
        assert fit_loglog(self.CLI_DELTAS, fp_diffs).slope < 0.7
        assert report.fixed_point_slopes[0] >= 0.8
        assert report.operator_slopes[0] == pytest.approx(1.0, abs=0.05)

    def test_slope_half_ladder_with_one_outlier_still_raises(self, monkeypatch):
        # Differences ~ delta^(1/2) fail gamma - 0.1 = 0.7.  One outlier at the
        # smallest step tilts a least-squares line up to 1.05, past the bound;
        # the median of the pairwise slopes stays at 1/2 and still raises.
        op_diffs = list(self.CLI_DELTAS)
        fp_diffs = [d ** 0.5 for d in self.CLI_DELTAS]
        fp_diffs[-1] *= 1e-2
        assert fit_loglog(self.CLI_DELTAS, fp_diffs).slope > 0.7
        values = iter([v for pair in zip(op_diffs, fp_diffs) for v in pair])
        monkeypatch.setattr(transfer, "cr_norm",
                            lambda *args, **kwargs: SimpleNamespace(value=next(values)))
        unit = GridFunction.from_callable(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), 32)
        with pytest.raises(ConsistencyError, match="0.5000 below"):
            holder_scan_operator(PERTURBED, geometric_weight(PERTURBED), [0.0], [[1.0]],
                                 self.CLI_DELTAS, 0.9, 0.1, 32, test_function=unit)

    def test_u_independent_family_not_fit(self):
        report = holder_scan_operator(
            DOUBLING, constant_weight(0.5), [0.0], [[1.0]], self.DELTAS, 0.9, 0.1, 32
        )
        assert report.operator_slopes[0] == float("inf")
        assert report.fixed_point_slopes[0] == float("inf")

    def test_smooth_family_slope_near_one(self):
        report = holder_scan_operator(
            PERTURBED, geometric_weight(PERTURBED), [0.0], [[1.0]], self.DELTAS,
            0.9, 0.1, 64,
        )
        assert report.operator_slopes[0] >= 0.7
        assert report.fixed_point_slopes[0] >= 0.7
        assert report.operator_slopes[0] == pytest.approx(1.0, abs=0.15)

    def test_kink_family_forces_exponent(self):
        # A non-constant, u-independent weight: with a constant weight 1/2
        # every degree-2 map has L1 = 1, so phi_u = 1 for all u.
        kink = trig_perturbed_family(sin_coeffs=(1.0,), kink_exponent=0.5)
        report = holder_scan_operator(
            kink, trig_weight(0.5, (0.2,)), [0.0], [[1.0]], self.DELTAS, 0.9, 0.1, 64,
            enforce_gamma=False,
        )
        assert 0.4 <= report.operator_slopes[0] <= 0.6
        assert 0.4 <= report.fixed_point_slopes[0] <= 0.6

    def test_kink_family_constant_weight_fixed_point_not_fit(self):
        # phi_u = 1 for every u: the fixed-point differences are rounding
        # noise and lie below the data-scaled floor, while the operator
        # differences still carry the |u|^(1/2) dependence.
        kink = trig_perturbed_family(sin_coeffs=(1.0,), kink_exponent=0.5)
        report = holder_scan_operator(
            kink, constant_weight(0.5), [0.0], [[1.0]], self.DELTAS, 0.9, 0.1, 64,
            enforce_gamma=False,
        )
        assert report.fixed_point_slopes[0] == float("inf")
        assert 0.4 <= report.operator_slopes[0] <= 0.6


class TestCheckExpanding:
    def test_doubling(self):
        assert check_expanding(DOUBLING, [[0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_perturbed_bound(self):
        us = [[u] for u in np.linspace(-0.5, 0.5, 11)]
        lam = check_expanding(PERTURBED, us, x_resolution=1024)
        assert lam == pytest.approx(1.5, abs=1e-3)

    def test_not_expanding(self):
        with pytest.raises(NotExpandingError):
            check_expanding(PERTURBED, [[2.0]], x_resolution=1024)
