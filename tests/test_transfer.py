import dataclasses
import importlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from circleresp import (
    ConsistencyError,
    MaxIterExceededError,
    NoSpectralGapError,
    NonPositiveEigenfunctionError,
    NotExpandingError,
    NumericsError,
    TrigSeries,
    Weight,
    assemble_operator,
    check_expanding,
    circle_nodes,
    constant_weight,
    cr_norm,
    d_u_operator,
    exp_scaled_weight,
    fixed_point_derivative,
    geometric_weight,
    gibbs_measure,
    holder_scan_operator,
    inverse_branches,
    linear_response,
    normalized_map,
    pressure_s_derivatives,
    solve_fixed_point,
    spectral_data,
    sup_norm,
    trig_perturbed_family,
    trig_weight,
    twisted_weight,
)
from circleresp import fixed_point
from circleresp import cli, config, spaces, transfer

PERTURBED = trig_perturbed_family(sin_coeffs=(1.0,))
DOUBLING = trig_perturbed_family(2, ())


def dense_response(family, g, u0, h, n):
    """Reference: the response with the dense d_u L kept alive, solved by the inverse route."""
    data = spectral_data(assemble_operator(family, g, u0, n))
    dop = d_u_operator(family, g, u0, h, n)
    phi = data.phi
    forced = dop @ phi
    rhs = (forced - float(data.ell @ forced) * phi) / data.lam
    inverse = np.linalg.inv(np.eye(n) - data.r / data.lam)
    return data, dop, inverse, inverse @ rhs


def dense_fitted_sigma(r, lam, power):
    """The spectral-gap bound by its definition, its rounding term and its first ratio.

    T holds the cosines of modes 0..n/2 and the sines of modes 1..n/2-1 at
    the nodes, and C = T M T^-1 for M = R/lambda.  v starts at the weights
    e^(a j) of mode j and takes _FIT_STEPS steps v <- |C^power|^T v, each
    clipped from below to max(v) e^(-a n/2).  The bound is the least
    max_j (|C^power|^T v)_j / v_j over those v, to the power 1/power, plus
    the rounding term e^(a n/2) n eps ||C||_1.  The ratio of the first v is
    the weighted norm ||W C^power W^-1||_1.
    """
    n = r.shape[0]
    cos_modes = np.arange(n // 2 + 1)
    sin_modes = cos_modes[1:-1]
    angles = 2 * np.pi * circle_nodes(n)
    t = np.vstack([np.cos(np.outer(cos_modes, angles)), np.sin(np.outer(sin_modes, angles))])
    rate = min(transfer._MAX_WEIGHT_RATE, transfer._MAX_LOG_WEIGHT / (n // 2))
    v = np.exp(rate * np.concatenate([cos_modes, sin_modes]))
    # T^-1 = T^T / |row|^2: the rows are orthogonal on the nodes, with squared
    # norm n for the constant and the Nyquist cosine and n/2 for the others
    squared_norms = np.full(n, n / 2.0)
    squared_norms[[0, n // 2]] = n
    coef = t @ (r / lam) @ (t.T / squared_norms)
    rounding = np.exp(rate * (n // 2)) * n * np.finfo(float).eps * np.linalg.norm(coef, 1)
    table = np.abs(np.linalg.matrix_power(coef, power)).T
    ratios = []
    for _ in range(transfer._FIT_STEPS + 1):
        image = table @ v
        ratios.append(np.max(image / v))
        v = np.maximum(image, np.max(image) * np.exp(-rate * (n // 2)))
    return float(min(ratios) ** (1.0 / power)) + rounding, rounding, float(ratios[0])


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


def bench_experiment(monkeypatch, workload, kind, n, weight_kind):
    """The first config of ``kind`` and ``weight_kind`` that the benchmark draws, at resolution n.

    It is read from the timed passes of ``workload`` at seed 1, as
    ``pass_experiments`` of ``bench/workloads.py`` writes them, so the test
    runs the configs that define the benchmark's traffic.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    for index in itertools.count():
        for experiment in workloads.pass_experiments(
                workloads.WORKLOADS[workload], 1, workloads.TIMED_STREAM, index, resolution=n):
            if experiment.kind == kind and f"weight.kind = {weight_kind}\n" in experiment.text:
                return experiment.text


def random_trig(rng, degree=4):
    """A series with a standard normal constant and coefficients c/m, c standard normal."""
    const = rng.standard_normal()
    coeffs = rng.standard_normal((degree, 2)) / np.arange(1, degree + 1)[:, None]
    return TrigSeries(const, coeffs[:, 0], coeffs[:, 1])


def hand_written_family(degree, sin_coeffs, cos_coeffs):
    """Reference: T(u, x) = degree x + u s(x) and its derivatives, the sums written by hand."""
    sc = np.asarray(sin_coeffs, dtype=float)
    cc = np.asarray(cos_coeffs, dtype=float)
    ms = np.arange(1, max(sc.size, cc.size) + 1)
    sc_full = np.zeros(ms.size)
    sc_full[: sc.size] = sc
    cc_full = np.zeros(ms.size)
    cc_full[: cc.size] = cc

    def shape(x):
        angles = 2.0 * np.pi * np.outer(np.asarray(x, dtype=float), ms)
        return (np.sin(angles) @ (sc_full / (2.0 * np.pi * ms))
                + np.cos(angles) @ (cc_full / (2.0 * np.pi * ms)))

    def shape_dx(x):
        angles = 2.0 * np.pi * np.outer(np.asarray(x, dtype=float), ms)
        return np.cos(angles) @ sc_full - np.sin(angles) @ cc_full

    def shape_dxx(x):
        angles = 2.0 * np.pi * np.outer(np.asarray(x, dtype=float), ms)
        return -(np.sin(angles) @ (sc_full * 2.0 * np.pi * ms)
                 + np.cos(angles) @ (cc_full * 2.0 * np.pi * ms))

    return {
        "forward": lambda u, x: degree * np.asarray(x, dtype=float) + u * shape(x),
        "dx_forward": lambda u, x: degree + u * shape_dx(x),
        "du_forward": lambda u, x: shape(x),
        "dxx_forward": lambda u, x: u * shape_dxx(x),
        "dxu_forward": lambda u, x: shape_dx(x),
    }


def hand_written_weight(const, sin_coeffs, cos_coeffs):
    """Reference: g = const + sum_m [sc_m sin + cc_m cos](2 pi m y) and g', by hand, >= 1 mode."""
    sc = np.asarray(sin_coeffs, dtype=float)
    cc = np.asarray(cos_coeffs, dtype=float)
    ms = np.arange(1, max(sc.size, cc.size, 1) + 1)
    sc_full = np.zeros(ms.size)
    sc_full[: sc.size] = sc
    cc_full = np.zeros(ms.size)
    cc_full[: cc.size] = cc

    def value(u, y):
        angles = 2.0 * np.pi * np.outer(np.asarray(y, dtype=float), ms)
        return const + np.sin(angles) @ sc_full + np.cos(angles) @ cc_full

    def dx_value(u, y):
        angles = 2.0 * np.pi * np.outer(np.asarray(y, dtype=float), ms)
        return (np.cos(angles) @ (sc_full * 2.0 * np.pi * ms)
                - np.sin(angles) @ (cc_full * 2.0 * np.pi * ms))

    return {"value": value, "dx_value": dx_value}


# Empty, one-mode and mixed-length (3 sin, 1 cos) coefficient lists.
COEFFICIENTS = [
    ((), ()),
    ((0.3,), ()),
    ((), (0.2,)),
    ((0.17, -0.031, 0.09), (0.06,)),
]


def pin_points():
    """The nodes of 64 and 256 points, and random points in [-1, 2)."""
    rng = np.random.default_rng(25)
    return [circle_nodes(64), circle_nodes(256), 3.0 * rng.random(500) - 1.0]


class TestSeriesKeepTheBitsOfTheHandWrittenSums:
    @pytest.mark.parametrize("sin_c, cos_c", COEFFICIENTS)
    def test_map_family(self, sin_c, cos_c):
        family = trig_perturbed_family(2, sin_c, cos_c)
        reference = hand_written_family(2, sin_c, cos_c)
        for name, ref in reference.items():
            for u in (0.37, -0.2):
                for x in pin_points():
                    assert np.array_equal(getattr(family, name)(u, x), ref(u, x)), name

    @pytest.mark.parametrize("sin_c, cos_c", COEFFICIENTS)
    def test_trig_weight(self, sin_c, cos_c):
        weight = trig_weight(0.5, sin_c, cos_c)
        reference = hand_written_weight(0.5, sin_c, cos_c)
        for name, ref in reference.items():
            for x in pin_points():
                assert np.array_equal(getattr(weight, name)(0.1, x), ref(0.1, x)), name


class TestInverseBranches:
    def test_doubling_at_zero(self):
        ys = inverse_branches(DOUBLING, 0.0, 0.0)
        assert np.allclose(np.sort(ys), [0.0, 0.5], atol=1e-14)

    def test_doubling_at_half(self):
        ys = inverse_branches(DOUBLING, 0.0, 0.5)
        assert np.allclose(np.sort(ys), [0.25, 0.75], atol=1e-14)

    def test_perturbed_vs_bisection_oracle(self):
        u = 0.1
        x = 0.3

        def lift(y):
            return float(PERTURBED.forward(u, np.array([y]))[0])

        ys = np.sort(inverse_branches(PERTURBED, u, x))
        # oracle: root-bracketing on each monotone lift interval
        for k, y_newton in enumerate(ys):
            y_oracle = brentq(lambda y: lift(y) - (x + k), -0.25, 1.25, xtol=1e-15)
            assert abs(y_newton - y_oracle) < 1e-12

    def test_branch_residuals(self):
        u = 0.4
        xs = circle_nodes(64)
        ys = inverse_branches(PERTURBED, u, xs)
        for k in range(2):
            resid = PERTURBED.forward(u, ys[k]) - (xs + np.ceil(-xs - 1e-12) + k)
            # target offsets were recomputed here; just check T(y) = x mod 1
            frac = np.abs(((PERTURBED.forward(u, ys[k]) - xs) + 0.5) % 1.0 - 0.5)
            assert np.max(frac) < 1e-12


class TestAssembleOperator:
    def test_doubling_half_weight_row_sums(self):
        lmat = assemble_operator(DOUBLING, constant_weight(0.5), 0.0, 64)
        assert np.max(np.abs(lmat @ np.ones(64) - 1.0)) < 1e-13

    def test_doubling_unit_weight_doubles(self):
        lmat = assemble_operator(DOUBLING, constant_weight(1.0), 0.0, 32)
        assert np.max(np.abs(lmat @ np.ones(32) - 2.0)) < 1e-12

    def test_duality_for_geometric_weight(self):
        # quadrature check of the pushforward identity: mean(L phi) = mean(phi)
        rng = np.random.default_rng(31)
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.35, n)
        leb = np.full(n, 1.0 / n)
        for _ in range(5):
            phi = random_trig(rng)(circle_nodes(n))
            assert abs(leb @ (lmat @ phi) - leb @ phi) < 1e-11

    def test_exactness_on_low_degree_modes(self):
        # oracle: evaluate the branch sum with exact trig values
        n = 64
        u = 0.2
        g = geometric_weight(PERTURBED)
        lmat = assemble_operator(PERTURBED, g, u, n)
        xs = circle_nodes(n)
        ys = inverse_branches(PERTURBED, u, xs)
        phi = np.sin(2 * np.pi * xs)
        oracle = sum(
            g.value(u, ys[k]) * np.sin(2 * np.pi * ys[k]) for k in range(2)
        )
        assert np.max(np.abs(lmat @ phi - oracle)) < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: constant_weight(np.nan),
        lambda: exp_scaled_weight(np.nan),
        lambda: trig_weight(np.nan),
    ], ids=["constant", "exp-scaled", "trig"])
    def test_nan_weight_is_refused_at_once(self, make):
        # a NaN weight passed a `<= 0` check and ran 10,000 power iterations
        with pytest.raises(ValueError, match="positive"):
            make()

    def test_nan_weight_values_are_refused_at_once(self):
        nan_values = Weight(lambda u, y: np.full(np.shape(y), np.nan), None, None)
        with pytest.raises(NumericsError, match="positive"):
            assemble_operator(DOUBLING, nan_values, 0.0, 16)


def whole_matrix_operator(family, g, u, n):
    """Reference: the branch sum of assemble_operator with each branch added as a whole n x n product."""
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
        assert np.array_equal(assemble_operator(PERTURBED, weight, 0.2, n),
                              whole_matrix_operator(PERTURBED, weight, 0.2, n))

    def test_peaks_near_its_result_beyond_the_memo(self):
        n = 256
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, 0.2, n)  # warm the branch memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lmat = assemble_operator(PERTURBED, g, 0.2, n)
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
    U = 0.2

    def test_cold_and_warm_memo_agree_bitwise(self, branch_builds):
        g = geometric_weight(PERTURBED)
        cold_op = assemble_operator(PERTURBED, g, self.U, self.N)
        warm_du = d_u_operator(PERTURBED, g, self.U, 1.0, self.N)
        assert len(branch_builds) == PERTURBED.degree
        transfer._BRANCH_MEMO.clear()
        cold_du = d_u_operator(PERTURBED, g, self.U, 1.0, self.N)
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
        assemble_operator(PERTURBED, g, 0.1, self.N)
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
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), 0.0, n))
        assert abs(data.lam - 1.0) < 1e-12
        assert np.max(np.abs(data.phi - 1.0)) < 1e-9
        assert np.max(np.abs(data.ell - 1.0 / n)) < 1e-9
        assert data.sigma_estimate <= 0.51

    def test_doubling_unit_weight(self):
        data = spectral_data(assemble_operator(DOUBLING, constant_weight(1.0), 0.0, 32))
        assert abs(data.lam - 2.0) < 1e-11
        assert np.max(np.abs(data.phi - 1.0)) < 1e-9

    def test_projector_identities(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        pi, r = np.outer(data.phi, data.ell), data.r
        assert np.max(np.abs(pi @ pi - pi)) < 1e-10
        assert np.max(np.abs(pi @ r)) < 1e-9
        assert np.max(np.abs(r @ pi)) < 1e-9
        assert np.max(np.abs(lmat - data.lam * pi - r)) < 1e-12
        assert data.eigen_residual < 1e-9
        assert np.min(data.phi) > 0.0
        assert abs(data.ell @ data.phi - 1.0) < 1e-12

    def test_bitwise_equal_to_one_line_forms(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        phi, ell, lam = data.phi, data.ell, data.lam
        assert np.array_equal(data.r, lmat - lam * np.outer(phi, ell))
        # The two forms round differently, and the fitted norm amplifies that
        # by up to e^(a n/2) (e^16 here): the bound already adds that rounding term.
        dense, rounding, _ = dense_fitted_sigma(data.r, lam, data.sigma_power)
        assert abs(data.sigma_estimate - dense) <= 1e-2 * rounding

    def test_holds_one_matrix_and_peaks_at_three(self):
        # R is the only n x n array kept; the sigma bound needs R and two
        # (n+2) x (n+2) buffers (the one-line forms peaked at 6 and kept 2)
        n = 256
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
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
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        ref = np.full(n, 1 / n)
        data = spectral_data(lmat, ell_ref=ref)
        assert abs(ref @ data.phi - 1.0) < 1e-12
        # the default reference is the Lebesgue weights: phi has integral 1
        assert np.array_equal(spectral_data(lmat).phi, data.phi)

    def test_the_divisions_fix_the_signs_of_the_power_vectors(self):
        # L = v w^T with <w, 1> < 0: the power iteration from ones converges to -v
        x = circle_nodes(16)
        v, w = 1.0 + 0.5 * np.cos(2 * np.pi * x), -0.1 + 2.0 * np.cos(2 * np.pi * x)
        data = spectral_data(np.outer(v, w))
        assert data.lam == pytest.approx(w @ v, rel=1e-14)
        assert np.max(np.abs(data.phi - v)) < 1e-14
        assert np.max(np.abs(data.ell - w / (w @ v))) < 1e-14

    def test_eigenvectors_are_read_only(self):
        data = spectral_data(assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, 16))
        for vector in (data.phi, data.ell):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0

    def test_unconverged_power_iteration_raises(self):
        # column-stochastic, eigenvalues 1 and 0.9995: about 42 000 steps to converge
        lmat = np.array([[0.9998, 0.0003], [0.0002, 0.9997]])
        with pytest.raises(MaxIterExceededError, match="final increment"):
            spectral_data(lmat)

    @pytest.mark.parametrize("lmat", [
        np.diag([0.5] * 7 + [-2.0]),  # a negative leading eigenvalue
        np.outer(0.2 + np.cos(2 * np.pi * circle_nodes(8)), np.ones(8)),  # phi = 0.2 + cos
    ], ids=["negative-eigenvalue", "sign-changing-vector"])
    def test_sign_changing_leading_vector_rejected(self, lmat):
        with pytest.raises(NonPositiveEigenfunctionError):
            spectral_data(lmat)

    def test_spectral_decay_fit(self):
        # strong perturbation mixes modes enough for a clean geometric fit
        family = trig_perturbed_family(sin_coeffs=(1.0, 0.6))
        n = 128
        data = spectral_data(assemble_operator(family, geometric_weight(family), 0.9, n))
        rng = np.random.default_rng(7)
        v = rng.standard_normal(n)
        norms = []
        for _ in range(30):
            v = data.r @ v / data.lam
            norms.append(sup_norm(v))
        # least-squares line of log ||R^k v|| against k; its r^2 is the squared correlation
        steps, logs = np.arange(1, 31), np.log(norms)
        sigma = float(np.exp(np.polyfit(steps, logs, 1)[0]))
        assert sigma < 0.9
        assert np.corrcoef(steps, logs)[0, 1] ** 2 > 0.99

    def test_resolution_convergence(self):
        family = PERTURBED
        weight = trig_weight(0.5, (), (0.1,))
        d64 = spectral_data(assemble_operator(family, weight, 0.3, 64))
        d128 = spectral_data(assemble_operator(family, weight, 0.3, 128))
        assert abs(d64.lam - d128.lam) < 1e-10
        assert np.max(np.abs(d64.phi - d128.phi[::2])) < 1e-8


def two_mode_operator(n, lam, second):
    """lam (Pi + R) with Pi = <1/n, .> 1 and R = second on cos 2 pi x and cos 4 pi x.

    The ones vector is exactly the leading eigenvector, with eigenvalue lam.
    """
    x = circle_nodes(n)
    f1, f2 = np.cos(2 * np.pi * x), np.cos(4 * np.pi * x)
    r = second * (np.outer(f1, f1) + np.outer(f2, f2))
    return lam * (np.full((n, n), 1.0 / n) + 2.0 / n * r)


def rotation_operator(n, lam, r, theta):
    """lam (Pi + R) with Pi = <1/n, .> 1 and R = r times the rotation by theta of mode 1.

    R maps a cos 2 pi x + b sin 2 pi x to r [(a cos theta - b sin theta) cos 2 pi x
    + (a sin theta + b cos theta) sin 2 pi x] and every other mode to 0.  Its
    eigenvalues r e^(+-i theta) have modulus r, and rho(|R|) on those two
    coefficients is r (|cos theta| + |sin theta|).
    """
    x = circle_nodes(n)
    c, s = np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)
    rot = (np.cos(theta) * (np.outer(c, c) + np.outer(s, s))
           + np.sin(theta) * (np.outer(s, c) - np.outer(c, s)))
    return lam * (np.full((n, n), 1.0 / n) + 2.0 * r / n * rot)


class TestSpectralGapBound:
    @pytest.mark.parametrize("n", [16, 32])
    def test_equals_the_dense_fitted_form(self, n):
        # weights up to e^(n/4): the two forms agree to 1e-12 while that
        # amplification stays small (5.3e-13 at n = 32, 2.9e-12 of sigma =
        # 0.18, so the tolerance is absolute); there the rounding term is
        # 3.2e-11, so the bound without it would not agree
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        dense, rounding, weighted = dense_fitted_sigma(data.r, data.lam, 1)
        assert data.sigma_power == 1
        assert abs(data.sigma_estimate - dense) <= 1e-12
        # the fit starts at the weights, so it only lowers their norm
        assert data.sigma_estimate <= weighted + rounding

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("weight_kind", ["geometric", "trig"])
    def test_bounds_the_subdominant_ratio(self, n, weight_kind):
        rng = np.random.default_rng(4078 + n + len(weight_kind))
        for _ in range(4):
            family, weight, u0 = bench_like_family(rng, weight_kind)
            data = spectral_data(assemble_operator(family, weight, u0, n))
            rho = np.max(np.abs(np.linalg.eigvals(data.r / data.lam)))
            assert rho <= data.sigma_estimate < 1.0

    def test_second_eigenvalue_near_lambda_raises(self):
        with pytest.raises(NoSpectralGapError, match="at power 32"):
            spectral_data(two_mode_operator(16, 2.0, 0.9995))

    def test_rotation_certifies_at_power_two(self):
        # rho(R/lambda) = r = 0.8, but no diagonal norm of R/lambda is below
        # rho(|R/lambda|) = r (|cos theta| + |sin theta|) = 1.11; its square
        # rotates by 2 theta, and its fitted norm is r^2 (|cos 2 theta| + |sin 2 theta|)
        n, r, theta = 16, 0.8, 0.6
        data = spectral_data(rotation_operator(n, 1.5, r, theta))
        assert dense_fitted_sigma(data.r, data.lam, 1)[0] >= r * (np.cos(theta) + np.sin(theta))
        assert data.sigma_power == 2
        closed_form = r * np.sqrt(abs(np.cos(2 * theta)) + abs(np.sin(2 * theta)))
        assert data.sigma_estimate == pytest.approx(closed_form, abs=1e-9)
        assert data.sigma_estimate == pytest.approx(
            dense_fitted_sigma(data.r, data.lam, 2)[0], rel=1e-12)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("weight_kind", ["geometric", "trig"])
    def test_more_fit_steps_never_raise_the_bound(self, monkeypatch, n, weight_kind):
        # sigma is the least ratio over the fitted v, and more steps only
        # extend that sequence of v, so they can only lower sigma; every v
        # gives an induced norm, so sigma never falls below rho.  The fit is
        # cut after _FIT_STEPS, short of its limit, so sigma is not a property
        # of the operator alone: it moves with the step count and with n
        rng = np.random.default_rng(n + len(weight_kind))
        family, weight, u0 = bench_like_family(rng, weight_kind)
        data = spectral_data(assemble_operator(family, weight, u0, n))
        rho = np.max(np.abs(np.linalg.eigvals(data.r / data.lam)))
        steps = transfer._FIT_STEPS
        bounds = []
        for factor in (1, 2, 4):
            monkeypatch.setattr(transfer, "_FIT_STEPS", factor * steps)
            sigma, power = transfer._sigma_estimate(data.r, data.lam)
            assert power == 1
            bounds.append(sigma)
        assert bounds[0] == data.sigma_estimate
        assert bounds == sorted(bounds, reverse=True)
        assert rho <= bounds[-1]

    @pytest.mark.parametrize("workload, kind, n, weight_kind", [
        ("response-1024", "response", 256, "geometric"),
        ("response-1024", "pressure-check", 256, "trig"),
        ("response-1024", "spectrum", 1024, "geometric"),
        ("response-1024", "spectrum", 1024, "trig"),
        ("response-1024", "solve", 256, "trig"),
        ("scan-256", "taylor-check", 64, "geometric"),
        ("scan-256", "hoelder-scan", 64, "trig"),
    ])
    def test_cli_decompositions_certify_at_power_one(self, monkeypatch, tmp_path, workload, kind,
                                                     n, weight_kind):
        # the fitted norm certifies the benchmark's operators at k = 1, even
        # at n = 1024, where the bound reads up to 0.96
        powers = []

        def recording(*args, **kwargs):
            data = spectral_data(*args, **kwargs)
            powers.append(data.sigma_power)
            return data

        path = tmp_path / "experiment.cfg"
        path.write_text(bench_experiment(monkeypatch, workload, kind, n, weight_kind),
                        encoding="utf-8")
        monkeypatch.setattr(transfer, "spectral_data", recording)
        monkeypatch.setattr(cli, "spectral_data", recording)
        assert cli.run_experiment(config.load_config(path), tmp_path / "out").passed
        assert powers and set(powers) == {1}


class TestNormalizedMap:
    def test_q_at_fixed_point_is_scaled_remainder(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        qmat = fmap.q_matrix([0.3], data.phi)
        target = lmat / data.lam - np.outer(data.phi, data.ell)
        assert np.max(np.abs(qmat - target)) < 1e-10
        assert np.max(np.abs(target - data.r / data.lam)) < 1e-12

    def test_eigenvector_is_fixed_point(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        image = fmap.apply([0.3], data.phi)
        assert sup_norm(image - data.phi) < 1e-12

    def test_iterate_identity(self):
        # F^k(u, phi) = L^k phi / <l, L^k phi>
        rng = np.random.default_rng(37)
        n = 64
        u = 0.3
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), u, n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        phi = 1.5 + 0.3 * np.abs(random_trig(rng)(circle_nodes(n)))
        iterated = phi.copy()
        for _ in range(3):
            iterated = fmap.apply([u], iterated)
        powered = np.linalg.matrix_power(lmat, 3) @ phi
        powered /= data.ell @ powered
        assert sup_norm(iterated - powered) < 1e-11

    def test_picard_solve_converges_to_eigenvector(self):
        n = 64
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        data = spectral_data(lmat)
        fmap = normalized_map(PERTURBED, geometric_weight(PERTURBED), data.ell, n)
        result = solve_fixed_point(fmap, [0.3], np.ones(n), tol=1e-12)
        assert sup_norm(result.phi_star - data.phi) < 1e-10
        assert result.contraction_estimate < 1.0


class TestDuOperator:
    def test_u_independent_family_zero(self):
        dop = d_u_operator(DOUBLING, constant_weight(0.5), 0.0, 1.0, 32)
        assert np.max(np.abs(dop)) == 0.0

    def test_weight_linear_in_u(self):
        # g(u, x) = 1/2 + u c(x): the derivative operator assembles weight c
        def base_weight(u, y):
            return 0.5 + u * np.cos(2 * np.pi * y)

        g = Weight(
            value=base_weight,
            du_value=lambda u, y: np.cos(2 * np.pi * y),
            dx_value=lambda u, y: -2 * np.pi * u * np.sin(2 * np.pi * y),
        )
        n = 32
        dop = d_u_operator(DOUBLING, g, 0.1, 1.0, n)
        oracle = assemble_operator(DOUBLING, trig_weight(2.0, (), (1.0,)), 0.0, n)
        oracle -= assemble_operator(DOUBLING, constant_weight(2.0), 0.0, n)
        # trig_weight(2 + cos) minus constant 2 leaves the pure cos weight; both
        # oracle weights are positive, as assemble_operator requires
        assert np.max(np.abs(dop - oracle)) < 1e-12

    def test_matches_finite_differences(self):
        n = 64
        u0 = 0.2
        g = geometric_weight(PERTURBED)
        dop = d_u_operator(PERTURBED, g, u0, 1.0, n)
        delta = 1e-5
        plus = assemble_operator(PERTURBED, g, u0 + delta, n)
        minus = assemble_operator(PERTURBED, g, u0 - delta, n)
        fd = (plus - minus) / (2 * delta)
        assert np.max(np.abs(dop - fd)) < 1e-7

    @pytest.mark.parametrize("weight", [trig_weight(0.5, (0.2,), (0.1,)),
                                        exp_scaled_weight(0.5, 1.0)], ids=["trig", "exp-scaled"])
    def test_twisted_weight_matches_finite_differences(self, weight):
        # the twist e^{sA} moves both the x-derivative and the u-derivative of
        # the weight; dropping them was off by 0.036 (trig) and 0.73 (exp-scaled)
        n, u0, delta = 64, 0.2, 1e-5
        family = trig_perturbed_family(2, (0.3,), (0.1,))
        g = twisted_weight(weight, 0.5, TrigSeries(0.0, (0.4,), (0.2,)))
        dop = d_u_operator(family, g, u0, 1.0, n)
        fd = (assemble_operator(family, g, u0 + delta, n)
              - assemble_operator(family, g, u0 - delta, n)) / (2 * delta)
        assert np.max(np.abs(dop - fd)) < 1e-7


def per_term_d_u_operator(family, g, u, h, n):
    """Reference: d_u L . h with each branch term added as a whole n x n product."""
    out = np.zeros((n, n))
    for yb in inverse_branches(family, u, circle_nodes(n)):
        interp = spaces.interpolation_matrix(yb, n)
        du_t = family.du_forward(u, yb) * h
        if np.any(du_t != 0.0):
            branch_motion = -du_t / family.dx_forward(u, yb)
            if g.dx_value is not None:
                out += (branch_motion * g.dx_value(u, yb))[:, None] * interp
            out += ((branch_motion * g.value(u, yb))[:, None]
                    * spaces.interpolation_slopes(interp, yb))
        if g.du_value is not None:
            out += (g.du_value(u, yb) * h)[:, None] * interp
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
        assert np.array_equal(d_u_operator(PERTURBED, weight, 0.2, 1.0, n),
                              per_term_d_u_operator(PERTURBED, weight, 0.2, 1.0, n))

    def test_peaks_near_its_result_beyond_the_memo(self):
        n = 256
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, 0.2, n)  # warm the branch memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dop = d_u_operator(PERTURBED, g, 0.2, 1.0, n)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * dop.itemsize
        assert peak - before <= 2.2 * matrix
        assert current - before <= 1.1 * matrix


class TestLinearResponse:
    def test_u_independent_family_zero_response(self):
        resp = linear_response(DOUBLING, constant_weight(0.5), 0.0, 1.0, 32).phi_dot
        assert sup_norm(resp) < 1e-12

    def test_matches_eigenfunction_finite_differences(self):
        n = 64
        g = geometric_weight(PERTURBED)
        delta = 1e-4

        def response_and_fd(u0):
            record = linear_response(PERTURBED, g, u0, 1.0, n)
            plus = spectral_data(assemble_operator(PERTURBED, g, u0 + delta, n),
                                 ell_ref=record.ell).phi
            minus = spectral_data(assemble_operator(PERTURBED, g, u0 - delta, n),
                                  ell_ref=record.ell).phi
            return record.phi_dot, (plus - minus) / (2 * delta)

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
        record = linear_response(PERTURBED, g, 0.1, 1.0, n)
        base = spectral_data(assemble_operator(PERTURBED, g, 0.1, n))
        assert np.array_equal(record.ell, base.ell)
        assert abs(record.ell @ record.phi_dot) < 1e-12

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_every_array_field_is_a_read_only_length_n_vector(self, weight):
        n = 64
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        arrays = {field.name: getattr(record, field.name)
                  for field in dataclasses.fields(record)
                  if isinstance(getattr(record, field.name), np.ndarray)}
        assert sorted(arrays) == ["ell", "ell_dot", "phi", "phi_dot"]
        for name, vec in arrays.items():
            assert vec.shape == (n,), name
            assert not vec.flags.writeable, name
        assert isinstance(record.lam, float) and isinstance(record.lam_dot, float)

    def test_keeps_no_matrix_once_returned(self):
        # R, d_u L and the inverse are dropped: with the branch set already
        # memoized, what the call leaves alive is the record's four vectors
        n = 256
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, 0.2, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = linear_response(PERTURBED, g, 0.2, 1.0, n)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert record.phi_dot.size == n
        assert current - before < 0.1 * n * n * record.phi.itemsize

    def test_route_equivalence(self, monkeypatch):
        # response formula == resolvent derivative of the renormalized map, whose
        # Neumann cross-check is certified on this system and compares
        sums = []
        exact = fixed_point.neumann_sum
        monkeypatch.setattr(fixed_point, "neumann_sum",
                            lambda *args: sums.append(exact(*args)) or sums[-1])
        n = 64
        u0 = 0.1
        g = geometric_weight(PERTURBED)
        record = linear_response(PERTURBED, g, u0, 1.0, n)
        resp = record.phi_dot
        fmap = normalized_map(PERTURBED, g, record.ell, n)
        phi0 = record.phi
        alt = fixed_point_derivative(fmap.p_matrix([u0], phi0), fmap.q_matrix([u0], phi0), [1.0])
        assert sup_norm(resp - alt) < 1e-9
        assert len(sums) == 1 and sums[0] is not None


class TestLambdaDerivative:
    def test_u_independent_family(self):
        assert linear_response(DOUBLING, constant_weight(0.5), 0.0, 1.0, 32).lam_dot == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_exponentially_scaled_weight(self):
        # L_u = e^u L_0 scales the eigenvalue exactly, so dlambda/du = lambda
        record = linear_response(DOUBLING, exp_scaled_weight(0.5, 1.0), 0.0, 1.0, 32)
        assert abs(record.lam_dot - record.lam) < 1e-8
        assert abs(record.lam_dot - 1.0) < 1e-8

    def test_generic_family_vs_richardson(self):
        n = 64
        g = geometric_weight(PERTURBED)
        weight = trig_weight(0.5, (), (0.1,))
        u0 = 0.2
        d = linear_response(PERTURBED, weight, u0, 1.0, n).lam_dot

        def lam(u):
            return spectral_data(assemble_operator(PERTURBED, weight, u, n)).lam

        def central(step):
            return (lam(0.2 + step) - lam(0.2 - step)) / (2 * step)

        fd = (4.0 * central(1e-4) - central(2e-4)) / 3.0
        assert abs(d - fd) / max(1.0, abs(fd)) < 1e-5

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_bitwise_equal_to_dense_derivative_form(self, weight):
        n = 64
        data, dop, _, response = dense_response(PERTURBED, weight, 0.2, 1.0, n)
        dense = float(data.ell @ (dop @ data.phi))
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        assert record.lam_dot == dense
        assert np.array_equal(record.phi_dot, response)

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_dropped_term_is_at_rounding_level(self, weight):
        # lambda' omits <ell_0, L_0 phi'>, which is lambda <ell_0, phi'> = 0 by
        # the normalization; computed, it is within n eps ||ell_0||_1 ||L_0 phi'||_inf
        n = 64
        lmat = assemble_operator(PERTURBED, weight, 0.2, n)
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        wts = record.ell
        moved = lmat @ record.phi_dot
        scale = np.abs(wts).sum() * sup_norm(moved)
        assert scale > 1e-3
        assert abs(float(wts @ moved)) <= n * np.finfo(float).eps * scale


class TestGibbsMeasure:
    def test_normalization(self):
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), 0.0, 32))
        one = TrigSeries(1.0)
        assert gibbs_measure(data, one) == pytest.approx(1.0, abs=1e-12)

    def test_lebesgue_mean_zero(self):
        n = 32
        data = spectral_data(assemble_operator(DOUBLING, geometric_weight(DOUBLING), 0.0, n))
        f = TrigSeries(0.0, (1.0,))
        assert abs(gibbs_measure(data, f)) < 1e-12

    def test_positivity(self):
        n = 64
        data = spectral_data(assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n))
        f = TrigSeries(0.75, (), (0.0, 0.25))  # 0.5 + 0.5 cos^2(2 pi x)
        assert gibbs_measure(data, f) > 0.0


class TestPressureDerivative:
    def test_constant_observable(self):
        n = 32
        c = 0.7
        obs = TrigSeries(c)
        [(d, _)] = pressure_s_derivatives(DOUBLING, geometric_weight(DOUBLING), 0.0, [obs], n)
        assert abs(d - c) < 1e-10

    def test_lebesgue_mean_zero_observable(self):
        n = 32
        obs = TrigSeries(0.0, (1.0,))
        [(d, _)] = pressure_s_derivatives(DOUBLING, geometric_weight(DOUBLING), 0.0, [obs], n)
        assert abs(d) < 1e-8

    def test_identity_for_random_observables(self):
        rng = np.random.default_rng(41)
        n = 64
        g = geometric_weight(PERTURBED)
        data = spectral_data(assemble_operator(PERTURBED, g, 0.3, n))
        for _ in range(3):
            obs = random_trig(rng, degree=3)
            [(d, _)] = pressure_s_derivatives(PERTURBED, g, 0.3, [obs], n)
            m = gibbs_measure(data, obs)
            assert abs(d - m) / max(1.0, abs(m)) < 1e-6


def per_observable_pressure(family, g, u, observable, n, delta=1e-4, twist=twisted_weight):
    """Four twisted decompositions and one decomposition of the base, per observable."""

    def log_lam(s):
        weight = twist(g, s, observable)
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
    U = 0.3

    def observables(self):
        rng = np.random.default_rng(43)
        return [random_trig(rng, degree=3) for _ in range(3)]

    def test_pairs_equal_the_per_observable_form(self):
        g = trig_weight(0.5, (0.2,), (0.1,))
        observables = self.observables()
        pairs = pressure_s_derivatives(PERTURBED, g, self.U, observables, self.N)
        assert pairs == [per_observable_pressure(PERTURBED, g, self.U, obs, self.N)
                         for obs in observables]
        assert [pressure_s_derivatives(PERTURBED, g, self.U, [obs], self.N)[0]
                for obs in observables] == pairs

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

    def test_identity_is_still_checked(self, monkeypatch):
        monkeypatch.setattr(transfer, "_PRESSURE_RTOL", 0.0)
        with pytest.raises(ConsistencyError):
            pressure_s_derivatives(PERTURBED, geometric_weight(PERTURBED), self.U,
                                   self.observables(), self.N)


def interpolated_twist(n):
    """Reference: the twist through the interpolant of the observable's n node samples."""

    def twist(g, s, observable):
        samples = observable(circle_nodes(n))[None]

        def val(u, y):
            return g.value(u, y) * np.exp(s * spaces._interpolant_values(y, samples)[:, 0])

        return Weight(val, None, None)

    return twist


class TestExactTwistAgainstTheInterpolatedTwist:
    @pytest.mark.parametrize("n", [64, 256])
    def test_lambda_and_pressure_derivative(self, n):
        rng = np.random.default_rng(n + 25)
        g = trig_weight(0.5, (0.2,), (0.1,))
        observables = [random_trig(rng, degree=3) for _ in range(2)]
        pairs = pressure_s_derivatives(PERTURBED, g, 0.3, observables, n)
        for observable, (derivative, _) in zip(observables, pairs):
            for s in (1e-4, -2e-4, 0.05):
                exact = assemble_operator(PERTURBED, twisted_weight(g, s, observable), 0.3, n)
                interpolated = assemble_operator(
                    PERTURBED, interpolated_twist(n)(g, s, observable), 0.3, n)
                lam = spectral_data(exact).lam
                assert lam == pytest.approx(spectral_data(interpolated).lam, rel=1e-13, abs=0.0)
            oracle, _ = per_observable_pressure(PERTURBED, g, 0.3, observable, n,
                                                twist=interpolated_twist(n))
            assert abs(derivative - oracle) <= 1e-9


class TestMeasureResponse:
    def test_constant_observable_is_stationary(self):
        n = 64
        g = geometric_weight(PERTURBED)
        one = TrigSeries(1.0)
        assert abs(linear_response(PERTURBED, g, 0.2, 1.0, n).measure_dot(one)) < 1e-10

    def test_u_independent_family(self):
        n = 32
        obs = TrigSeries(0.0, (), (1.0,))
        record = linear_response(DOUBLING, constant_weight(0.5), 0.0, 1.0, n)
        assert abs(record.measure_dot(obs)) < 1e-12

    def test_matches_finite_differences(self):
        n = 64
        weight = trig_weight(0.5, (), (0.1,))
        obs = TrigSeries(0.2, (1.0,))
        u0 = 0.2
        d = linear_response(PERTURBED, weight, u0, 1.0, n).measure_dot(obs)

        def m_at(u):
            data = spectral_data(assemble_operator(PERTURBED, weight, u, n))
            return gibbs_measure(data, obs)

        delta = 1e-4
        fd = (m_at(u0 + delta) - m_at(u0 - delta)) / (2 * delta)
        assert abs(d - fd) / max(1.0, abs(fd)) < 1e-4

    @pytest.mark.parametrize("weight", [geometric_weight(PERTURBED), trig_weight(0.5, (), (0.1,))])
    def test_bitwise_equal_to_dense_derivative_form(self, weight):
        n = 64
        obs = TrigSeries(0.2, (1.0,))
        data, dop, inverse, phi_dot = dense_response(PERTURBED, weight, 0.2, 1.0, n)
        lam, phi, wts = data.lam, data.phi, data.ell
        lam_dot = float(wts @ (dop @ phi))
        forced = dop.T @ wts - lam_dot * wts
        forced = forced - float(forced @ phi) * wts
        ell_dot = inverse.T @ (forced / lam)
        a = obs(circle_nodes(n))
        dense = float(ell_dot @ (a * phi)) + float(wts @ (a * phi_dot))
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        assert np.array_equal(record.ell_dot, ell_dot)
        assert record.measure_dot(obs) == dense


class TestOneFactorizationPerCheckedSystem:
    def test_one_inversion_and_one_assembly_per_response_record(self, monkeypatch):
        n = 32
        weight = trig_weight(0.5, (), (0.1,))
        obs = TrigSeries(0.2, (1.0,))
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
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        record.measure_dot(obs)
        assert counts == {"inv": 1, "assemble": 1}


class TestHolderScan:
    DELTAS = [2.0**-k for k in range(3, 9)]
    CLI_DELTAS = [2.0**-k for k in range(2, 10)]

    def test_near_cancelling_first_step_passes_enforced_gamma(self):
        # Benchmark reproducer (scan-256, seed 409, pass 0): u0 + 1/4 is close
        # to -u0, so phi barely moves at the first step.  A least-squares line
        # over the ladder fits 0.53 there, below gamma - 0.1 = 0.7.
        family = trig_perturbed_family(2, (-0.3347848496236372,), (-0.06629194333260828,))
        check_expanding(family, np.linspace(-0.7, 0.7, 9))
        report = holder_scan_operator(
            family, geometric_weight(family), -0.1308254354295878, 1.0,
            self.CLI_DELTAS, 0.9, 0.1, 256, seed=1547520018, enforce_gamma=True,
        )
        fp_diffs = [r.fixed_point_diff for r in report.rows]
        assert np.polyfit(np.log(self.CLI_DELTAS), np.log(fp_diffs), 1)[0] < 0.7
        assert report.fixed_point_slope >= 0.8
        assert report.operator_slope == pytest.approx(1.0, abs=0.05)

    def test_slope_half_ladder_with_one_outlier_still_raises(self, monkeypatch):
        # Differences ~ delta^(1/2) fail gamma - 0.1 = 0.7.  One outlier at the
        # smallest step tilts a least-squares line up to 1.05, past the bound;
        # the median of the pairwise slopes stays at 1/2 and still raises.
        op_diffs = list(self.CLI_DELTAS)
        fp_diffs = [d ** 0.5 for d in self.CLI_DELTAS]
        fp_diffs[-1] *= 1e-2
        assert np.polyfit(np.log(self.CLI_DELTAS), np.log(fp_diffs), 1)[0] > 0.7
        # the first norm scales the test function, here by 1; the second is the batch
        values = iter([1.0, np.array(op_diffs + fp_diffs)])
        monkeypatch.setattr(transfer, "cr_norm", lambda *args, **kwargs: next(values))
        with pytest.raises(ConsistencyError, match="0.5000 below"):
            holder_scan_operator(PERTURBED, geometric_weight(PERTURBED), 0.0, 1.0,
                                 self.CLI_DELTAS, 0.9, 0.1, 32)

    def test_u_independent_family_not_fit(self):
        report = holder_scan_operator(
            DOUBLING, constant_weight(0.5), 0.0, 1.0, self.DELTAS, 0.9, 0.1, 32
        )
        assert report.operator_slope == float("inf")
        assert report.fixed_point_slope == float("inf")

    def test_smooth_family_slope_near_one(self):
        report = holder_scan_operator(
            PERTURBED, geometric_weight(PERTURBED), 0.0, 1.0, self.DELTAS,
            0.9, 0.1, 64,
        )
        assert report.operator_slope >= 0.7
        assert report.fixed_point_slope >= 0.7
        assert report.operator_slope == pytest.approx(1.0, abs=0.15)

    def test_kink_family_forces_exponent(self):
        # A non-constant, u-independent weight: with a constant weight 1/2
        # every degree-2 map has L1 = 1, so phi_u = 1 for all u.
        kink = trig_perturbed_family(sin_coeffs=(1.0,), kink_exponent=0.5)
        report = holder_scan_operator(
            kink, trig_weight(0.5, (0.2,)), 0.0, 1.0, self.DELTAS, 0.9, 0.1, 64,
            enforce_gamma=False,
        )
        assert 0.4 <= report.operator_slope <= 0.6
        assert 0.4 <= report.fixed_point_slope <= 0.6

    def test_kink_family_constant_weight_fixed_point_not_fit(self):
        # phi_u = 1 for every u: the fixed-point differences are rounding
        # noise and lie below the data-scaled floor, while the operator
        # differences still carry the |u|^(1/2) dependence.
        kink = trig_perturbed_family(sin_coeffs=(1.0,), kink_exponent=0.5)
        report = holder_scan_operator(
            kink, constant_weight(0.5), 0.0, 1.0, self.DELTAS, 0.9, 0.1, 64,
            enforce_gamma=False,
        )
        assert report.fixed_point_slope == float("inf")
        assert 0.4 <= report.operator_slope <= 0.6


class TestCheckExpanding:
    def test_doubling(self):
        assert check_expanding(DOUBLING, [0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_perturbed_bound(self):
        lam = check_expanding(PERTURBED, np.linspace(-0.5, 0.5, 11))
        assert lam == pytest.approx(1.5, abs=1e-3)

    def test_not_expanding(self):
        with pytest.raises(NotExpandingError) as raised:
            check_expanding(PERTURBED, [2.0])
        assert raised.value.u == 2.0 and type(raised.value.u) is float
