import dataclasses
import gc
import importlib
import itertools
import sys
import tracemalloc
import types
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
from hypothesis import given, settings
from hypothesis import strategies as st
from periodic_oracle import eigenvalue_derivative
from scipy.optimize import brentq
from twist_oracle import per_observable_pressure, twisted_weight

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
)
from circleresp import cli, config, spaces, transfer

PERTURBED = trig_perturbed_family(sin_coeffs=(1.0,))
# The response's Krylov solves against the dense inverse, relative in the sup
# norm: measured at most 3.9e-15 (phi') and 1.9e-15 (ell') at n = 64.
RESPONSE_VS_INVERSE = 2e-14
DOUBLING = trig_perturbed_family(2, ())


def solved_rounding(inverse, dop, vec, lam):
    """||inverse||_inf eps || |dop| |vec| ||_inf / lambda: a forcing's product rounding, solved.

    The products of d_u L round differently from the dense oracle's matrix,
    each entry within eps (|d_u L| |vec|); the solve carries that through
    its inverse.  The response checks against the dense form measured at most
    0.21 of this plus RESPONSE_VS_INVERSE at n = 32-128 for four weights.
    """
    return (np.linalg.norm(inverse, np.inf) * np.finfo(float).eps
            * sup_norm(np.abs(dop) @ np.abs(vec)) / lam)


def dense_response(family, g, u0, h, n):
    """Reference: the response with a dense d_u L built in the test, solved by the inverse route."""
    lmat = assemble_operator(family, g, u0, n)
    data = spectral_data(lmat)
    dop = dense_d_u_operator(family, g, u0, h, n)
    phi = data.phi
    forced = dop @ phi
    rhs = (forced - float(data.ell @ forced) * phi) / data.lam
    inverse = np.linalg.inv(np.eye(n) - residual_matrix(lmat, data) / data.lam)
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


def whole_array_sigma(lmat, lam, phi, ell):
    """The gap bound and its power with R and both transforms taken as whole arrays.

    R is made whole, each transform is one ``rfft`` call on a whole
    array, and the powers are squared in two (n+2) x (n+2) buffers: the
    form the library takes a block of rows at a time, in one buffer.
    """
    n = lmat.shape[0]
    top = n // 2
    m = 2 * (top + 1)
    first = np.fft.rfft(lmat - lam * np.outer(phi, ell), axis=1).view(float)
    x = np.fft.rfft(np.ascontiguousarray(first.T), axis=1).view(float)
    scale = np.full(m, 2.0 / (n * lam))
    scale[:2] /= 2.0
    if n % 2 == 0:
        scale[-2:] /= 2.0
    x *= scale[:, None]
    rate = min(transfer._MAX_WEIGHT_RATE, transfer._MAX_LOG_WEIGHT / max(top, 1))
    weight = np.exp(rate * np.repeat(np.arange(top + 1), 2))
    rounding = np.exp(rate * top) * n * np.finfo(float).eps * float(np.abs(x).sum(axis=1).max())
    for power in transfer._SIGMA_POWERS:
        if power > 1:
            x = x @ x
        sigma = transfer._fitted_ratio(np.abs(x), weight) ** (1.0 / power) + rounding
        if sigma < 1.0 - transfer._GAP_TOL:
            break
    return sigma, power


def bench_experiments(monkeypatch, workload, kind, n, weight_kind):
    """The configs of ``kind`` and ``weight_kind`` that the benchmark draws, at resolution n.

    They are read, in order, from the timed passes of ``workload`` at seed 1,
    as ``pass_experiments`` of ``bench/workloads.py`` writes them, so a test
    runs the configs that define the benchmark's traffic.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    for index in itertools.count():
        for experiment in workloads.pass_experiments(
                workloads.WORKLOADS[workload], 1, workloads.TIMED_STREAM, index, resolution=n):
            if experiment.kind == kind and f"weight.kind = {weight_kind}\n" in experiment.text:
                yield experiment.text


def bench_experiment(monkeypatch, workload, kind, n, weight_kind):
    """The first config of :func:`bench_experiments`."""
    return next(bench_experiments(monkeypatch, workload, kind, n, weight_kind))


def bench_families(monkeypatch, tmp_path, n, weight_kind, count):
    """(family, weight, u0) of the first ``count`` response-1024 spectrum configs of ``weight_kind``.

    Each is read by the CLI's own circle setup from a config of
    :func:`bench_experiments` at resolution n.
    """
    families = []
    texts = bench_experiments(monkeypatch, "response-1024", "spectrum", n, weight_kind)
    for text in itertools.islice(texts, count):
        path = tmp_path / "spectrum.cfg"
        path.write_text(text, encoding="utf-8")
        _, family, weight, u0 = cli._circle_setup(config.load_config(path), {})
        families.append((family, weight, u0))
    return families


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


@pytest.fixture
def row_builds(monkeypatch):
    """Cold operator memo, and the number of points of each interpolation_matrix call."""
    transfer._OPERATOR_MEMO.clear()
    builds = []

    def counting(points, n):
        builds.append(np.size(points))
        return spaces.interpolation_matrix(points, n)

    monkeypatch.setattr(transfer, "interpolation_matrix", counting)
    yield builds
    transfer._OPERATOR_MEMO.clear()


def kept_operator():
    """The one operator of the memo."""
    (lmat,) = transfer._OPERATOR_MEMO.values()
    return lmat


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
    def test_bitwise_equal_to_the_whole_matrix_form(self, row_builds, n, weight):
        # n = 200 leaves a partial last block; no call interpolates a whole branch
        assert np.array_equal(assemble_operator(PERTURBED, weight, 0.2, n),
                              whole_matrix_operator(PERTURBED, weight, 0.2, n))
        assert max(row_builds) == min(n, transfer._SUM_BLOCK_ENTRIES // n)
        assert sum(row_builds) == PERTURBED.degree * n

    def test_cold_build_peaks_near_its_result(self):
        # L, two blocks of rows and one block of interpolation scratch, 3/32
        # of a matrix at n = 1024: measured 1.10 peak and 1.004 kept (the
        # memo's L); a whole branch matrix would add 1.0, and the branch memo
        # read 3.07
        n = 1024
        transfer._OPERATOR_MEMO.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.2, n)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * lmat.itemsize
        assert peak - before <= 1.2 * matrix
        assert current - before <= 1.1 * matrix


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


class TestOperatorMemo:
    N = 32
    U = 0.2
    TRIG = trig_weight(0.5, (0.2,), (0.1,))

    def test_memo_holds_one_read_only_operator(self, row_builds):
        g = geometric_weight(PERTURBED)
        assemble_operator(PERTURBED, g, 0.1, self.N)
        lmat = assemble_operator(PERTURBED, g, self.U, self.N)
        assert kept_operator() is lmat
        assert not lmat.flags.writeable
        with pytest.raises(ValueError):
            lmat[0, 0] = 1.0

    def test_same_u_and_weight_return_the_kept_operator(self, row_builds):
        first = assemble_operator(PERTURBED, geometric_weight(PERTURBED), self.U, self.N)
        assert sum(row_builds) == PERTURBED.degree * self.N
        row_builds.clear()
        # another Weight object of the same samples is the same key
        again = assemble_operator(PERTURBED, geometric_weight(PERTURBED), self.U, self.N)
        assert again is first
        assert row_builds == []

    def test_another_weight_at_the_same_u_gets_its_own_operator(self, row_builds):
        g = geometric_weight(PERTURBED)
        geometric = assemble_operator(PERTURBED, g, self.U, self.N)
        trig = assemble_operator(PERTURBED, self.TRIG, self.U, self.N)
        assert trig is not geometric and kept_operator() is trig
        assert np.array_equal(trig, whole_matrix_operator(PERTURBED, self.TRIG, self.U, self.N))
        assert sum(row_builds) == 2 * PERTURBED.degree * self.N
        rebuilt = assemble_operator(PERTURBED, g, self.U, self.N)
        assert rebuilt is not geometric and np.array_equal(rebuilt, geometric)

    @pytest.mark.parametrize("kind, extra, branch_sets", [
        ("pressure-check", "observable.count = 2\n", 2),
        ("solve", "", 1),
        ("response", "", 5),
    ])
    def test_cli_kinds_build_each_operator_once(self, row_builds, tmp_path, kind, extra,
                                                branch_sets):
        # points interpolated, in branch sets of degree x n: one operator per
        # u (u0, and for response also u0 +- fd_delta), then the pressure
        # check's own set and one set per d_u_operator call (two in a
        # response); a solve's second assembly and a response's second and
        # third at u0 return the kept operator
        path = tmp_path / "experiment.cfg"
        path.write_text(f"kind = {kind}\n" + CLI_CFG + extra, encoding="utf-8")
        assert cli.run_experiment(config.load_config(path), tmp_path / "out").passed
        assert sum(row_builds) == branch_sets * 2 * 32  # degree 2, n = 32


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
        pi, r = np.outer(data.phi, data.ell), residual_matrix(lmat, data)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-10
        assert np.max(np.abs(pi @ r)) < 1e-9
        assert np.max(np.abs(r @ pi)) < 1e-9
        assert np.max(np.abs(lmat - data.lam * pi - r)) < 1e-12
        assert data.eigen_residual < 1e-9
        assert np.min(data.phi) > 0.0
        assert abs(data.ell @ data.phi - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [64, 1024])
    def test_bitwise_equal_to_one_line_forms(self, monkeypatch, n):
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        transformed = []
        rfft = np.fft.rfft

        def recording(a, *args, **kwargs):
            transformed.append(np.array(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        data = spectral_data(lmat)
        monkeypatch.undo()
        # the first transform takes R a block of rows at a time, in order,
        # and the second the n + 2 rows of its transpose
        rmat = residual_matrix(lmat, data)
        block_rows = max(transfer._SIGMA_BLOCK, n // transfer._SIGMA_BLOCK)
        first = -(-n // block_rows)
        assert len(transformed) == first + -(-(n + 2) // block_rows)
        assert np.array_equal(np.concatenate(transformed[:first]), rmat)
        assert (data.sigma_estimate, data.sigma_power) == whole_array_sigma(
            lmat, data.lam, data.phi, data.ell)
        if n <= 64:
            # The two forms round differently, and the fitted norm amplifies that
            # by up to e^(a n/2) (e^16 here): the bound already adds that rounding term.
            dense, rounding, _ = dense_fitted_sigma(rmat, data.lam, data.sigma_power)
            assert abs(data.sigma_estimate - dense) <= 1e-2 * rounding

    def test_keeps_no_matrix_and_peaks_at_one_and_a_half(self):
        # the record is vectors and scalars; R is made a block of rows at a
        # time and transformed into the sigma bound's one (n+2) x (n+2)
        # buffer, which is the peak with two scratch blocks of n/16 rows
        # (measured 1.28 matrices; R and C in two whole buffers peaked at
        # 2.30, and 128-row blocks read 2.52)
        n = 256
        lmat = assemble_operator(PERTURBED, geometric_weight(PERTURBED), 0.3, n)
        spectral_data(lmat)  # numpy imports numpy.fft on its first use, run alone
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = spectral_data(lmat)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * lmat.itemsize
        assert data.sigma_estimate < 1.0 and data.sigma_power == 1
        assert peak - before <= 1.5 * matrix
        assert current - before <= 0.05 * matrix

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

    @pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_operator_fails_at_its_first_product(self, entry):
        # an infinite weight passed the positivity check of the assembly and
        # ran 10,000 NaN power steps
        lmat = np.full((8, 8), 0.1)
        lmat[2, 5] = entry
        with pytest.raises(NumericsError, match="operator product is not finite"):
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
        lmat = assemble_operator(family, geometric_weight(family), 0.9, n)
        data = spectral_data(lmat)
        rmat = residual_matrix(lmat, data)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(n)
        norms = []
        for _ in range(30):
            v = rmat @ v / data.lam
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
        dense, rounding, weighted = dense_fitted_sigma(residual_matrix(lmat, data), data.lam, 1)
        assert data.sigma_power == 1
        assert abs(data.sigma_estimate - dense) <= 1e-12
        # the fit starts at the weights, so it only lowers their norm
        assert data.sigma_estimate <= weighted + rounding

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("weight_kind", ["geometric", "trig"])
    def test_bounds_the_subdominant_ratio(self, monkeypatch, tmp_path, n, weight_kind):
        for family, weight, u0 in bench_families(monkeypatch, tmp_path, n, weight_kind, 4):
            lmat = assemble_operator(family, weight, u0, n)
            data = spectral_data(lmat)
            rho = np.max(np.abs(np.linalg.eigvals(residual_matrix(lmat, data) / data.lam)))
            assert rho <= data.sigma_estimate < 1.0

    def test_second_eigenvalue_near_lambda_raises(self):
        with pytest.raises(NoSpectralGapError, match="at power 32"):
            spectral_data(two_mode_operator(16, 2.0, 0.9995))

    def test_rotation_certifies_at_power_two(self):
        # rho(R/lambda) = r = 0.8, but no diagonal norm of R/lambda is below
        # rho(|R/lambda|) = r (|cos theta| + |sin theta|) = 1.11; its square
        # rotates by 2 theta, and its fitted norm is r^2 (|cos 2 theta| + |sin 2 theta|)
        n, r, theta = 16, 0.8, 0.6
        lmat = rotation_operator(n, 1.5, r, theta)
        data = spectral_data(lmat)
        rmat = residual_matrix(lmat, data)
        assert dense_fitted_sigma(rmat, data.lam, 1)[0] >= r * (np.cos(theta) + np.sin(theta))
        assert data.sigma_power == 2
        closed_form = r * np.sqrt(abs(np.cos(2 * theta)) + abs(np.sin(2 * theta)))
        assert data.sigma_estimate == pytest.approx(closed_form, abs=1e-9)
        assert data.sigma_estimate == pytest.approx(
            dense_fitted_sigma(rmat, data.lam, 2)[0], rel=1e-12)

    @pytest.mark.parametrize("lmat, power", [
        (rotation_operator(16, 1.5, 0.8, 0.6), 2),
        (two_mode_operator(16, 1.5, 0.9995), 32),
    ], ids=["rotation", "no-gap"])
    def test_squaring_equals_the_whole_array_form(self, lmat, power):
        # past k = 1 the bound makes C again in its buffer and squares it
        # into a second one; the ones vector is the leading eigenvector
        n, lam = 16, 1.5
        phi, ell = np.ones(n), np.full(n, 1.0 / n)
        sigma = transfer._sigma_estimate(lmat, lam, phi, ell)
        assert sigma == whole_array_sigma(lmat, lam, phi, ell)
        assert sigma[1] == power
        rmat = lmat - lam * np.outer(phi, ell)
        assert sigma[0] == pytest.approx(dense_fitted_sigma(rmat, lam, power)[0], rel=1e-12)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("weight_kind", ["geometric", "trig"])
    def test_more_fit_steps_never_raise_the_bound(self, monkeypatch, tmp_path, n, weight_kind):
        # sigma is the least ratio over the fitted v, and more steps only
        # extend that sequence of v, so they can only lower sigma; every v
        # gives an induced norm, so sigma never falls below rho.  The fit is
        # cut after _FIT_STEPS, short of its limit, so sigma is not a property
        # of the operator alone: it moves with the step count and with n
        [(family, weight, u0)] = bench_families(monkeypatch, tmp_path, n, weight_kind, 1)
        lmat = assemble_operator(family, weight, u0, n)
        data = spectral_data(lmat)
        rho = np.max(np.abs(np.linalg.eigvals(residual_matrix(lmat, data) / data.lam)))
        steps = transfer._FIT_STEPS
        bounds = []
        for factor in (1, 2, 4):
            monkeypatch.setattr(transfer, "_FIT_STEPS", factor * steps)
            sigma, power = transfer._sigma_estimate(lmat, data.lam, data.phi, data.ell)
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
        qmat = dense_of(fmap.q_product([0.3], data.phi), n)
        target = lmat / data.lam - np.outer(data.phi, data.ell)
        assert np.max(np.abs(qmat - target)) < 1e-10
        assert np.max(np.abs(target - residual_matrix(lmat, data) / data.lam)) < 1e-12

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


def d_u_products(family, g, u, h, n):
    """Forward and adjoint products of d_u L . h: the joint product with zeros as the other input."""
    joint, zeros = d_u_operator(family, g, u, h, n), np.zeros(n)
    return lambda v: joint(v, zeros)[0], lambda w: joint(zeros, w)[1]


def d_u_matrices(family, g, u, h, n):
    """The matrices of the forward and the adjoint product of d_u L . h, one column per unit vector."""
    return [dense_of(product, n) for product in d_u_products(family, g, u, h, n)]


class TestDuOperator:
    def test_u_independent_family_zero(self):
        # zero coefficients give exact zeros through the products
        for dop in d_u_matrices(DOUBLING, constant_weight(0.5), 0.0, 1.0, 32):
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
        dop, adjoint = d_u_matrices(DOUBLING, g, 0.1, 1.0, n)
        oracle = assemble_operator(DOUBLING, trig_weight(2.0, (), (1.0,)), 0.0, n)
        oracle = oracle - assemble_operator(DOUBLING, constant_weight(2.0), 0.0, n)
        # trig_weight(2 + cos) minus constant 2 leaves the pure cos weight; both
        # oracle weights are positive, as assemble_operator requires
        assert np.max(np.abs(dop - oracle)) < 1e-12
        assert np.max(np.abs(adjoint - oracle.T)) < 1e-12

    def test_matches_finite_differences(self):
        n = 64
        u0 = 0.2
        g = geometric_weight(PERTURBED)
        dop, adjoint = d_u_matrices(PERTURBED, g, u0, 1.0, n)
        delta = 1e-5
        plus = assemble_operator(PERTURBED, g, u0 + delta, n)
        minus = assemble_operator(PERTURBED, g, u0 - delta, n)
        fd = (plus - minus) / (2 * delta)
        assert np.max(np.abs(dop - fd)) < 1e-7
        assert np.max(np.abs(adjoint - fd.T)) < 1e-7

    @pytest.mark.parametrize("weight", [trig_weight(0.5, (0.2,), (0.1,)),
                                        exp_scaled_weight(0.5, 1.0)], ids=["trig", "exp-scaled"])
    def test_twisted_weight_matches_finite_differences(self, weight):
        # the twist e^{sA} moves both the x-derivative and the u-derivative of
        # the weight; dropping them was off by 0.036 (trig) and 0.73 (exp-scaled)
        n, u0, delta = 64, 0.2, 1e-5
        family = trig_perturbed_family(2, (0.3,), (0.1,))
        g = twisted_weight(weight, 0.5, TrigSeries(0.0, (0.4,), (0.2,)))
        dop, adjoint = d_u_matrices(family, g, u0, 1.0, n)
        fd = (assemble_operator(family, g, u0 + delta, n)
              - assemble_operator(family, g, u0 - delta, n)) / (2 * delta)
        assert np.max(np.abs(dop - fd)) < 1e-7
        assert np.max(np.abs(adjoint - fd.T)) < 1e-7


# The products of d_u L against the dense oracle, entrywise in units of
# eps ||d_u L||_inf: measured at most 1.02 at n = 32-1024 for the three
# weights below, and 0.82 over 450 certified families at n = 16-64.
D_U_VS_DENSE = 4.0


def assert_products_match_the_dense_oracle(family, g, u, n):
    """Both products of d_u L agree with the dense oracle to D_U_VS_DENSE, and are adjoint."""
    oracle = dense_d_u_operator(family, g, u, 1.0, n)
    forward, adjoint = d_u_products(family, g, u, 1.0, n)
    bound = D_U_VS_DENSE * np.finfo(float).eps * np.max(np.abs(oracle).sum(axis=1))
    assert np.max(np.abs(dense_of(forward, n) - oracle)) <= bound
    assert np.max(np.abs(dense_of(adjoint, n) - oracle.T)) <= bound
    rng = np.random.default_rng(n)
    v, w = rng.standard_normal((2, n))
    # <w, F v> = <A w, v>: both sides are within n eps ||w|| ||d_u L|| ||v|| of the exact pairing
    assert abs(w @ forward(v) - adjoint(w) @ v) <= (
        n * np.finfo(float).eps * np.abs(w).sum() * np.max(np.abs(oracle).sum(axis=1))
        * np.max(np.abs(v)))


class TestDuOperatorProducts:
    @pytest.mark.parametrize("n", [32, 200])
    @pytest.mark.parametrize("weight", [
        geometric_weight(PERTURBED),
        trig_weight(0.5, (0.2,), (0.1,)),
        exp_scaled_weight(0.5, 1.0),
    ])
    def test_match_the_dense_oracle(self, n, weight):
        assert_products_match_the_dense_oracle(PERTURBED, weight, 0.2, n)

    def test_allocate_one_interpolation_block(self):
        # one pass takes both images from blocks of _SUM_BLOCK_ENTRIES
        # interpolation rows, each dropped before the next is made, and
        # making one takes up to _EVAL_BLOCK_ENTRIES scratch entries (at
        # n = 256 a block is half a matrix, and so is its scratch).  Measured
        # 1.09 matrices; the whole branch matrices V_b peaked at 3.04
        n = 256
        g = geometric_weight(PERTURBED)
        data = spectral_data(assemble_operator(PERTURBED, g, 0.2, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forced, adjoint_forced = d_u_operator(PERTURBED, g, 0.2, 1.0, n)(data.phi, data.ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = n * n * forced.itemsize
        block = spaces._EVAL_BLOCK_ENTRIES * forced.itemsize
        assert forced.shape == adjoint_forced.shape == (n,)
        assert peak - before <= block + 0.1 * matrix

    def test_one_pass_builds_each_branch_once(self, row_builds):
        n = 200  # a partial last block
        g = geometric_weight(PERTURBED)
        products = d_u_operator(PERTURBED, g, 0.2, 1.0, n)
        forced, adjoint_forced = products(np.ones(n), np.ones(n))
        assert sum(row_builds) == PERTURBED.degree * n
        assert max(row_builds) == transfer._SUM_BLOCK_ENTRIES // n
        # each image is the one its own pass gives
        zeros = np.zeros(n)
        assert np.array_equal(forced, products(np.ones(n), zeros)[0])
        assert np.array_equal(adjoint_forced, products(zeros, np.ones(n))[1])


class TransposeCounter(np.ndarray):
    """An interpolation block that counts the transposes taken of it: one per adjoint product."""

    taken = 0

    @property
    def T(self):
        TransposeCounter.taken += 1
        return super().T


@pytest.fixture
def transposes(monkeypatch):
    """The number of transposes taken of interpolation blocks since the fixture was set up."""
    blocks = transfer._row_blocks

    def watched(yb, n):
        for rows, block in blocks(yb, n):
            yield rows, block.view(TransposeCounter)

    monkeypatch.setattr(transfer, "_row_blocks", watched)
    TransposeCounter.taken = 0
    return lambda: TransposeCounter.taken


class TestForwardOnlyDuProduct:
    def test_no_adjoint_half_and_the_joint_forward_image_bitwise(self, transposes):
        n = 200
        products = d_u_operator(PERTURBED, geometric_weight(PERTURBED), 0.2, 1.0, n)
        phi = np.cos(2.0 * np.pi * circle_nodes(n)) + 1.5
        joint_forward, joint_adjoint = products(phi, np.ones(n))
        assert transposes() > 0  # the joint product takes them, two per block
        before = transposes()
        forward, adjoint = products(phi)
        assert transposes() == before and adjoint is None
        assert np.array_equal(forward, joint_forward)
        assert np.array_equal(products(phi, np.zeros(n))[0], forward)

    def test_p_product_runs_no_adjoint_half(self, transposes):
        n = 64
        g = geometric_weight(PERTURBED)
        data = spectral_data(assemble_operator(PERTURBED, g, 0.3, n))
        fmap = normalized_map(PERTURBED, g, data.ell, n)
        column = fmap.p_product(np.array([0.3]), data.phi)(np.ones(1))
        assert transposes() == 0
        forced, _ = d_u_operator(PERTURBED, g, 0.3, 1.0, n)(data.phi, np.zeros(n))
        lphi = assemble_operator(PERTURBED, g, 0.3, n) @ data.phi
        scale = float(data.ell @ lphi)
        assert np.array_equal(column, forced / scale - (data.ell @ forced) * lphi / scale**2)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 32, 64]),
       geometric=st.booleans())
def test_d_u_products_on_certified_families(seed, n, geometric):
    family, weight, u, _ = certified_case(seed, geometric)
    assert_products_match_the_dense_oracle(family, weight, u, n)
    record = linear_response(family, weight, u, 1.0, n)
    # <ell, phi'> = 0 by the normalization, to the rounding of the solve
    assert abs(record.ell @ record.phi_dot) <= (
        n * np.finfo(float).eps * np.abs(record.ell).sum()
        * max(sup_norm(record.phi_dot), sup_norm(record.phi)))


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
        # the products of d_u L and their branch matrices are dropped, and L
        # is the memo's already: what the call leaves alive is the record's
        # four vectors
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

    def test_route_equivalence(self):
        # response formula == resolvent derivative of the renormalized map; given
        # ||(Id - Q0)^-1||_1 from the dense inverse, a certified Neumann partial
        # sum of the route's system agrees with its checked solve
        n = 64
        u0 = 0.1
        g = geometric_weight(PERTURBED)
        record = linear_response(PERTURBED, g, u0, 1.0, n)
        resp = record.phi_dot
        fmap = normalized_map(PERTURBED, g, record.ell, n)
        phi0 = record.phi
        p0, q0 = fmap.p_product([u0], phi0), fmap.q_product([u0], phi0)
        alt = fixed_point_derivative(p0, q0, [1.0])
        assert sup_norm(resp - alt) < 1e-9
        inverse_norm = np.linalg.norm(np.linalg.inv(np.eye(n) - dense_of(q0, n)), 1)
        tolerance = 0.5e-8 * sup_norm(alt)
        series = neumann_sum(q0, p0([1.0]), inverse_norm, tolerance)
        assert series is not None and sup_norm(series - alt) <= 2.0 * tolerance


@pytest.mark.parametrize("kind, n, bound", [
    ("response", 256, 2.4),
    ("spectrum", 256, 2.4),
    ("response", 1024, 2.2),
])
def test_cli_experiment_peaks_below_its_bound(tmp_path, kind, n, bound):
    # in (n+2)^2 matrices: a decomposition peaks at the kept operator, the
    # gap bound's one buffer and its two scratch blocks of n/16 rows; the
    # products of d_u L and the pressure check hold one block of
    # interpolation rows beside L.  Measured 2.29 (response) and 2.27
    # (spectrum) at n = 256, and 2.15 at n = 1024; the two buffers and the
    # whole branch matrices made them 4.03, 3.27 and 3.07
    path = tmp_path / "experiment.cfg"
    path.write_text(f"kind = {kind}\n" + CLI_CFG.replace("resolution = 32", f"resolution = {n}"),
                    encoding="utf-8")
    cfg = config.load_config(path)
    tracemalloc.start()
    try:
        assert cli.run_experiment(cfg, tmp_path / "out").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (n + 2) ** 2 * np.dtype(float).itemsize


def square_arrays_of(module, n):
    """The 2-D arrays of at least n x n reachable from ``module``'s globals.

    The walk follows ``gc.get_referents`` but does not enter classes, other
    modules or their globals, so a function imported from elsewhere adds
    nothing of its home module.
    """
    others = {id(vars(m)) for m in list(sys.modules.values())
              if isinstance(m, types.ModuleType) and m is not module}
    seen, found = set(), []
    stack = list(vars(module).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in others or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.ndim == 2 and min(obj.shape) >= n:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_transfer_keeps_only_the_memo_operator(tmp_path):
    n = 64
    for kind in ("spectrum", "response"):
        path = tmp_path / f"{kind}.cfg"
        path.write_text(f"kind = {kind}\n" + CLI_CFG.replace("resolution = 32", f"resolution = {n}"),
                        encoding="utf-8")
        assert cli.run_experiment(config.load_config(path), tmp_path / kind).passed
    found = square_arrays_of(transfer, n)
    assert len(found) == 1 and found[0] is kept_operator()
    assert found[0].shape == (n, n) and not found[0].flags.writeable


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
    def test_equal_to_the_dense_derivative_form(self, weight):
        # lambda' takes no solve, so it is the dense form's to the rounding of
        # the products: within eps ||ell||_1 ||d_u L||_inf ||phi||_inf, and
        # measured at most 0.04 of that at n = 32-256 for four weights; phi'
        # is the Krylov solve against the dense inverse, within
        # RESPONSE_VS_INVERSE and the solved rounding of its forcing
        n = 64
        data, dop, inverse, response = dense_response(PERTURBED, weight, 0.2, 1.0, n)
        dense = float(data.ell @ (dop @ data.phi))
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        scale = np.abs(data.ell).sum() * np.max(np.abs(dop).sum(axis=1)) * sup_norm(data.phi)
        assert abs(record.lam_dot - dense) <= np.finfo(float).eps * scale
        assert sup_norm(record.phi_dot - response) <= (
            RESPONSE_VS_INVERSE * sup_norm(response)
            + solved_rounding(inverse, dop, data.phi, data.lam))

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

    def test_pairs_agree_with_the_twisted_richardson(self):
        # the Richardson over four twisted decompositions per observable is
        # the derivative by its definition; each observable's pair is also
        # the one it gets alone
        g = trig_weight(0.5, (0.2,), (0.1,))
        observables = self.observables()
        pairs = pressure_s_derivatives(PERTURBED, g, self.U, observables, self.N)
        for (derivative, gibbs), obs in zip(pairs, observables):
            oracle, oracle_gibbs = per_observable_pressure(PERTURBED, g, self.U, obs, self.N)
            assert abs(derivative - oracle) <= 1e-9
            assert gibbs == oracle_gibbs
        assert [pressure_s_derivatives(PERTURBED, g, self.U, [obs], self.N)[0]
                for obs in observables] == pairs

    def test_base_is_decomposed_once(self, decompositions):
        observables = self.observables()
        pressure_s_derivatives(PERTURBED, geometric_weight(PERTURBED), self.U, observables,
                               self.N)
        assert len(decompositions) == 1

    def test_cli_pressure_check_decomposes_once(self, decompositions, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("kind = pressure-check\n" + CLI_CFG + "observable.count = 2\n",
                        encoding="utf-8")
        assert cli.run_experiment(config.load_config(path), tmp_path / "out").passed
        assert len(decompositions) == 1

    def test_identity_is_still_checked(self, monkeypatch):
        monkeypatch.setattr(transfer, "_PRESSURE_RTOL", 0.0)
        with pytest.raises(ConsistencyError):
            pressure_s_derivatives(PERTURBED, geometric_weight(PERTURBED), self.U,
                                   self.observables(), self.N)


def certified_case(seed, geometric):
    """(family, weight, u, observable): a certified degree-2 trig family, its weight and a draw.

    The family is drawn as the benchmark draws its circle maps: 1-3 modes
    whose summed |coefficients| A keep 0.7 A <= 0.3, so |dT/dx| >= 1.7 for
    |u| <= 0.7; the weight is the geometric one or 0.5 plus modes summing
    below 0.3 in absolute value, u is uniform in [-0.4, 0.4], and the
    observable is a degree-3 :func:`random_trig`.
    """
    rng = np.random.default_rng(seed)
    modes = int(rng.integers(1, 4))
    coeffs = rng.standard_normal((2, modes))
    coeffs *= 0.3 / 0.7 * rng.uniform(0.5, 1.0) / np.abs(coeffs).sum()
    family = trig_perturbed_family(2, coeffs[0], coeffs[1])
    if geometric:
        weight = geometric_weight(family)
    else:
        wcoeffs = rng.standard_normal((2, 2))
        wcoeffs *= 0.5 * rng.uniform(0.2, 0.6) / np.abs(wcoeffs).sum()
        weight = trig_weight(0.5, wcoeffs[0], wcoeffs[1])
    return family, weight, float(rng.uniform(-0.4, 0.4)), random_trig(rng, degree=3)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([32, 48, 64]),
       geometric=st.booleans())
def test_pressure_derivative_matches_richardson_and_gibbs(seed, n, geometric):
    # over 225 such draws at these n, at most 3.1e-12 from the Richardson over
    # twisted decompositions (its own error) and 2.1e-15 relative from the
    # Gibbs expectation; at n = 16 the latter reads up to 5.8e-9, the
    # interpolation error of A phi at the branch points
    family, weight, u, observable = certified_case(seed, geometric)
    [(derivative, gibbs)] = pressure_s_derivatives(family, weight, u, [observable], n)
    oracle, oracle_gibbs = per_observable_pressure(family, weight, u, observable, n)
    assert gibbs == oracle_gibbs
    assert abs(derivative - oracle) <= 1e-9
    assert abs(derivative - gibbs) <= 1e-12 * max(1.0, abs(gibbs))


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 32, 48, 64]),
       geometric=st.booleans())
def test_response_matches_the_central_difference(seed, n, geometric):
    # phi_u normalized by <ell_0, phi_u> = 1, as the record's phi', and the
    # central differences at delta = 1e-3 and 2e-3 combined by Richardson:
    # over 200 such draws at most 7.1e-12 sup(phi) from phi', the power
    # iterations' rounding over 2 delta; relative to sup(phi') it read up to
    # 4.5e-8, where phi' is small
    family, weight, u, _ = certified_case(seed, geometric)
    record = linear_response(family, weight, u, 1.0, n)

    def central(delta):
        plus, minus = (spectral_data(assemble_operator(family, weight, u + s, n),
                                     ell_ref=record.ell).phi for s in (delta, -delta))
        return (plus - minus) / (2.0 * delta)

    richardson = (4.0 * central(1e-3) - central(2e-3)) / 3.0
    assert sup_norm(record.phi_dot - richardson) <= 5e-11 * sup_norm(record.phi)


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([32, 48, 64]),
       geometric=st.booleans())
def test_lam_dot_matches_the_periodic_orbit_oracle(seed, n, geometric):
    # over 200 such draws at most 1.0e-14 lambda from the oracle's exact
    # derivative (the geometric weight's lambda' is 0, so the bound is on
    # the scale of lambda); at n = 16 the discretization error reads up to 6.8e-11
    family, weight, u, _ = certified_case(seed, geometric)
    record = linear_response(family, weight, u, 1.0, n)
    assert abs(record.lam_dot - eigenvalue_derivative(family, weight, u)) <= 1e-13 * record.lam


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
    def test_equal_to_the_dense_derivative_form(self, weight):
        # ell' is the Krylov solve against the transposed dense inverse, within
        # RESPONSE_VS_INVERSE and the solved rounding of its forcing (ell' is
        # rounding alone for the geometric weight, whose ell is Lebesgue at
        # every u); m'(A) is near 0 here, so it is compared on the scale of
        # its two terms and their bounds
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
        ell_bound = (RESPONSE_VS_INVERSE * sup_norm(ell_dot)
                     + solved_rounding(inverse.T, dop.T, wts, lam))
        phi_bound = (RESPONSE_VS_INVERSE * sup_norm(phi_dot)
                     + solved_rounding(inverse, dop, phi, lam))
        assert sup_norm(record.ell_dot - ell_dot) <= ell_bound
        scale = (np.abs(ell_dot).sum() * sup_norm(a * phi)
                 + np.abs(wts).sum() * sup_norm(a * phi_dot))
        assert abs(record.measure_dot(obs) - dense) <= (
            RESPONSE_VS_INVERSE * scale + n * ell_bound * sup_norm(a * phi)
            + np.abs(wts).sum() * sup_norm(a) * phi_bound)


class TestNoFactorizationPerCheckedSystem:
    def test_no_inversion_and_one_assembly_per_response_record(self, monkeypatch):
        n = 32
        weight = trig_weight(0.5, (), (0.1,))
        obs = TrigSeries(0.2, (1.0,))
        assemblies = []
        real_assemble = transfer.assemble_operator

        def counting_assemble(*args):
            assemblies.append(1)
            return real_assemble(*args)

        monkeypatch.setattr(np.linalg, "inv", no_dense_solve)
        monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
        monkeypatch.setattr(transfer, "assemble_operator", counting_assemble)
        record = linear_response(PERTURBED, weight, 0.2, 1.0, n)
        record.measure_dot(obs)
        assert assemblies == [1]

    def test_no_inversion_in_a_response_experiment(self, monkeypatch, tmp_path):
        monkeypatch.setattr(np.linalg, "inv", no_dense_solve)
        monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
        path = tmp_path / "response.cfg"
        path.write_text("kind = response\nresolution = 64\nmap.sin = 0.2\nmap.cos = 0.1\n"
                        "param_box = 0.7\nweight.kind = geometric\nu0 = 0.15\n",
                        encoding="utf-8")
        report = cli.run_experiment(config.load_config(path), tmp_path / "out")
        assert report.passed and report.metrics["route_equiv_dev"] < 1e-12


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
