"""Collocation eigendata and its u-derivative against the periodic-orbit oracle (tests/periodic_oracle.py)."""

import numpy as np
import pytest

from circleresp import (
    TrigSeries,
    assemble_operator,
    geometric_weight,
    linear_response,
    pressure_s_derivatives,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
)
from periodic_oracle import determinant_zeros, eigenvalue_derivative
from twist_oracle import twisted_weight

N = 64
GEOMETRIC = trig_perturbed_family(2, (1.0,))
FAMILIES = {
    "trig weight": (trig_perturbed_family(2, (0.3,), (0.1,)),
                    trig_weight(0.5, (0.2,), (0.1,)), 0.15),
    "geometric weight": (GEOMETRIC, geometric_weight(GEOMETRIC), 0.3),
    "two-mode trig weight": (trig_perturbed_family(2, (0.2, -0.1), (0.05,)),
                             trig_weight(0.6, (), (0.15, 0.05)), -0.25),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def case(request):
    family, weight, u0 = FAMILIES[request.param]
    lmat = assemble_operator(family, weight, u0, N)
    z0, z1 = determinant_zeros(family, weight, u0)
    return request.param, lmat, spectral_data(lmat), z0, z1


def test_leading_eigenvalue_matches(case):
    name, _, data, z0, _ = case
    assert abs(data.lam - 1.0 / z0) <= 1e-12 * data.lam
    if name == "geometric weight":
        assert abs(1.0 / z0 - 1.0) <= 1e-12  # the a.c.i.m. eigenvalue


def test_subdominant_ratio_is_below_sigma(case):
    _, lmat, data, z0, z1 = case
    ratio = abs(z0 / z1)
    # the oracle's second zero is the collocation's second eigenvalue, so the
    # bound below is not met by a spurious far zero
    eigs = np.sort(np.abs(np.linalg.eigvals(lmat)))[::-1]
    assert ratio == pytest.approx(eigs[1] / eigs[0], rel=1e-6)
    assert ratio <= data.sigma_estimate


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lam_dot_matches_central_difference_of_the_oracle(name):
    family, weight, u0 = FAMILIES[name]
    h = 1e-4
    z_plus, _ = determinant_zeros(family, weight, u0 + h)
    z_minus, _ = determinant_zeros(family, weight, u0 - h)
    oracle = (1.0 / z_plus - 1.0 / z_minus) / (2.0 * h)
    derivative = linear_response(family, weight, u0, 1.0, N).lam_dot
    if name == "geometric weight":
        # lambda = 1 for every u: the oracle's difference is exactly 0
        assert abs(derivative - oracle) <= 1e-12
    else:
        # measured 2e-10 relative: the O(h^2) truncation and rounding of the difference
        assert abs(derivative - oracle) <= 1e-8 * abs(oracle)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lam_dot_matches_the_exact_derivative_of_the_oracle(name):
    # the traces differentiated along their moving periodic points, and the
    # determinant's smallest zero with them: no difference step.  Measured
    # 4.7e-13 (trig weight) and 2.6e-14 (two-mode) relative at n = 32-128;
    # the bound is 10x the larger
    family, weight, u0 = FAMILIES[name]
    oracle = eigenvalue_derivative(family, weight, u0)
    derivative = linear_response(family, weight, u0, 1.0, N).lam_dot
    if name == "geometric weight":
        # lambda = 1 for every u: both are rounding
        assert abs(derivative - oracle) <= 1e-12
    else:
        assert abs(derivative - oracle) <= 5e-12 * abs(oracle)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_nested_grids_agree_at_the_shared_nodes(name):
    # phi has integral 1 on every grid, so the response record is the
    # operator's: measured within 6.0e-14 of n = 512 at n = 32, 64, 128, and
    # the bound below is 15x that; lambda, lambda' and m'(A) are scale-free.
    # The geometric weight's lambda is 1 for every u, so its lambda' is
    # rounding, which the absolute floor takes.
    family, weight, u0 = FAMILIES[name]
    observable = TrigSeries(0.1, (0.3, -0.2), (0.25,))
    fine = linear_response(family, weight, u0, 1.0, 512)
    for n in (32, 64, 128):
        coarse = linear_response(family, weight, u0, 1.0, n)
        shared = slice(None, None, 512 // n)
        assert np.max(np.abs(coarse.phi - fine.phi[shared])) <= 1e-12
        assert np.max(np.abs(coarse.phi_dot - fine.phi_dot[shared])) <= 1e-12
        assert coarse.lam == pytest.approx(fine.lam, rel=1e-12)
        assert coarse.lam_dot == pytest.approx(fine.lam_dot, rel=1e-12, abs=1e-15)
        assert coarse.measure_dot(observable) == pytest.approx(
            fine.measure_dot(observable), rel=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pressure_derivative_matches_the_oracle(name):
    # d/ds log lambda(s) of the twisted operator L(e^{sA} .) is -d/ds log z0(s),
    # here the central difference over s = +-h of the oracle's smallest zero.
    # Measured within 1.7e-10 relative, the O(h^2) truncation of that
    # difference, for both the engine's derivative and the Gibbs expectation.
    family, weight, u0 = FAMILIES[name]
    observable = TrigSeries(0.1, (0.3, -0.2), (0.25,))
    h = 1e-4
    z_plus, _ = determinant_zeros(family, twisted_weight(weight, h, observable), u0)
    z_minus, _ = determinant_zeros(family, twisted_weight(weight, -h, observable), u0)
    oracle = -(np.log(z_plus) - np.log(z_minus)) / (2.0 * h)
    [(derivative, gibbs)] = pressure_s_derivatives(family, weight, u0, [observable], N)
    assert abs(derivative - oracle) <= 1e-9 * abs(oracle)
    assert abs(gibbs - oracle) <= 1e-9 * abs(oracle)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_measure_derivative_matches_the_oracle(name):
    # m_u(A) = d/ds log lambda(s, u) at s = 0, so m'(A) along u is the mixed
    # derivative -d/du d/ds log z0(s, u): here the central mixed difference
    # over u0 +- h and s = +-h, Richardson-extrapolated from h and 2h to take
    # out its O(h^2) truncation (4e-7 relative at h = 1e-3 alone).  Measured
    # within 9.6e-10 relative at h = 2e-3; the bound is 10x that.
    family, weight, u0 = FAMILIES[name]
    observable = TrigSeries(0.1, (0.3, -0.2), (0.25,))

    def log_z0(u, s):
        return np.log(determinant_zeros(family, twisted_weight(weight, s, observable), u)[0])

    def mixed(h):
        return -(log_z0(u0 + h, h) - log_z0(u0 + h, -h) - log_z0(u0 - h, h)
                 + log_z0(u0 - h, -h)) / (4.0 * h * h)

    h = 2e-3
    oracle = (4.0 * mixed(h) - mixed(2.0 * h)) / 3.0
    derivative = linear_response(family, weight, u0, 1.0, N).measure_dot(observable)
    assert abs(derivative - oracle) <= 1e-8 * abs(oracle)
