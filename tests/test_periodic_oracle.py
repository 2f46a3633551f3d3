"""Collocation eigendata against the periodic-orbit oracle (tests/periodic_oracle.py)."""

import numpy as np
import pytest

from circleresp import (
    assemble_operator,
    geometric_weight,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
)
from periodic_oracle import determinant_zeros

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
    lmat = assemble_operator(family, weight, [u0], N)
    z0, z1 = determinant_zeros(family, weight, [u0])
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
