"""Leading eigenvalues of a weighted transfer operator from its periodic orbits.

An oracle for :mod:`circleresp.transfer` that shares nothing with its
collocation matrix.  For an analytic expanding circle map T with an analytic
weight g, Ruelle's trace formula gives the traces of L on analytic functions,

    tr L^p = sum over T^p x = x of g_p(x) / (1 - 1/(T^p)'(x)),
    g_p(x) = g(x) g(T x) ... g(T^(p-1) x),

and the dynamical determinant det(1 - zL) = exp(-sum_p z^p tr L^p / p) is an
entire function whose zeros are the reciprocals of the eigenvalues of L
(D. Ruelle, Invent. Math. 34, 1976; O. Jenkinson and M. Pollicott, Ergodic
Theory Dynam. Systems 21, 2001).  Its Taylor coefficients fall off faster
than geometrically, so orbits up to period 10 fix the two smallest zeros
z0 = 1/lambda and z1 = 1/lambda_2.  Only maps with T' > 0 are covered, which
the degree-2 trig families are.
"""

import numpy as np


def periodic_sum(family, g, u, period, steps=100, tol=1e-10):
    """tr L^period, from the d^period - 1 fixed points of T^period on the circle.

    F(x) = T^period(x) - x on the lift is increasing with F(x + 1) = F(x) +
    d^period - 1, so F(x) = k has one root in [0, 1) for each integer k in
    [F(0), F(0) + d^period - 1).  All of them are found at once by Newton
    steps kept inside a bracket that each residual's sign narrows, with a
    bisection step wherever Newton would leave it; once every step is below
    ``tol`` one more Newton step puts them at rounding level.  Orbits are
    reduced mod 1 at every step and the integer part is carried apart (the
    lift maps y + m to T(y) + d m), so the lift of T^period, of size d^period,
    is never formed in floating point.
    """
    u = float(u)
    count = family.degree**period - 1

    def orbit(x):
        point, carry = x.copy(), np.zeros_like(x)
        slope, weight = np.ones_like(x), np.ones_like(x)
        for _ in range(period):
            weight *= g.value(u, point)
            slope *= family.dx_forward(u, point)
            image = family.forward(u, point)
            whole = np.floor(image)
            point, carry = image - whole, family.degree * carry + whole
        return point, carry, slope, weight

    def newton_step(x):
        point, carry, slope, weight = orbit(x)
        residual = (carry - targets) + (point - x)
        return residual, residual / (slope - 1.0), slope, weight

    start_point, start_carry, _, _ = orbit(np.zeros(1))
    f0 = float(start_point[0] + start_carry[0])
    targets = np.ceil(f0) + np.arange(count)
    lo, hi = np.zeros(count), np.ones(count)
    x = (targets - f0) / count
    for _ in range(steps):
        residual, step, _, _ = newton_step(x)
        if np.max(np.abs(step)) <= tol:
            break
        lo = np.where(residual < 0.0, x, lo)
        hi = np.where(residual > 0.0, x, hi)
        newton = x - step
        x = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    else:
        raise RuntimeError(f"fixed points of T^{period} not converged in {steps} steps")
    _, _, slope, weight = newton_step(x - step)
    return float(np.sum(weight / (1.0 - 1.0 / slope)))


def determinant_zeros(family, g, u, max_period=10):
    """The two smallest zeros z0, z1 of det(1 - zL), truncated at ``max_period``.

    The coefficients of det(1 - zL) = sum_m c_m z^m follow from the traces
    t_p by m c_m = -sum_{p<=m} t_p c_{m-p}.  z0 is real and positive, and
    lambda = 1/z0; |z0/z1| is the subdominant ratio |lambda_2/lambda|.
    """
    traces = [periodic_sum(family, g, u, p) for p in range(1, max_period + 1)]
    coef = [1.0]
    for m in range(1, max_period + 1):
        coef.append(-sum(traces[p - 1] * coef[m - p] for p in range(1, m + 1)) / m)
    roots = np.roots(coef[::-1])
    roots = roots[np.argsort(np.abs(roots))]
    z0 = roots[0]
    if abs(z0.imag) > 1e-12 or z0.real <= 0.0:
        raise RuntimeError(f"smallest zero {z0} is not real and positive")
    poly, dpoly = np.poly1d(coef[::-1]), np.poly1d(coef[::-1]).deriv()
    z0 = z0.real
    for _ in range(3):  # polish the companion-matrix root on the series itself
        z0 -= poly(z0) / dpoly(z0)
    return z0, roots[1]
