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


def periodic_points(family, u, period, steps=100, tol=1e-10):
    """The d^period - 1 fixed points of T^period on the circle, in [0, 1).

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
        point, carry, slope = x.copy(), np.zeros_like(x), np.ones_like(x)
        for _ in range(period):
            slope *= family.dx_forward(u, point)
            image = family.forward(u, point)
            whole = np.floor(image)
            point, carry = image - whole, family.degree * carry + whole
        return point, carry, slope

    def newton_step(x):
        point, carry, slope = orbit(x)
        residual = (carry - targets) + (point - x)
        return residual, residual / (slope - 1.0)

    start_point, start_carry, _ = orbit(np.zeros(1))
    f0 = float(start_point[0] + start_carry[0])
    targets = np.ceil(f0) + np.arange(count)
    lo, hi = np.zeros(count), np.ones(count)
    x = (targets - f0) / count
    for _ in range(steps):
        residual, step = newton_step(x)
        if np.max(np.abs(step)) <= tol:
            break
        lo = np.where(residual < 0.0, x, lo)
        hi = np.where(residual > 0.0, x, hi)
        newton = x - step
        x = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    else:
        raise RuntimeError(f"fixed points of T^{period} not converged in {steps} steps")
    return x - step


def _orbits(family, u, x, period):
    """The points x_0 = x, x_1 = T x_0, ..., x_(period-1), each reduced mod 1."""
    points = [x]
    for _ in range(period - 1):
        image = family.forward(u, points[-1])
        points.append(image - np.floor(image))
    return points


def periodic_sum(family, g, u, period):
    """tr L^period, from the d^period - 1 fixed points of T^period (:func:`periodic_points`)."""
    u = float(u)
    slope, weight = 1.0, 1.0
    for point in _orbits(family, u, periodic_points(family, u, period), period):
        weight = weight * g.value(u, point)
        slope = slope * family.dx_forward(u, point)
    return float(np.sum(weight / (1.0 - 1.0 / slope)))


def periodic_sum_derivative(family, g, u, period):
    """d/du tr L^period, each term differentiated along its moving fixed point.

    A fixed point x of T^period moves with u at dx/du = -d_u T^period(x) /
    ((T^period)'(x) - 1), from differentiating T^period(x) = x + k, and its
    orbit with it: x_(i+1)' = d_u T(x_i) + T'(x_i) x_i'.  The term
    G S / (S - 1), with G = g(x_0) ... g(x_(period-1)) and S = (T^period)'(x),
    then has the derivative G' S / (S - 1) - G S' / (S - 1)^2, where
    G' / G = sum_i (d_u g + d_x g x_i') / g and S' / S = sum_i (d_xu T +
    d_xx T x_i') / T' at x_i.  The family needs ``du_forward``,
    ``dxx_forward`` and ``dxu_forward``; a weight's missing derivative is 0.
    """
    u = float(u)
    orbit = _orbits(family, u, periodic_points(family, u, period), period)
    moved, slope = 0.0, 1.0
    for point in orbit:  # d_u T^period at the fixed x, and S
        moved = family.du_forward(u, point) + family.dx_forward(u, point) * moved
        slope = slope * family.dx_forward(u, point)
    motion = -moved / (slope - 1.0)
    weight, weight_rate, slope_rate = 1.0, 0.0, 0.0
    for point in orbit:
        value, dx = g.value(u, point), family.dx_forward(u, point)
        rate = 0.0 if g.du_value is None else g.du_value(u, point)
        if g.dx_value is not None:
            rate = rate + g.dx_value(u, point) * motion
        weight = weight * value
        weight_rate = weight_rate + rate / value
        slope_rate = slope_rate + (family.dxu_forward(u, point)
                                   + family.dxx_forward(u, point) * motion) / dx
        motion = family.du_forward(u, point) + dx * motion
    weight_dot, slope_dot = weight * weight_rate, slope * slope_rate
    return float(np.sum(weight_dot * slope / (slope - 1.0)
                        - weight * slope_dot / (slope - 1.0) ** 2))


def _determinant_coefficients(traces):
    """c_0 .. c_M of det(1 - zL) = sum_m c_m z^m, from m c_m = -sum_{p<=m} t_p c_{m-p}."""
    coef = [1.0]
    for m in range(1, len(traces) + 1):
        coef.append(-sum(traces[p - 1] * coef[m - p] for p in range(1, m + 1)) / m)
    return coef


def determinant_zeros(family, g, u, max_period=10):
    """The two smallest zeros z0, z1 of det(1 - zL), truncated at ``max_period``.

    The coefficients of det(1 - zL) = sum_m c_m z^m follow from the traces
    t_p by m c_m = -sum_{p<=m} t_p c_{m-p}.  z0 is real and positive, and
    lambda = 1/z0; |z0/z1| is the subdominant ratio |lambda_2/lambda|.
    """
    traces = [periodic_sum(family, g, u, p) for p in range(1, max_period + 1)]
    coef = _determinant_coefficients(traces)
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


def eigenvalue_derivative(family, g, u, max_period=10):
    """d lambda/du of lambda = 1/z0, from the u-derivatives of the traces.

    Differentiating m c_m = -sum_{p<=m} t_p c_{m-p} gives
    m c_m' = -sum_{p<=m} (t_p' c_{m-p} + t_p c_{m-p}'), c_0' = 0, and
    differentiating det(1 - z0 L) = 0 gives z0' = -sum_m c_m' z0^m /
    sum_m m c_m z0^(m-1); then lambda' = -z0' / z0^2.
    """
    z0, _ = determinant_zeros(family, g, u, max_period)
    periods = range(1, max_period + 1)
    traces = [periodic_sum(family, g, u, p) for p in periods]
    rates = [periodic_sum_derivative(family, g, u, p) for p in periods]
    coef, coef_dot = _determinant_coefficients(traces), [0.0]
    for m in periods:
        coef_dot.append(-sum(rates[p - 1] * coef[m - p] + traces[p - 1] * coef_dot[m - p]
                             for p in range(1, m + 1)) / m)
    z0_dot = -np.poly1d(coef_dot[::-1])(z0) / np.poly1d(coef[::-1]).deriv()(z0)
    return -z0_dot / z0**2
