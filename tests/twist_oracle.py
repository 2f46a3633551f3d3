"""The pressure derivative by its definition: a Richardson difference over twisted decompositions.

An oracle for :func:`circleresp.pressure_s_derivatives`, which takes the
derivative by first-order perturbation from the untwisted decomposition
alone.  Here each twisted operator L(e^{sA} .) is assembled and decomposed
in full, each certifying its own gap.
"""

import numpy as np

from circleresp import Weight, assemble_operator, gibbs_measure, spectral_data


def twisted_weight(g, s, observable):
    """Weight g(u, y) * exp(s * A(y)) realizing the twisted operator L(e^{sA} phi), A exact at y.

    Its derivatives are g_u e^{sA} (None when g_u is) and (g_x + s A' g) e^{sA}.
    """

    def val(u, y):
        return g.value(u, y) * np.exp(s * observable(y))

    du_val = None
    if g.du_value is not None:
        def du_val(u, y):
            return g.du_value(u, y) * np.exp(s * observable(y))

    def dx_val(u, y):
        g_x = g.dx_value(u, y) if g.dx_value is not None else 0.0
        return (g_x + s * observable.derivative()(y) * g.value(u, y)) * np.exp(s * observable(y))

    return Weight(val, du_val, dx_val)


def per_observable_pressure(family, g, u, observable, n, delta=1e-4, twist=twisted_weight):
    """(Richardson derivative, Gibbs expectation): four twisted decompositions and the base.

    The derivative is the central difference of log lambda over s in
    {+-delta, +-2 delta}, extrapolated: its truncation is O(delta^4), and its
    rounding that of the power iterations over delta, about 1e-12.
    """

    def log_lam(s):
        weight = twist(g, s, observable)
        return float(np.log(spectral_data(assemble_operator(family, weight, u, n)).lam))

    derivative = (8.0 * (log_lam(delta) - log_lam(-delta))
                  - (log_lam(2 * delta) - log_lam(-2 * delta))) / (12.0 * delta)
    gibbs = gibbs_measure(spectral_data(assemble_operator(family, g, u, n)), observable)
    return derivative, gibbs
