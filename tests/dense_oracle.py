"""Dense matrices built in the tests only, as oracles of the library's products."""

import numpy as np

from circleresp import circle_nodes, interpolation_matrix, inverse_branches


def dense_of(product, n):
    """The matrix of a product, one column per unit vector."""
    return np.stack([product(column) for column in np.eye(n)], axis=1)


def residual_matrix(lmat, data):
    """R = L - lambda phi ell^T of a decomposition; the library forms it only in its gap bound."""
    return lmat - data.lam * np.outer(data.phi, data.ell)


def no_dense_solve(*args, **kwargs):
    """A stand-in for np.linalg.inv and solve in tests that forbid them."""
    raise AssertionError("a dense np.linalg solve or inverse")


def differentiation_matrix(n):
    """The on-grid spectral derivative D; the sampled Nyquist mode has no slope."""
    coeffs = np.fft.rfft(np.eye(n), axis=0)
    coeffs *= (2j * np.pi * np.arange(n // 2 + 1))[:, None]
    coeffs[-1, :] = 0.0
    return np.fft.irfft(coeffs, n, axis=0)


def slope_matrix(points, n):
    """V D - nu sigma^T: the interpolant's slopes at the points, as a matrix.

    V is the value matrix of the points, sigma_j = (-1)^j, and nu is the
    Nyquist cosine's slope factor pi sin(n pi y), taken as (-1)^k pi
    sin(pi (n y - k)) about the nearest node k so that n y is reduced first.
    A point within |sin(pi (y - k/n))| < 1e-12 of its node is on it, as V's
    one-hot rows take it, and gets nu = 0.
    """
    y = np.asarray(points, dtype=float) % 1.0
    k = np.rint(n * y)
    nyquist = np.pi * (1.0 - 2.0 * (k % 2)) * np.sin(np.pi * (n * y - k))
    nyquist[np.abs(np.sin(np.pi * (y - k / n))) < 1e-12] = 0.0
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    return interpolation_matrix(y, n) @ differentiation_matrix(n) - np.outer(nyquist, sign)


def dense_d_u_operator(family, g, u, h, n):
    """d_u L . h as an n x n matrix, each branch term added as a whole n x n product."""
    out = np.zeros((n, n))
    for yb in inverse_branches(family, u, circle_nodes(n)):
        interp = interpolation_matrix(yb, n)
        motion = -(family.du_forward(u, yb) * h) / family.dx_forward(u, yb)
        if g.dx_value is not None:
            out += (motion * g.dx_value(u, yb))[:, None] * interp
        out += (motion * g.value(u, yb))[:, None] * slope_matrix(yb, n)
        if g.du_value is not None:
            out += (g.du_value(u, yb) * h)[:, None] * interp
    return out
