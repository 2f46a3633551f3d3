"""Dense matrices built in the tests only, as oracles of the library's products."""

import numpy as np


def dense_of(product, n):
    """The matrix of a product, one column per unit vector."""
    return np.stack([product(column) for column in np.eye(n)], axis=1)


def no_dense_solve(*args, **kwargs):
    """A stand-in for np.linalg.inv and solve in tests that forbid them."""
    raise AssertionError("a dense np.linalg solve or inverse")
