"""Helpers shared by the test modules."""

import numpy as np

from auskit.ffmat import INT


def rand_mat(rng, m, n, p):
    """An m x n matrix over F_p with entries drawn from rng (a random.Random)."""
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=INT)
