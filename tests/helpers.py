"""Helpers shared by the test modules."""

import numpy as np

from auskit import rep
from auskit.ffmat import INT, inv


def rand_mat(rng, m, n, p):
    """An m x n matrix over F_p with entries drawn from rng (a random.Random)."""
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=INT)


def rebased(x, rng):
    """x in a random basis at each vertex."""
    p = x.p
    s = []
    for d in x.dims:
        while True:
            m = rand_mat(rng, d, d, p).reshape(d, d)
            if d == 0 or inv(m, p) is not None:
                s.append(m)
                break
    mats = {}
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        su_inv = inv(s[u], p) if x.dims[u] else s[u]
        mats[ai] = (s[v] @ x.mats[ai] @ su_inv) % p
    return rep.Rep(x.A, x.dims, mats)


def _counting(fn, calls):
    """fn, recording its calls: proves that a monkeypatched function was reached
    and not bypassed by a memoized answer."""
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted
