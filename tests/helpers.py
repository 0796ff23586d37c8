"""Helpers shared by the test modules."""

import numpy as np

from auskit import rep
from auskit.errors import VerificationFailure
from auskit.ffmat import INT, amod, identity, inv, inv_mod, rref, zeros


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


class BasisHom:
    """Hom(X, Y) on any independent list of maps, read through one RREF of
    [B | 1] = [T B | T]: T B has its identity columns at the pivots of B, so
    T inverts B there, and a pivot in the right half means B is dependent.
    A reference reader for the canonical rows of rep.hom_space, and an
    End(X) basis that tests hand to rep.EndData in place of end_algebra."""

    def __init__(self, x, y, maps):
        self.x, self.y, self.maps = x, y, list(maps)
        n, w = len(self.maps), sum(a * b for a, b in zip(x.dims, y.dims))
        self.matrix = np.array([f.flat() for f in self.maps], dtype=INT).reshape(n, w)
        r, self.piv = rref(np.concatenate([self.matrix, identity(n)], axis=1), x.p)
        if self.piv and self.piv[-1] >= w:
            raise VerificationFailure("hom basis is linearly dependent")
        self.inv = r[:, w:]

    def __len__(self):
        return len(self.maps)

    def coords(self, flats):
        """Coordinate rows of a stack of flattened maps, checked to lie in the span."""
        flats = np.asarray(flats, dtype=INT).reshape(len(flats), self.matrix.shape[1])
        c = (flats[:, self.piv] @ self.inv) % self.x.p
        if ((c @ self.matrix) % self.x.p != flats).any():
            raise VerificationFailure("map outside Hom(X, Y)")
        return c

    def element(self, coords):
        """The morphism with the given coordinates."""
        return rep.morphism_from_flat(self.x, self.y, (np.asarray(coords, dtype=INT) @ self.matrix) % self.x.p)


def _counting(fn, calls):
    """fn, recording its calls: proves that a monkeypatched function was reached
    and not bypassed by a memoized answer."""
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def mul_vec(A, u, v):
    """Product of two elements of the algebra A in basis coordinates."""
    return np.einsum("i,j,ijl->l", amod(u, A.p), amod(v, A.p), A.mul_table) % A.p


def yoneda(A, v, module, vec):
    """Morphism P(v) -> module sending e_v to vec (an element of module at v)."""
    v = A._vertex_of(v)
    vec = amod(vec, A.p).reshape(module.dims[v])
    return rep.Morphism(A.proj(v), module, [(module.path_stack(v, w) @ vec).T for w in range(A.nv)])


def poly_eval_mat(c, a, p):
    """The polynomial with ascending coefficients c at the square matrix a (Horner)."""
    n = a.shape[0]
    out = zeros(n, n)
    for coeff in reversed(list(c)):
        out = (out @ a + int(coeff) * identity(n)) % p
    return out


def rref_reference(a, p):
    """Reduced row echelon form by a numpy elimination, one column at a time;
    a reference oracle for ffmat.rref.  Returns (R, pivot_columns)."""
    r = amod(a, p).copy()
    if r.ndim != 2:
        r = r.reshape(1, -1)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        if r[row, col] != 1:
            r[row] = (r[row] * inv_mod(r[row, col], p)) % p
        colv = r[:, col].copy()
        colv[row] = 0
        others = np.nonzero(colv)[0]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots
