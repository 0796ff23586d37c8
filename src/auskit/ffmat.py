"""Exact dense linear algebra over the prime fields F_p (p small).

Matrices are numpy int64 arrays with entries in {0, ..., p-1}; the modulus is
passed explicitly.  p is below 2^16 (algebra.MAX_FIELD), so a product of two
reduced entries is below 2^32, and an int64 sum of fewer than 2^31 of them is
exact; a product whose factors feed another product is reduced first.
Reduced row echelon form is the canonical representative used everywhere: two
subspaces are equal iff their rref bases are bytewise equal, which is what
makes deduplication by key sound.
solve_columns is the one solver of a @ x = b, column by column; solve_mat
(all columns at once), solve, inv and solve_all read it.

rref eliminates on Python lists of rows, not on the array.  Its matrices are
tiny (most have at most 16 entries, many none), and on them a numpy
elimination spent more on its per-pivot dispatches (find, swap, scale,
clear) than on arithmetic: list arithmetic takes about a third of the time
over all the calls of a run, and loses only above about a thousand entries,
which few calls reach.  rref reduces its input mod p itself, so its callers
do not.

There is one field test: frobenius reads r -> r^p on a commutative matrix
algebra, and tells a field from a product of local rings.  Irreducibility of
a polynomial c is that test on F_p[x]/(c), the polynomials in the companion
matrix of c, and rep splits the local endomorphism rings with it.

Characteristic and minimal polynomials are read off matrices, with no
arithmetic on coefficient lists: charpoly is Berkowitz's division-free
recurrence over a whole stack of matrices, and minpoly is one kernel row of
the powers of its matrix.
"""

import bisect
import functools
import itertools

import numpy as np

from .errors import VerificationFailure

INT = np.int64


def amod(a, p):
    return np.asarray(a, dtype=INT) % p


def zeros(m, n):
    return np.zeros((m, n), dtype=INT)


def identity(n):
    return np.eye(n, dtype=INT)


def inv_mod(a, p):
    """Inverse of a nonzero scalar mod the prime p."""
    return pow(int(a) % p, p - 2, p)


def mat_key(a):
    a = np.ascontiguousarray(a, dtype=INT)
    return (a.shape, a.tobytes())


def rref(a, p):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    The entries of a need not be reduced mod p.  The pivot of each column is
    the first nonzero row at or below the current one; the pivot row is
    scaled to 1 and its column cleared in every other row.  A pivot row is
    zero left of its pivot, so only the columns from the pivot on change.
    """
    r = np.asarray(a, dtype=INT) % p
    if r.ndim != 2:
        r = r.reshape(1, -1)
    m, n = r.shape
    rows = r.tolist()
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        for piv in range(row, m):
            if rows[piv][col]:
                break
        else:
            continue
        prow = rows[piv]
        rows[piv], rows[row] = rows[row], prow
        if prow[col] != 1:
            s = inv_mod(prow[col], p)
            prow[col:] = [x * s % p for x in prow[col:]]
        tail = prow[col:]
        for i, ri in enumerate(rows):
            f = ri[col]
            if f and i != row:
                if p == 2:
                    ri[col:] = [x ^ y for x, y in zip(ri[col:], tail)]
                else:
                    ri[col:] = [(x - f * y) % p for x, y in zip(ri[col:], tail)]
        pivots.append(col)
    return np.array(rows, dtype=INT).reshape(m, n), pivots


def rank(a, p):
    return len(rref(a, p)[1])


def kernel_from_rref(r, pivots, n, p):
    """Kernel basis of a matrix from its RREF: the identity on the free columns."""
    free = [j for j in range(n) if j not in pivots]
    basis = zeros(len(free), n)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-r[i, j]) % p
    return basis


def kernel(a, p):
    """Basis of {x : a @ x = 0}, as rows.  Shape (dim_ker, ncols)."""
    r, piv = rref(a, p)
    return kernel_from_rref(r, piv, r.shape[1], p)


def null_space(a, p):
    """{x : a @ x = 0} as a Subspace, from one elimination: over the reversed
    columns each free-column kernel row ends in its identity entry, zero at the
    other free columns, so that basis read backwards is the kernel's RREF."""
    a = np.asarray(a, dtype=INT)
    n = a.shape[1]
    r, piv = rref(a[:, ::-1], p)
    free = sorted(n - 1 - j for j in set(range(n)) - set(piv))
    return Subspace.from_rref(kernel_from_rref(r, piv, n, p)[::-1, ::-1], free, n, p)


def solve_columns(a, b, p):
    """a @ x = b column by column, from the one elimination of [a | b]:
    (x, ok), ok[j] saying whether column j of b is solvable, and x[:, j] its
    solution with every free variable 0 where it is.  The rows of the RREF
    below the rank of a are zero on a, and their b part is T b for rows T
    spanning {y : y a = 0}; so column j is solvable exactly when its entries
    there are zero."""
    a = np.asarray(a, dtype=INT)
    n = a.shape[1]
    r, piv = rref(np.concatenate([a, b], axis=1), p)
    k = np.shape(b)[1]
    rank_a = bisect.bisect_left(piv, n)
    x = zeros(n, k)
    x[piv[:rank_a]] = r[:rank_a, n:]
    if rank_a == len(piv):  # no pivot in b: every column is solvable
        return x, np.ones(k, dtype=bool)
    return x, ~r[rank_a:, n:].any(axis=0)


def solve_mat(a, b, p):
    """a @ x = b for a matrix b, with every free variable 0; None when some
    column has no solution (solve_columns read as a whole)."""
    x, ok = solve_columns(a, b, p)
    return x if ok.all() else None


def solve(a, b, p):
    """a @ x = b for a vector b (solve_mat's column case), or None."""
    x = solve_mat(a, np.reshape(b, (-1, 1)), p)
    return None if x is None else x[:, 0]


def solve_all(a, b, p):
    """General solution of a @ x = b: (particular, kernel_rows), or None."""
    x = solve(a, b, p)
    return None if x is None else (x, kernel(a, p))


def inv(a, p):
    """Matrix inverse, or None if singular: a square a @ x = 1 is solvable
    exactly when a is invertible."""
    return solve_mat(a, identity(len(a)), p)


# --- subspaces -------------------------------------------------------------


class Subspace:
    """A subspace of F_p^n held in reduced row echelon form (rows = basis).

    B is the identity at its pivot columns, so residues, coordinates and the
    annihilator are read off there, with no further elimination.
    """

    __slots__ = ("B", "n", "p", "pivots")

    def __init__(self, rows, n, p):
        rows = np.asarray(rows, dtype=INT)
        r, piv = rref(zeros(0, n) if rows.size == 0 else rows.reshape(-1, n), p)
        self.B = r[: len(piv)].copy()
        self.pivots = piv
        self.n = n
        self.p = p

    @classmethod
    def from_rref(cls, b, pivots, n, p):
        """The subspace whose RREF basis is b, with its pivot columns; no elimination."""
        s = cls.__new__(cls)
        s.B, s.pivots, s.n, s.p = np.array(b, dtype=INT), list(pivots), n, p
        return s

    @classmethod
    def zero(cls, n, p):
        return cls.from_rref(zeros(0, n), [], n, p)

    @classmethod
    def full(cls, n, p):
        return cls.from_rref(identity(n), range(n), n, p)

    @property
    def dim(self):
        return len(self.pivots)

    def key(self):
        return (self.n, mat_key(self.B))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Subspace(dim=%d, n=%d, p=%d)" % (self.dim, self.n, self.p)

    def residues(self, rows):
        """Residues of a stack of integer rows (not necessarily reduced mod p)
        modulo this subspace: each row minus its pivot entries times B, zero
        exactly on the members."""
        rows = np.atleast_2d(np.asarray(rows, dtype=INT))
        return (rows - rows[:, self.pivots] @ self.B) % self.p

    def coords(self, rows, failure="vector outside the subspace"):
        """Coordinates over B of a stack of member rows: their pivot entries.
        A row outside the span raises VerificationFailure(failure)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=INT))
        if self.residues(rows).any():
            raise VerificationFailure(failure)
        return rows[:, self.pivots] % self.p

    def annihilator(self):
        """Rows spanning {x : B x = 0}, the identity on the free columns; as a
        map it sends a vector to the free entries of its residue."""
        return kernel_from_rref(self.B, self.pivots, self.n, self.p)

    def free(self):
        """The non-pivot columns."""
        return sorted(set(range(self.n)) - set(self.pivots))

    def contains(self, v):
        return not self.residues(v).any()

    def leq(self, other):
        return self.dim <= other.dim and not other.residues(self.B).any()

    def sum(self, other):
        return Subspace(np.concatenate([self.B, other.B], axis=0), self.n, self.p)

    def intersect(self, other):
        """Zassenhaus: the rows of RREF [[U,U],[W,0]] whose left half is zero
        come last, and their right halves are the RREF of U and W's meet."""
        n = self.n
        top = np.concatenate([self.B, self.B], axis=1)
        bot = np.concatenate([other.B, zeros(other.dim, n)], axis=1)
        r, piv = rref(np.concatenate([top, bot]), self.p)
        k = bisect.bisect_left(piv, n)
        return Subspace.from_rref(r[k : len(piv), n:], [c - n for c in piv[k:]], n, self.p)


def closure(rows, mats, n, p):
    """Smallest subspace of F_p^n containing rows and stable under v -> m v
    for every m in the (k, n, n) stack mats."""
    sub = Subspace(np.array(list(rows), dtype=INT), n, p)
    while sub.dim and len(mats):
        imgs = np.einsum("dj,eij->edi", sub.B, mats) % p
        grown = Subspace(np.concatenate([sub.B, imgs.reshape(-1, n)]), n, p)
        if grown.dim == sub.dim:
            return grown
        sub = grown
    return sub


def all_vectors(n, p):
    for coeffs in itertools.product(range(p), repeat=n):
        yield np.array(coeffs, dtype=INT)


def projective_points(n, p):
    """One nonzero vector per line of F_p^n: those whose first nonzero entry is 1."""
    for v in all_vectors(n, p):
        nz = np.flatnonzero(v)
        if nz.size and v[nz[0]] == 1:
            yield v


def gaussian_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise VerificationFailure("Gaussian binomial is not an integer")
    return num // den


# --- polynomials mod p (coefficient arrays, ascending degree) ---------------


def companion(coeffs, p):
    """Companion matrix of a monic polynomial c given highest-first: x acting
    on F_p[x]/(c) in the basis 1, x, ..., x^(d-1)."""
    d = len(coeffs) - 1
    m = zeros(d, d)
    m[1:, :-1] = identity(d - 1)
    m[:, -1] = -np.asarray(coeffs[:0:-1], dtype=INT) % p
    return m


def polynomial_algebra(a, p):
    """F_p[a] for a square matrix a, as the (basis, coords) pair frobenius
    reads: an echelon basis stack of the span of 1, a, ..., a^(n-1)
    (Cayley-Hamilton) and the reader of coordinate rows over it."""
    n = a.shape[0]
    span = Subspace(_powers(a, p).reshape(n, n * n), n * n, p)
    return span.B.reshape(-1, n, n), lambda ms: span.coords(np.reshape(ms, (len(ms), -1)))


def _powers(a, p):
    """The (n, n, n) stack 1, a, ..., a^(n-1) of a square matrix a."""
    powers = [identity(a.shape[0])]
    for _ in range(a.shape[0] - 1):
        powers.append(powers[-1] @ a % p)
    return np.array(powers)


def frobenius(basis, coords, p):
    """(injective, fixed, one) for r -> r^p on a commutative matrix algebra R
    over F_p, R given by a (k, n, n) basis stack and coords, the reader of the
    coordinate rows of a stack of members.

    The map is F_p-linear because R is commutative of characteristic p.
    injective says whether it is (R has no nilpotents), fixed holds rows
    spanning its fixed space and one the coordinates of 1.  A fixed element
    is killed by x^p - x, so it is semisimple with eigenvalues in F_p, and
    the fixed elements are the F_p-combinations of the primitive idempotents
    of R (Berlekamp).  So R is a field iff the map is injective and fixes
    only the scalars, and for a fixed s outside F_p and an eigenvalue
    lambda of s, s - lambda is neither nilpotent nor a unit.
    """
    powers = basis
    for bit in bin(p)[3:]:  # square and multiply: about 2 log2 p products, p - 1 for p = 2, 3
        powers = np.einsum("aij,ajk->aik", powers, powers) % p
        if bit == "1":
            powers = np.einsum("aij,ajk->aik", powers, basis) % p
    frob = coords(powers)
    fixed = kernel((frob.T - identity(len(frob))) % p, p)
    return rank(frob, p) == len(frob), fixed, coords(identity(basis.shape[-1])[None])[0]


def poly_is_irreducible(c, p):
    """Whether c has positive degree and no factor of smaller positive degree,
    i.e. whether F_p[x]/(c), the polynomials in the companion matrix of c
    made monic, is a field."""
    c = np.trim_zeros(amod(c, p), "b")
    if len(c) < 2:
        return False
    monic = c[::-1] * inv_mod(c[-1], p) % p
    # the powers of the companion matrix a are a basis of F_p[a], and
    # a^i e_1 = e_(i+1), so the coordinates of a member are its first column
    injective, fixed, _ = frobenius(_powers(companion(monic, p), p), lambda ms: ms[:, :, 0], p)
    return injective and len(fixed) == 1


@functools.lru_cache(maxsize=None)
def monic_irreducibles(p, d):
    """Highest-first coefficient tuples of the monic irreducibles of degree d."""
    return tuple(iter_monic_irreducibles(p, d))


def iter_monic_irreducibles(p, d):
    """monic_irreducibles(p, d) in the same order, tested one at a time as
    they are drawn."""
    return ((1,) + tail for tail in itertools.product(range(p), repeat=d)
            if poly_is_irreducible(tail[::-1] + (1,), p))


def is_prime(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def charpoly(a, p):
    """det(xI - A) over F_p of a square matrix or of a stack (..., n, n) of them:
    ascending coefficients along the last axis, length n + 1 (monic).

    Berkowitz's division-free recurrence (Inform. Process. Lett. 18 (1984)):
    split A_{k+1} = [[A_k, c], [r, d]]; the descending coefficients of
    det(x - A_{k+1}) are those of det(x - A_k) times the lower triangular
    Toeplitz matrix with first column (1, -d, -rc, -rA_k c, ..., -rA_k^(k-1) c).
    It needs no inverse and no pivot, so a stack runs as one recurrence.
    """
    a = amod(a, p)
    n = a.shape[-1]
    coeffs = np.ones(a.shape[:-2] + (1,), dtype=INT)
    for k in range(n):
        ak, v, r, d = a[..., :k, :k], a[..., :k, k], a[..., k, :k], a[..., k, k]
        col = [np.ones_like(d), -d]
        for _ in range(k):
            col.append(-np.einsum("...i,...i->...", r, v) % p)
            v = np.einsum("...ij,...j->...i", ak, v) % p
        lag = np.subtract.outer(np.arange(k + 2), np.arange(k + 1))
        toeplitz = np.where(lag >= 0, np.stack(col, axis=-1)[..., lag.clip(0)], 0)
        coeffs = np.einsum("...ij,...j->...i", toeplitz, coeffs) % p
    return coeffs[..., ::-1] % p


def minpoly(a, p):
    """Monic minimal polynomial, ascending coefficients: the first kernel row
    of the columns I, a, ..., a^n.  Its first free column d is the first power
    that depends on the lower ones, and its row is 1 at d and zero past d."""
    a = amod(a, p)
    n = a.shape[0]
    powers = [identity(n)]
    for _ in range(n):
        powers.append(powers[-1] @ a % p)
    return np.trim_zeros(kernel(np.reshape(powers, (n + 1, n * n)).T, p)[0], "b")
