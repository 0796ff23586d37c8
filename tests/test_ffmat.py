import itertools
import random

import numpy as np
import pytest

from auskit import ffmat
from auskit.errors import VerificationFailure
from auskit.ffmat import (
    Subspace,
    charpoly,
    gaussian_binomial,
    kernel,
    minpoly,
    rank,
    rref,
    solve_all,
)
from helpers import (
    charpoly_reference,
    enumerate_subspaces,
    frobenius_reference,
    inv_reference,
    minpoly_reference,
    poly_eval_mat,
    rand_mat,
    rref_reference,
    solve_all_reference,
    solve_mat_reference,
    vectors,
)


def test_rref_collapses_equal_rows():
    r, piv = rref([[1, 1], [1, 1]], 2)
    assert piv == [0]
    assert r.tolist() == [[1, 1], [0, 0]]


def test_rref_mod3():
    r, piv = rref([[2, 1], [1, 2]], 3)
    assert piv == [0]
    assert r.tolist() == [[1, 2], [0, 0]]


def test_rref_identity_block():
    r, piv = rref([[0, 1, 1], [1, 0, 1]], 2)
    assert piv == [0, 1]
    assert r.tolist() == [[1, 0, 1], [0, 1, 1]]


def _rref_inputs(p, rng):
    """Seeded integer matrices with entries from -2p to 3p: every shape up to
    9 x 12, dense, sparse and of low rank, some up to 64 x 128, and 1-D rows."""
    for m in range(10):
        for n in range(13):
            yield rng.integers(-2 * p, 3 * p, (m, n))
            yield rng.integers(-2 * p, 3 * p, (m, n)) * (rng.random((m, n)) < 0.3)
            k = int(rng.integers(0, min(m, n) + 1))
            yield rng.integers(-p, 2 * p, (m, k)) @ rng.integers(0, p, (k, n))
    for m, n, k in ((64, 128, 64), (64, 128, 9), (100, 40, 30), (17, 90, 17)):
        yield rng.integers(0, p, (m, k)) @ rng.integers(-p, 2 * p, (k, n))
    for n in (0, 1, 5, 12):
        yield rng.integers(-2 * p, 3 * p, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_the_numpy_elimination(p):
    rng = np.random.default_rng(1000 + p)
    for a in _rref_inputs(p, rng):
        before = a.copy()
        r, piv = rref(a, p)
        ref_r, ref_piv = rref_reference(a, p)
        assert (a == before).all() and a.dtype == before.dtype
        m, n = (1, a.size) if a.ndim == 1 else a.shape
        assert r.dtype == np.int64 and r.shape == (m, n)
        assert r.tobytes() == ref_r.tobytes()
        assert piv == ref_piv and all(type(c) is int for c in piv)


def test_solve_unique():
    x0, ker = solve_all([[1, 1], [0, 1]], [0, 1], 2)
    assert x0.tolist() == [1, 1]
    assert ker.shape == (0, 2)


def test_solve_underdetermined():
    x0, ker = solve_all([[1, 1], [1, 1]], [1, 1], 2)
    assert x0.tolist() == [1, 0]
    assert ker.tolist() == [[1, 1]]


def test_solve_inconsistent():
    assert solve_all([[1, 1], [1, 1]], [1, 0], 2) is None


def test_kernel_of_zero_map():
    k = kernel(np.zeros((2, 3), dtype=int), 2)
    assert k.shape == (3, 3)
    assert rank(k, 2) == 3


def test_inverse_roundtrip():
    a = np.array([[1, 2], [1, 1]])
    ai = ffmat.inv(a, 3)
    assert ((a @ ai) % 3 == np.eye(2, dtype=int)).all()
    assert ffmat.inv([[1, 1], [1, 1]], 2) is None


def test_inverse_of_empty_matrix():
    ai = ffmat.inv(np.zeros((0, 0), dtype=int), 2)
    assert ai is not None and ai.shape == (0, 0)


def _solver_inputs(p, rng):
    """Seeded (a, b) over F_p with 0 to 6 rows and columns and 0 to 3
    right-hand sides: a dense or of rank at most 1, b = a x (solvable) or
    random (often not, when a has low rank); entries of a from -p to 2p."""
    for m in range(7):
        for n in range(7):
            k = min(1, m, n)
            low_rank = rng.integers(-p, 2 * p, (m, k)) @ rng.integers(0, p, (k, n))
            for a in (rng.integers(-p, 2 * p, (m, n)), low_rank):
                for cols in range(4):
                    yield a, a @ rng.integers(0, p, (n, cols))
                    yield a, rng.integers(0, p, (m, cols))


def _square_inputs(p, rng):
    """Seeded square matrices over F_p, 0 x 0 to 6 x 6: random (mostly
    invertible) and of rank n - 1 (singular)."""
    for n in range(7):
        yield rng.integers(-p, 2 * p, (n, n))
        if n:
            yield rng.integers(0, p, (n, n - 1)) @ rng.integers(-p, 2 * p, (n - 1, n))


def _assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solvers_match_the_eliminations_they_replaced(p):
    # solve, solve_all and inv all read solve_mat; each must give what its own
    # elimination of [a | b] gave, None included
    rng = np.random.default_rng(2000 + p)
    solvable, invertible = set(), set()
    for a, b in _solver_inputs(p, rng):
        _assert_same(ffmat.solve_mat(a, b, p), solve_mat_reference(a, b, p))
        for col in b.T:
            got, want = solve_all(a, col, p), solve_all_reference(a, col, p)
            assert (got is None) == (want is None)
            if want is not None:
                _assert_same(got[0], want[0])
                _assert_same(got[1], want[1])
            _assert_same(ffmat.solve(a, col, p), None if want is None else want[0])
            solvable.add(want is not None)
    for a in _square_inputs(p, rng):
        want = inv_reference(a, p)
        _assert_same(ffmat.inv(a, p), want)
        invertible.add((len(a), want is not None))
    assert solvable == {True, False}
    assert (0, True) in invertible and {ok for _, ok in invertible} == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_columns_reads_each_column(p):
    # column j is solvable exactly when its own solve_all finds a solution,
    # and then its column of x is that canonical solution
    rng = np.random.default_rng(3000 + p)
    seen = set()
    for a, b in _solver_inputs(p, rng):
        x, ok = ffmat.solve_columns(a, b, p)
        assert x.shape == (a.shape[1], b.shape[1]) and ok.shape == (b.shape[1],)
        for j, col in enumerate(b.T):
            want = solve_all_reference(a, col, p)
            assert bool(ok[j]) == (want is not None)
            if want is not None:
                assert (x[:, j] == want[0]).all()
            seen.add(bool(ok[j]))
    assert seen == {True, False}


def test_subspace_canonical_equality():
    u = Subspace([[1, 1, 0], [0, 0, 1]], 3, 2)
    v = Subspace([[1, 1, 1], [0, 0, 1]], 3, 2)
    assert u == v
    assert u.key() == v.key()


def test_subspace_sum_and_intersection():
    u = Subspace([[1, 0]], 2, 2)
    v = Subspace([[0, 1]], 2, 2)
    assert u.sum(v).dim == 2
    assert u.intersect(v).dim == 0
    w = Subspace([[1, 1]], 2, 2)
    full = Subspace([[1, 0], [0, 1]], 2, 2)
    assert full.intersect(w) == w
    assert w.leq(full) and not full.leq(w)


def test_dimension_formula_random():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randrange(2, 6)
        p = rng.choice([2, 3, 5])
        u = Subspace(rand_mat(rng, rng.randrange(1, n + 1), n, p), n, p)
        w = Subspace(rand_mat(rng, rng.randrange(1, n + 1), n, p), n, p)
        assert u.sum(w).dim + u.intersect(w).dim == u.dim + w.dim
        assert u.intersect(w).leq(u)
        assert u.leq(u.sum(w))


def test_gaussian_binomials():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(2, 1, 4) == 5


def test_subspace_counts():
    assert len(enumerate_subspaces(2, 2)) == 5
    assert len(enumerate_subspaces(3, 2)) == 16
    assert len(enumerate_subspaces(4, 2)) == 67
    assert len(enumerate_subspaces(2, 3)) == 6
    assert len(enumerate_subspaces(3, 3)) == 28
    assert len(enumerate_subspaces(4, 2, dim=2)) == 35


def test_enumerated_subspaces_distinct():
    seen = {s.key() for s in enumerate_subspaces(3, 3)}
    assert len(seen) == 28


def test_subspace_cap():
    import pytest

    from auskit.errors import CapExceeded

    with pytest.raises(CapExceeded):
        enumerate_subspaces(8, 5, cap=1000)


def test_charpoly_nilpotent_and_companion():
    assert charpoly([[0, 1], [0, 0]], 2).tolist() == [0, 0, 1]
    # companion matrix of x^2+x+1 over F_2
    assert charpoly([[0, 1], [1, 1]], 2).tolist() == [1, 1, 1]
    assert charpoly([[1, 0], [0, 1]], 3).tolist() == [1, 1, 1]  # (x-1)^2


def test_charpoly_consistent_with_determinant():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5])
        a = rand_mat(rng, n, n, p)
        cp = charpoly(a, p)
        assert len(cp) == n + 1 and cp[n] == 1
        # Cayley-Hamilton
        assert not poly_eval_mat(cp, a, p).any()


@pytest.mark.parametrize("n", [32, 96, 200])
def test_charpoly_of_a_conjugated_companion_near_the_field_bound(n):
    # p just below the largest field size an Algebra accepts, in a dense
    # matrix: every int64 product in the recurrence must stay exact
    p = 65521
    rng = np.random.default_rng(n)
    c = np.append(rng.integers(0, p, n), 1)  # ascending, monic
    s = s_inv = ffmat.identity(n)
    for _ in range(3):  # 1 + u v^T with v.u = 0 has the inverse 1 - u v^T
        u, v = rng.integers(0, p, n), rng.integers(0, p, n)
        u[-1] = 1
        v[-1] = -(v[:-1] @ u[:-1]) % p
        t = np.outer(u, v) % p
        s, s_inv = s @ (ffmat.identity(n) + t) % p, (ffmat.identity(n) - t) @ s_inv % p
    assert not (s @ s_inv % p - ffmat.identity(n)).any()
    m = s @ ffmat.companion(c[::-1], p) % p @ s_inv % p
    assert charpoly(m, p).tolist() == c.tolist()


def test_minpoly():
    assert minpoly(np.eye(3, dtype=int), 2).tolist() == [1, 1]
    assert minpoly([[0, 1], [0, 0]], 3).tolist() == [0, 0, 1]
    assert minpoly([[0, 1], [1, 1]], 2).tolist() == [1, 1, 1]


def test_minpoly_divides_charpoly():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(1, 5)
        p = rng.choice([2, 3])
        a = rand_mat(rng, n, n, p)
        mp = minpoly(a, p)
        # mp divides charpoly iff charpoly kills the companion matrix of mp,
        # whose minimal polynomial is mp
        assert not poly_eval_mat(charpoly(a, p), ffmat.companion(mp[::-1], p), p).any()
        assert not poly_eval_mat(mp, a, p).any()


def _poly_inputs(seed, count, max_n, primes):
    """Seeded square matrices with unreduced entries in [-2p, 3p): dense and
    upper triangular, plus diagonal ones and ones of rank at most two."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n, p = rng.randrange(max_n + 1), rng.choice(primes)
        a = np.array([[rng.randrange(-2 * p, 3 * p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        a = a.reshape(n, n)
        shape = k % 4
        if shape == 1:
            a = np.triu(a)
        elif shape == 2:
            a = np.diag(np.diag(a))
        elif shape == 3 and n:
            r = min(n, 2)
            a = a[:, :r] @ rand_mat(rng, r, n, p)
        out.append((a, p))
    return out


def _same(x, y):
    return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_charpoly_matches_hessenberg_reference():
    for a, p in _poly_inputs(3, 600, 12, [2, 3, 5, 7]):
        assert _same(charpoly(a, p), charpoly_reference(a, p)), (a.tolist(), p)


def test_charpoly_of_a_stack_is_the_charpoly_of_each_matrix():
    rng = random.Random(4)
    for n in range(6):
        for p in (2, 3, 5):
            stack = np.array([rand_mat(rng, n, n, p) for _ in range(12)]).reshape(3, 4, n, n)
            got = charpoly(stack - p * rng.randrange(-2, 3), p)
            assert got.shape == (3, 4, n + 1) and got.dtype == np.int64
            for i, j in itertools.product(range(3), range(4)):
                assert _same(got[i, j], charpoly(stack[i, j], p))


def test_minpoly_matches_solve_all_reference():
    for a, p in _poly_inputs(5, 600, 8, [2, 3, 5]):
        assert _same(minpoly(a, p), minpoly_reference(a, p)), (a.tolist(), p)


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, ascending coefficients."""
    return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]


@pytest.mark.parametrize("p, maxdeg", [(2, 5), (3, 5), (5, 3)])
def test_poly_is_irreducible_against_products(p, maxdeg):
    # a monic c of positive degree is reducible iff it is the product of two
    # monic factors of positive degree
    reducible = {tuple(int(x) for x in np.convolve(a, b) % p)
                 for d in range(2, maxdeg + 1) for i in range(1, d // 2 + 1)
                 for a in _monic(p, i) for b in _monic(p, d - i)}
    for d in range(maxdeg + 1):
        for c in _monic(p, d):
            want = d > 0 and c not in reducible
            assert ffmat.poly_is_irreducible(c, p) == want, c
            # non-monic multiples, and zero coefficients above the top one
            for s in range(2, p):
                assert ffmat.poly_is_irreducible([s * x for x in c], p) == want, (s, c)
            assert ffmat.poly_is_irreducible(c + (0, p), p) == want, c
    for c in ([], [0], [0, 0, p], [1], [p - 1, 0]):
        assert not ffmat.poly_is_irreducible(c, p), c


def test_frobenius_of_a_product_of_fields():
    # F_2[x]/((x^2+x+1)(x+1)) = F_4 x F_2: injective, fixed space spanned by
    # the two primitive idempotents, 1 among them
    basis, coords = ffmat.polynomial_algebra(ffmat.companion([1, 0, 0, 1], 2), 2)
    injective, fixed, one = ffmat.frobenius(basis, coords, 2)
    assert injective and len(fixed) == 2
    assert Subspace(fixed, 3, 2).contains(one)
    # F_2[x]/(x^2 (x + 1)) has the nilpotent x
    basis, coords = ffmat.polynomial_algebra(ffmat.companion([1, 1, 0, 0], 2), 2)
    injective, fixed, _ = ffmat.frobenius(basis, coords, 2)
    assert not injective and len(fixed) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_frobenius_squares_and_multiplies(monkeypatch, p):
    # r^p along the bits of p, one product per bit below the top and one per
    # further set bit: p - 1 products for p = 2 and 3, 30 for 65521; the
    # answers are those of p - 1 products, on a field and on a ring with a
    # nilpotent (x^3 + x + 1 is irreducible over F_2, F_5 and F_7)
    einsum, products = np.einsum, []
    for coeffs in ([1, 0, 1, 1], [1, 1, 0, 0]):
        basis, coords = ffmat.polynomial_algebra(ffmat.companion(coeffs, p), p)
        want = frobenius_reference(basis, coords, p)
        del products[:]
        with monkeypatch.context() as mp:
            mp.setattr(np, "einsum", lambda *args: products.append(args[0]) or einsum(*args))
            injective, fixed, one = ffmat.frobenius(basis, coords, p)
        assert injective == want[0] and (fixed == want[1]).all() and (one == want[2]).all()
        assert len(products) == p.bit_length() + bin(p).count("1") - 2 <= 2 * np.log2(p)
        assert p > 3 or len(products) == p - 1
    assert not injective and len(fixed) == 2  # x^2 (x + 1): the nilpotent x, two idempotents


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_monic_irreducibles_of_low_degree(p):
    # below degree 4 a polynomial of degree at least 2 is irreducible iff it has no root
    for d in (1, 2, 3):
        want = tuple((1,) + tail for tail in itertools.product(range(p), repeat=d)
                     if d == 1 or all(np.polyval((1,) + tail, x) % p for x in range(p)))
        assert ffmat.monic_irreducibles(p, d) == tuple(ffmat.iter_monic_irreducibles(p, d)) == want


def test_zassenhaus_vs_pointwise():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 5)
        p = rng.choice([2, 3])
        u = Subspace(rand_mat(rng, 2, n, p), n, p)
        w = Subspace(rand_mat(rng, 2, n, p), n, p)
        inter = u.intersect(w)
        members = [tuple(v) for v in vectors(u) if w.contains(v)]
        assert len(members) == p ** inter.dim
        for v in vectors(inter):
            assert u.contains(v) and w.contains(v)
        # the rows read off the Zassenhaus RREF are the canonical basis
        again = Subspace(inter.B, n, p)
        assert inter == again and inter.pivots == again.pivots


def test_null_space_is_the_echelon_kernel():
    rng = random.Random(5)
    for _ in range(40):
        m, n, p = rng.randrange(1, 4), rng.randrange(0, 5), rng.choice([2, 3])
        a = rand_mat(rng, m, n, p)
        k = ffmat.null_space(a, p)
        want = [v for v in ffmat.all_vectors(n, p) if not ((a @ v) % p).any()]
        assert len(want) == p ** k.dim and all(k.contains(v) for v in want)
        again = Subspace(kernel(a, p), n, p)
        assert k == again and k.pivots == again.pivots


def _reader_cases(p):
    """Random subspaces of F_p^n with random rows, plus the zero space, the
    full space and n = 0."""
    rng = random.Random(p)
    out = [(Subspace.zero(0, p), rand_mat(rng, 3, 0, p)),
           (Subspace.zero(3, p), rand_mat(rng, 4, 3, p)),
           (Subspace.full(3, p), rand_mat(rng, 4, 3, p))]
    for _ in range(12):
        n = rng.randrange(1, 5)
        s = Subspace(rand_mat(rng, rng.randrange(0, n + 1), n, p), n, p)
        rows = np.concatenate([rand_mat(rng, 4, n, p), np.array(list(vectors(s)))[:3]])
        out.append((s, rows))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pivot_readers_match_brute_force(p):
    for s, rows in _reader_cases(p):
        n = s.n
        members = {tuple(v) for v in vectors(s)}
        res = s.residues(rows)
        assert res.shape == rows.shape and not res[:, s.pivots].any()
        assert (s.residues(rows + 3 * p) == res).all()  # inputs need not be reduced mod p
        for row, r in zip(rows, res):
            # the residue is the one vector of row + S that is zero at the pivots
            coset = [tuple((row - np.array(v)) % p) for v in members]
            assert [v for v in coset if not np.array(v)[s.pivots].any()] == [tuple(r)]
            assert s.contains(row) == (tuple(row) in members) == (not r.any())
        inside = rows[np.array([tuple(row) in members for row in rows], dtype=bool)]
        c = s.coords(inside)
        assert c.shape == (len(inside), s.dim) and ((c @ s.B) % p == inside).all()
        assert (s.coords(inside + p) == c).all()
        if len(inside) < len(rows):
            with pytest.raises(VerificationFailure, match="not in here"):
                s.coords(rows, "not in here")
        ann = s.annihilator()
        want = [v for v in ffmat.all_vectors(n, p) if not ((s.B @ v) % p).any()]
        assert ann.shape == (n - s.dim, n) and Subspace(ann, n, p).dim == n - s.dim
        assert all(Subspace(ann, n, p).contains(v) for v in want) and len(want) == p ** (n - s.dim)
        assert ((rows @ ann.T) % p == res[:, s.free()]).all()  # the free entries of the residue


def test_subspace_order_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n, p = rng.randrange(0, 4), rng.choice([2, 3])
        u, w = (Subspace(rand_mat(rng, rng.randrange(0, 3), n, p), n, p) for _ in range(2))
        for a, b in ((u, w), (w, u), (u, u.sum(w)), (u.intersect(w), w)):
            want = {tuple(v) for v in vectors(a)} <= {tuple(v) for v in vectors(b)}
            assert a.leq(b) == want
