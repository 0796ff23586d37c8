import random

import numpy as np

from auskit import ffmat
from auskit.ffmat import (
    Subspace,
    charpoly,
    enumerate_subspaces,
    gaussian_binomial,
    kernel,
    minpoly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    rank,
    rref,
    solve_all,
)
from helpers import rand_mat


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
        assert not ffmat.poly_eval_mat(cp, a, p).any()


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
        _, rem = poly_divmod(charpoly(a, p), mp, p)
        assert ffmat.poly_deg(rem) == -1
        assert not ffmat.poly_eval_mat(mp, a, p).any()


def test_poly_arithmetic():
    # (x+1)^2 = x^2+1 over F_2
    assert poly_mul([1, 1], [1, 1], 2).tolist() == [1, 0, 1]
    g = poly_gcd([1, 0, 1], [1, 1], 2)
    assert g.tolist() == [1, 1]
    q, r = poly_divmod([1, 0, 0, 1], [1, 1], 2)  # x^3+1 = (x+1)(x^2+x+1)
    assert r.tolist() == [0]
    assert q.tolist() == [1, 1, 1]


def test_zassenhaus_vs_pointwise():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 5)
        p = rng.choice([2, 3])
        u = Subspace(rand_mat(rng, 2, n, p), n, p)
        w = Subspace(rand_mat(rng, 2, n, p), n, p)
        inter = u.intersect(w)
        members = [tuple(v) for v in u.vectors() if w.contains(v)]
        assert len(members) == p ** inter.dim
        for v in inter.vectors():
            assert u.contains(v) and w.contains(v)

