import pytest

from auskit import factor, ffmat, kronecker as kr, lattice, rep
from auskit.errors import CapExceeded, ParseError, VerificationFailure
from auskit.ffmat import identity, mat_key
from helpers import _counting, verify_table_reference


def test_preprojective_preinjective_dims(kron2):
    for i in range(5):
        assert tuple(kr.kP(kron2, i).dim_vector()) == (i + 1, i)
    for j in range(5):
        assert tuple(kr.kQ(kron2, j).dim_vector()) == (j, j + 1)
    assert rep.is_isomorphic(kr.kP(kron2, 0), kron2.simple(0))
    assert rep.is_isomorphic(kr.kP(kron2, 1), kron2.proj(1))
    assert rep.is_isomorphic(kr.kQ(kron2, 0), kron2.simple(1))
    assert rep.is_isomorphic(kr.kQ(kron2, 1), kron2.inj(0))


def test_three_arrow_preprojectives(kron3):
    assert tuple(kr.kP(kron3, 1).dim_vector()) == (3, 1)
    assert tuple(kr.kP(kron3, 2).dim_vector()) == (8, 3)
    assert tuple(kr.kQ(kron3, 2).dim_vector()) == (3, 8)


def _recurrence(n, k):
    """s_0..s_k of s_0 = 0, s_1 = 1, s_{j+1} = n s_j - s_{j-1}."""
    s = [0, 1]
    while len(s) <= k:
        s.append(n * s[-1] - s[-2])
    return s


def test_size_cap_reads_the_recurrence(monkeypatch, kron2, kron3):
    # the dimension vectors the cap reads, (s_{i+1}, s_i) for P_i and
    # (s_j, s_{j+1}) for Q_j, are those of the built modules
    for A, n in ((kron2, 2), (kron3, 3)):
        s = _recurrence(n, 5)
        for i in range(4):
            assert tuple(kr.kP(A, i).dim_vector()) == (s[i + 1], s[i])
            assert tuple(kr.kQ(A, i).dim_vector()) == (s[i], s[i + 1])
    # P_511 of kron2 is (512, 511), at the cap 1024; P_6 of kron3 is (377, 144)
    # and P_7 (987, 377); the refusal comes before any tau step
    monkeypatch.setattr(kr.ar, "tau", lambda m: pytest.fail("tau step"))
    monkeypatch.setattr(kr.ar, "tau_minus", lambda m: pytest.fail("tau step"))
    for A, fits in ((kron2, 511), (kron3, 6)):
        for name in ("kP", "kQ"):
            kr._check_size(A, name, fits)
            with pytest.raises(CapExceeded, match=r"^%s\(%d\) has total dimension above the cap 1024$"
                               % (name, fits + 1)):
                getattr(kr, name)(A, fits + 1)


def test_defects(kron2):
    assert [kr.defect(kr.kP(kron2, i)) for i in range(3)] == [-1, -1, -1]
    assert [kr.defect(kr.kQ(kron2, j)) for j in range(3)] == [1, 1, 1]
    assert kr.defect(kr.kR(kron2, 0, 2)) == 0


def test_regular_modules(kron2):
    labels = kr.tube_labels(2, 2)
    assert labels == ["inf", 0, 1, (1, 1, 1)]
    for lab in labels:
        m = kr.kR(kron2, lab, 1)
        assert m.total_dim == 2 * kr.label_degree(lab)
        assert len(rep.decompose(m)) == 1
        assert kr.tube_of(kron2, m) == lab
    # quasi-length two in the same tube, still indecomposable
    r2 = kr.kR(kron2, 1, 2)
    assert tuple(r2.dim_vector()) == (2, 2)
    assert len(rep.decompose(r2)) == 1
    assert kr.tube_of(kron2, r2) == 1
    # distinct tubes are Hom-orthogonal
    assert not rep.hom_space(kr.kR(kron2, 0, 1), kr.kR(kron2, "inf", 1))


def test_regular_tube_needs_two_arrows(kron3):
    with pytest.raises(ValueError):
        kr.kR(kron3, 0, 1)


def _jordan(lam, t, p):
    """The t x t Jordan block of lam, built entry by entry: the arrow matrix
    of a linear tube, a reference for kR's companion blocks."""
    m = (lam % p) * identity(t)
    for i in range(t - 1):
        m[i, i + 1] = 1
    return m % p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_tubes_are_jordan_blocks(p):
    A = kr.kronecker_algebra(2, p)
    for t in range(5):
        want = {"inf": rep.Rep(A, [t, t], {0: _jordan(0, t, p), 1: identity(t)})}
        want.update((lam, rep.Rep(A, [t, t], {0: identity(t), 1: _jordan(lam, t, p)})) for lam in range(p))
        for label, m in want.items():
            got = kr.kR(A, label, t)
            assert [mat_key(got.mats[a]) for a in (0, 1)] == [mat_key(m.mats[a]) for a in (0, 1)], (label, t)


def test_monic_irreducibles():
    assert ffmat.monic_irreducibles(2, 1) == ((1, 0), (1, 1))
    assert ffmat.monic_irreducibles(2, 2) == ((1, 1, 1),)
    assert len(ffmat.monic_irreducibles(3, 2)) == 3
    assert len(ffmat.monic_irreducibles(2, 3)) == 2


def _mobius(n):
    out, k = 1, 2
    while n > 1:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monic_irreducibles_gauss_count(p, d):
    gauss = sum(_mobius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
    assert len(ffmat.monic_irreducibles(p, d)) == gauss


def test_tube_labels_are_validated(kron2):
    for bad in (2, 7, (1, 0, 1), (1, 2, 1), (0, 1, 1), (1, 1), "x"):
        with pytest.raises(ParseError):
            kr.kR(kron2, bad, 1)
    assert kr.kR(kron2, (1, 1, 1), 1).total_dim == 4


def test_strongly_regular_counts(kron2):
    assert len(kr.enumerate_strongly_regular(kron2, 2)) == 3
    assert len(kr.enumerate_strongly_regular(kron2, 4)) == 7
    a3 = kr.kronecker_algebra(2, 3)
    assert len(kr.enumerate_strongly_regular(a3, 2)) == 4
    # summands inside one sum are pairwise distinct tube positions
    for m, labs in kr.enumerate_strongly_regular(kron2, 4):
        assert len(set(labs)) == len(labs)
        assert m.total_dim == 4


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_strongly_regular_count_formula(p, n):
    # one indecomposable per tube: (q^{n+1} - 1)/(q - 1) modules of dimension 2n;
    # for n = 3 two from one tube (R[lam,1] + R[lam,2]) would add q + 1 more
    A = kr.kronecker_algebra(2, p)
    fam = kr.enumerate_strongly_regular(A, 2 * n)
    assert len(fam) == (p ** (n + 1) - 1) // (p - 1)
    for m, labs in fam:
        tubes = [lab for lab, _ in labs]
        assert len(set(tubes)) == len(tubes)
        assert m.total_dim == 2 * n


def test_shape_table(kron2):
    rows, ok = kr.verify_table(2, max_sum=2, max_t=2)
    assert ok
    by_pair = {(r["c"], r["y"]): r for r in rows}
    assert by_pair[("P0", "P2")]["shape"] == ("G", 3, 2)
    assert by_pair[("P0", "Q1")]["hom_dim"] == 1
    assert by_pair[("R[inf,2]", "R[inf,2]")]["shape"] == ("I", 2)
    assert by_pair[("R[0,1]", "Q1")]["shape"] == ("I", 1)
    assert by_pair[("Q2", "Q0")]["shape"] == ("G", 3, 2)
    # a pair from different tubes
    assert by_pair[("R[0,1]", "R[1,1]")]["hom_dim"] == 0


def test_shape_table_tests_irreducibility_three_times(monkeypatch):
    # over F_3 the draw of the quadratic tube label tests x^2 and x^2 + 1, and
    # its tube modules test x^2 + 1 once, as the first kR(x^2 + 1, 1) is
    # memoized; building every tube module per row tested it 10 times in all
    calls = []
    monkeypatch.setattr(ffmat, "poly_is_irreducible", _counting(ffmat.poly_is_irreducible, calls))
    assert kr.verify_table(3)[1]
    assert [tuple(c) for c, _ in calls] == [(0, 0, 1), (1, 0, 1), (1, 0, 1)]  # ascending: x^2, x^2 + 1


def test_shape_table_matches_the_loop_nests(monkeypatch):
    """The family-pair table asks for the same rows, in the same order, on the
    same modules, as one loop nest per family; edge caps included."""
    calls = []

    def recording(A, c, y, cdesc, ydesc, want_dim, want_shape):
        calls.append((cdesc, ydesc, want_dim, want_shape, c.key(), y.key()))
        return {"c": cdesc, "y": ydesc, "ok": True}

    monkeypatch.setattr(kr, "_shape_row", recording)
    for p in (2, 3, 5):
        for max_sum in (-1, 0, 1, 2, 4):
            for max_t in (-1, 0, 1, 2, 4):
                got = kr.verify_table(p, max_sum, max_t)
                got_calls, calls[:] = calls[:], []
                want = verify_table_reference(p, max_sum, max_t)
                assert got == want and got_calls == calls, (p, max_sum, max_t)
                calls.clear()


def test_sigma_check(kron2):
    rpt = kr.sigma_check(kron2, 2, 0)
    assert rpt["ok"] and rpt["classes"] == 3 and rpt["family"] == 3

    rpt = kr.sigma_check(kron2, 0, 1)
    assert rpt["ok"] and rpt["classes"] == 1 and rpt["dim"] == 0


def test_sigma_check_dimension_six(kron2):
    # 15 length-one classes P_3 -> Q_1 against the 15 strongly regular modules of dimension 6
    rpt = kr.sigma_check(kron2, 3, 1)
    assert rpt["ok"] and rpt["classes"] == 15 and rpt["family"] == 15 and rpt["dim"] == 6


def test_maximal_submodules_of_q1_are_strongly_regular(kron2):
    q1 = kr.kQ(kron2, 1)
    maxes = lattice.maximal_submodules(q1)
    fam = kr.enumerate_strongly_regular(kron2, 2)
    assert len(maxes) == 3 and len(fam) == 3
    hits = [[rep.is_isomorphic(s, m) for m, _ in fam] for s, _ in maxes]
    assert all(sum(row) == 1 for row in hits)
    assert all(any(col) for col in zip(*hits))


def test_three_arrow_length_one_classes(kron3):
    c, y = kr.kP(kron3, 2), kr.kQ(kron3, 0)
    fl = factor.FactorizationLattice.build(c, y)
    assert len(fl.lat) == 16  # all subspaces of a 3-dim hom space over F_2
    ones = fl.length_one_indices()
    assert len(ones) == 7
    srcs = [fl.classes[k].f.src for k in ones]
    for s in srcs:
        assert tuple(s.dim_vector()) == (1, 1)
        assert len(rep.decompose(s)) == 1
    for a in range(len(srcs)):
        for b in range(a):
            assert not rep.is_isomorphic(srcs[a], srcs[b])
    assert factor.is_cofork([fl.classes[k].f for k in ones])
