"""The per-algebra answer memo: content keys, answers re-based onto the
caller's modules, nothing stored from a failed computation."""

import numpy as np
import pytest

from auskit import algebra, ar, catalog, determine, factor, ffmat, kronecker as kr, rep
from auskit.errors import ParseError, VerificationFailure
from auskit.ffmat import mat_key
from helpers import _counting, _twin, fresh_instance


def _kron2_f3():
    return kr.kronecker_algebra(2, 3)


def _modules(A):
    """Modules with distinct contents: indecomposables and a direct sum."""
    ms = [kr.kP(A, 1), kr.kP(A, 2), kr.kQ(A, 1), kr.kR(A, 0, 2), A.simple(0)]
    return ms + [rep.direct_sum(A, [ms[0], ms[3], ms[4]])[0]]


def test_rep_content_is_read_only(kron2):
    x = kron2.proj("b")
    assert x.key() is x.key()  # computed once and kept
    with pytest.raises(ValueError):
        x.mats[0][0, 0] = 1


def test_hit_is_built_on_the_callers_reps():
    A = _kron2_f3()
    x, y = kr.kP(A, 2), kr.kQ(A, 1)
    first = rep.hom_space(x, y)
    x2, y2 = _twin(x), _twin(y)
    hits = A.memo_stats()["hom"][0]
    hom = rep.hom_space(x2, y2)
    assert A.memo_stats()["hom"][0] == hits + 1
    assert hom.x is x2 and hom.y is y2
    assert all(f.src is x2 and f.tgt is y2 for f in hom)
    assert (hom.matrix == first.matrix).all()

    m = rep.direct_sum(A, [kr.kP(A, 1), kr.kR(A, 0, 2), A.simple(0)])[0]
    parts = rep.decompose(m)
    m2 = _twin(m)
    parts2 = rep.decompose(m2)
    assert [s.key() for s, _, _ in parts2] == [s.key() for s, _, _ in parts]
    total = rep.zero_morphism(m2, m2)
    for s, u, r in parts2:
        assert u.tgt is m2 and r.src is m2 and u.src is s and r.tgt is s
        u.check()
        r.check()
        assert (r.compose(u).flat() == rep.identity_morphism(s).flat()).all()
        total = total.add(u.compose(r))
    assert (total.flat() == rep.identity_morphism(m2).flat()).all()

    # covers are not memoized: each is built on the module it covers
    q = kr.kQ(A, 1)
    ar.tau_minus(q)
    q2 = _twin(q)
    p0, cover, _ = ar.proj_cover(q2)
    assert cover.tgt is q2 and cover.src is p0 and cover.is_epi()
    cover.check()

    # an indecomposable whose decomposition came from the memo still has its radical
    r = kr.kR(A, 0, 2)
    rep.decompose(r)
    r2 = _twin(r)
    ed, rad = rep.end_radical(r2)
    assert ed.x is r2 and ed.basis.x is r2
    assert (ed.dim, rad.dim) == (2, 1)  # End = F_3[t]/t^2


def _answers(A):
    ms = _modules(A)
    return {m.key(): ([rep.hom_space(m, n).matrix for n in map(_twin, ms)],
                      [s.dim_vector() for s, _, _ in rep.decompose(m)],
                      ar.tau(m).key(), ar.tau_minus(m).key(), ar.proj_cover(m)[0].key())
            for m in map(_twin, ms)}


def _same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        (ha, *ra), (hb, *rb) = a[k], b[k]
        assert ra == rb
        assert len(ha) == len(hb) and all((u == v).all() for u, v in zip(ha, hb))


def test_answers_equal_a_fresh_unmemoized_algebra(monkeypatch):
    A = _kron2_f3()
    first = _answers(A)
    before = A.memo_stats()
    again = _answers(A)  # every answer read back from the memo
    after = A.memo_stats()
    assert all(after[k][1] == before[k][1] for k in after)
    with monkeypatch.context() as mp:
        mp.setattr(algebra.Algebra, "memoized", lambda self, key, compute: compute())
        fresh = _kron2_f3()
        want = _answers(fresh)
        assert fresh._memo == {}
    _same(first, want)
    _same(again, want)


def test_hom_rows_are_stored_compactly(kron2):
    for A in (kron2, _kron2_f3()):
        x, y = A.proj(1), A.inj(0)
        rep.hom_space(x, y)
        rows = A._memo[("hom", x.key(), y.key())]
        assert rows.dtype == np.min_scalar_type(A.p - 1) == np.uint8
        assert rows.shape == (2, 4)


def _stored_arrays(v):
    if isinstance(v, np.ndarray):
        yield v
    elif isinstance(v, (tuple, list)):
        for w in v:
            yield from _stored_arrays(w)


def test_stored_arrays_own_their_data():
    # a view would keep the whole RREF that built it alive (the generator
    # sections, the lifts)
    A = _kron2_f3()
    _answers(A)
    arrays = [(k[0], a) for k, v in A._memo.items() for a in _stored_arrays(v)]
    assert {"gens", "hom"} <= {kind for kind, _ in arrays}
    assert all(a.base is None for _, a in arrays)


def test_failed_decomposition_leaves_nothing_behind(monkeypatch):
    A = _kron2_f3()
    m = rep.direct_sum(A, [kr.kP(A, 1), kr.kR(A, 0, 2), A.simple(0)])[0]
    real, calls = rep._split_or_certify, []

    def fail_late(ed):  # the first split succeeds, the walk fails below it
        calls.append(ed)
        if len(calls) > 1:
            raise VerificationFailure("injected")
        return real(ed)

    monkeypatch.setattr(rep, "_split_or_certify", fail_late)
    with pytest.raises(VerificationFailure, match="injected"):
        rep.decompose(m)
    assert len(calls) == 2
    assert not [k for k in A._memo if k[0] == "decompose"]
    monkeypatch.undo()
    assert len(rep.decompose(m)) == 3
    assert ("decompose", m.key()) in A._memo


def test_split_verdict_runs_once_per_content(monkeypatch):
    # the walk this replaced asked for a verdict at every node of every split
    # tree, and end_radical re-based a verdict kept on the module: 8 calls on
    # 5 contents here, where the memo by content makes 5
    A = _kron2_f3()
    x, y = kr.kR(A, 0, 2), kr.kP(A, 1)
    calls = []
    monkeypatch.setattr(rep, "_split_or_certify", _counting(rep._split_or_certify, calls))
    m = rep.direct_sum(A, [x, x, y])[0]
    xx = rep.direct_sum(A, [x, x])[0]
    rep.decompose(m)
    rep.decompose(_twin(m))
    for mod in (m, xx):
        for s, _, _ in rep.decompose(mod):
            rep.end_radical(s)
    keys = [ed.x.key() for (ed,) in calls]
    assert len(keys) == len(set(keys)) == 5


def test_failed_tau_minus_leaves_nothing_behind(monkeypatch):
    A = _kron2_f3()
    q = kr.kQ(A, 1)
    calls = []

    def never_epi(f):
        calls.append(f)
        return False

    monkeypatch.setattr(rep.Morphism, "is_epi", never_epi)
    with pytest.raises(VerificationFailure, match="not onto"):
        ar.tau_minus(q)
    assert len(calls) == 1
    assert not [k for k in A._memo if k[0] == "tau_minus"]
    monkeypatch.undo()
    ar.tau_minus(q)
    assert ("tau_minus", q.key()) in A._memo


def test_tau_is_memoized(monkeypatch):
    # the table asks for tau of Q_2 and Q_3 on every row that has them: four
    # transposes in all (two for tau, two for tau_minus), 28 without the memo
    calls = []
    monkeypatch.setattr(ar, "transpose", _counting(ar.transpose, calls))
    assert kr.verify_table(2, 3, 3)[1]
    assert len(calls) <= 4


def test_rad_is_computed_once_per_module(monkeypatch):
    # the missing-projective filter reads rad P(v) for each candidate that
    # passes the socle test at a vertex v whose rad P(v) is not projective
    # (onepoint-ext-ex19; a hereditary build reads no radical); on a fresh
    # algebra one build computes each radical once
    A, c, y = fresh_instance("onepoint-ext-ex19")
    calls = []
    monkeypatch.setattr(rep, "_rad", _counting(rep._rad, calls))
    factor.FactorizationLattice.build(c, y)
    keys = [x.key() for x, in calls]
    assert keys and len(keys) == len(set(keys))
    hits, misses = A.memo_stats()["rad"]
    assert misses == len(keys) and hits > misses
    # a hit is re-based onto the caller's module
    x = _twin(calls[0][0])
    r, incl = rep.rad(x)
    assert incl.tgt is x and incl.src is r and incl.is_mono()


def test_second_identical_check_instance_misses_nothing():
    A = catalog.resolve_instance("loop-b-ex8")[0]
    assert catalog.check_instance("loop-b-ex8")["ok"]
    before = A.memo_stats()
    assert catalog.check_instance("loop-b-ex8")["ok"]
    after = A.memo_stats()
    assert set(after) == set(before) >= {"hom", "decompose", "proj"}
    for kind, (hits, misses) in after.items():
        assert misses == before[kind][1], kind
    assert sum(h for h, _ in after.values()) > sum(h for h, _ in before.values())


def _simple_facts(gh):
    classes, eps, rads, residue = gh.simple_data()
    return ([[s.key() for s in cl] for cl in classes], [mat_key(m) for m in eps], [mat_key(m) for m in rads],
            residue)


def _simple_pair(A):
    """C with a repeated summand whose radical is nonzero (End R[0,2] =
    F_3[t]/t^2), and two targets with different actions of End(C)."""
    c = rep.direct_sum(A, [kr.kP(A, 1), kr.kR(A, 0, 2), kr.kR(A, 0, 2)])[0]
    return c, [kr.kQ(A, 1), kr.kR(A, 0, 1)]


def test_twin_module_hits_the_c_side_of_simple_data():
    A = _kron2_f3()
    c, ys = _simple_pair(A)
    determine.GammaHom(c, ys[0]).simple_data()
    assert A.memo_stats()["simple"] == (0, 1)
    for k, y in enumerate(ys):
        gh = determine.GammaHom(_twin(c), _twin(y))
        got = _simple_facts(gh)
        assert A.memo_stats()["simple"] == (k + 1, 1)
        cold = _kron2_f3()
        c2, ys2 = _simple_pair(cold)
        want = _simple_facts(determine.GammaHom(c2, ys2[k]))
        assert cold.memo_stats()["simple"] == (0, 1)
        assert got == want
        assert [len(cl) for cl in got[0]] == [1, 2] and got[3] == [1, 1] and len(got[2]) == 1
    # a caller's lists are its own
    gh.simple_data()[0].clear()
    assert len(determine.GammaHom(c, ys[0]).simple_data()[0]) == 2


def test_failed_simple_data_leaves_nothing_behind(monkeypatch):
    A = _kron2_f3()
    c, ys = _simple_pair(A)
    gh = determine.GammaHom(c, ys[0])
    calls = []

    def fail(x):
        raise VerificationFailure("injected")

    monkeypatch.setattr(rep, "end_radical", _counting(fail, calls))
    with pytest.raises(VerificationFailure, match="injected"):
        gh.simple_data()
    assert len(calls) == 1
    assert not [k for k in A._memo if k[0] == "simple"]
    monkeypatch.undo()
    assert len(gh.simple_data()[0]) == 2
    assert A.memo_stats()["simple"] == (0, 2)
    stored = A._memo[("simple", c.key())]
    assert isinstance(stored, tuple) and all(isinstance(cl, tuple) for cl in stored[0])
    assert not stored[2].flags.writeable and stored[2].base is None


def test_kr_is_one_module_per_label_and_length():
    A = _kron2_f3()
    forms = [(1, np.int64(1), np.int8(1)), ("inf",), ((1, 0, 1), [1, 0, 1], (np.int64(1), 0, 1))]
    for same in forms:
        for t in (1, 2):
            first = kr.kR(A, same[0], t)
            assert all(kr.kR(A, lab, t) is first for lab in same)
            assert all(kr.kR(A, lab, np.int64(t)) is first for lab in same)
    assert A.memo_stats()["kR"][1] == len(forms) * 2
    assert kr.kR(A, 1, 1) is not kr.kR(A, 2, 1) and kr.kR(A, 0, 1) is not kr.kR(A, "inf", 1)


def test_invalid_kr_label_raises_on_every_call(monkeypatch):
    A = _kron2_f3()
    calls = []
    monkeypatch.setattr(ffmat, "poly_is_irreducible", _counting(ffmat.poly_is_irreducible, calls))
    for k in range(1, 3):
        for bad in ((1, 0, 2), [1, 0, 2]):  # x^2 + 2 = (x - 1)(x + 1) over F_3
            with pytest.raises(ParseError, match="not a monic irreducible"):
                kr.kR(A, bad, 1)
        assert len(calls) == 2 * k
    for bad in (3, -1, "x", (1, 3, 1), (1, 1), ([1], 0, 1)):  # no irreducibility test needed
        for _ in range(2):
            with pytest.raises(ParseError):
                kr.kR(A, bad, 1)
    assert len(calls) == 4
    assert not [key for key in A._memo if key[0] == "kR"]
    assert A.memo_stats()["kR"] == (0, 4 + 2 * 4)  # the integers outside F_3 never reach the memo


def test_shape_table_builds_each_c_side_and_tube_module_once(monkeypatch):
    # 111 + 138 rows over 18 + 21 modules C, and 10 + 13 tube modules
    for p, n_c, n_r in ((2, 18, 10), (3, 21, 13)):
        algs, make_algebra = [], kr.kronecker_algebra
        monkeypatch.setattr(kr, "kronecker_algebra", lambda *a: algs.append(make_algebra(*a)) or algs[-1])
        rows, ok = kr.verify_table(p, 3, 3)
        monkeypatch.undo()
        assert ok
        names = {r["c"] for r in rows}
        tubes = {n for r in rows for n in (r["c"], r["y"]) if n.startswith("R[")}
        stats = algs[0].memo_stats()
        assert (len(names), len(tubes)) == (n_c, n_r)
        assert stats["simple"] == (len(rows) - n_c, n_c)
        assert stats["kR"][1] == n_r
