"""Representation-level operations: hom spaces, subquotients, decomposition,
right minimalization and the right-factorization order."""

import itertools
import random

import numpy as np
import pytest

from auskit import algebra, ar, catalog, ffmat, kronecker as kr, rep
from auskit.errors import VerificationFailure
from helpers import (BasisHom, _counting, catalog_lattice, charpoly_reference, decompose_reference, meet_map, pullback,
                     rebased, yoneda)


def dv(m):
    return m.dim_vector()


def test_hom_dims_a2(a2):
    pa, pb, qa = a2.proj("a"), a2.proj("b"), a2.inj("a")
    assert len(rep.hom_space(pa, pb)) == 1
    assert len(rep.hom_space(pb, pa)) == 0
    assert len(rep.hom_space(pb, qa)) == 1
    assert len(rep.hom_space(qa, qa)) == 1
    for f in rep.hom_space(pa, pb):
        f.check()


def test_hom_dims_kron2(kron2):
    pa, pb = kron2.proj("a"), kron2.proj("b")
    assert len(rep.hom_space(pa, pb)) == 2
    assert len(rep.hom_space(pb, pa)) == 0
    d, _, _ = rep.direct_sum(kron2, [pa, pb])
    assert len(rep.end_algebra(d)) == 4


def test_kernel_image_cokernel(a2):
    r = a2.right_mult(0)
    k, _ = rep.kernel(r)
    assert dv(k) == (0, 0)
    i, incl, onto = rep.image(r)
    assert dv(i) == (1, 0)
    assert incl.compose(onto).key() == r.key()
    c, proj = rep.cokernel(r)
    assert dv(c) == (0, 1)
    proj.check()


def test_rad_soc_top(a3lin):
    pc = a3lin.proj("c")
    assert dv(rep.rad(pc)[0]) == (1, 1, 0)
    assert dv(rep.soc(pc)[0]) == (1, 0, 0)
    assert dv(rep.top(pc)[0]) == (0, 0, 1)
    st = rep.structure(pc)
    assert st["radical_series"] == [(1, 1, 1), (1, 1, 0), (1, 0, 0)]


def test_soc_of_injective(kron2):
    qa = kron2.inj("a")
    s, incl = rep.soc(qa)
    assert dv(s) == (1, 0)
    q, _ = rep.cokernel(incl)
    assert dv(q) == (0, 2)


def test_decompose_projective_sum(a2):
    pa, pb = a2.proj("a"), a2.proj("b")
    d, _, _ = rep.direct_sum(a2, [pa, pb, pa])
    parts = rep.decompose(d)
    assert sorted(dv(s) for s, _, _ in parts) == [(1, 0), (1, 0), (1, 1)]
    classes = rep.iso_classes([s for s, _, _ in parts])
    assert sorted(len(cl) for cl in classes) == [1, 2]


def test_decompose_indecomposable(loopb):
    qa = loopb.inj("a")
    parts = rep.decompose(qa)
    assert len(parts) == 1
    pb = loopb.proj("b")
    parts = rep.decompose(rep.direct_sum(loopb, [qa, pb])[0])
    assert sorted(dv(s) for s, _, _ in parts) == [(2, 1), (2, 2)]


def test_is_isomorphic(a2):
    pa, pb, qa = a2.proj("a"), a2.proj("b"), a2.inj("a")
    assert rep.is_isomorphic(pb, qa)
    assert rep.is_isomorphic(pa, a2.simple("a"))
    assert not rep.is_isomorphic(a2.simple("a"), a2.simple("b"))
    d1 = rep.direct_sum(a2, [pa, pb])[0]
    d2 = rep.direct_sum(a2, [pb, pa])[0]
    assert rep.is_isomorphic(d1, d2)
    assert not rep.is_isomorphic(d1, rep.direct_sum(a2, [pa, pa])[0])


@pytest.mark.parametrize("p", [2, 3])
def test_isomorphism_reads_summand_multiplicities(p):
    # R[0,1]^2 + R[1,1] and R[0,1] + R[1,1]^2 share the dimension vector (3,3)
    A = kr.kronecker_algebra(2, p)
    r0, r1 = kr.kR(A, 0, 1), kr.kR(A, 1, 1)
    x = rep.direct_sum(A, [r0, r0, r1])[0]
    y = rep.direct_sum(A, [r0, r1, r1])[0]
    assert x.dim_vector() == y.dim_vector() == (3, 3)
    assert not rep.is_isomorphic(x, y)
    rng = random.Random(p)
    for parts in ([r0, r0, r1], [r0, r1, r1]):
        shuffled = [rebased(m, rng) for m in rng.sample(parts, len(parts))]
        mixed = rebased(rep.direct_sum(A, shuffled)[0], rng)  # no longer block diagonal
        assert rep.is_isomorphic(rep.direct_sum(A, parts)[0], mixed)
    classes = rep.summand_classes([x, y, r1])
    assert sorted((cl.count(0), cl.count(1), cl.count(2)) for cl in classes) == [(1, 2, 1), (2, 1, 0)]


def test_right_minimalize(a2):
    pa, pb, qa = a2.proj("a"), a2.proj("b"), a2.inj("a")
    f1 = yoneda(a2, "b", qa, [1])
    d, incls, projs = rep.direct_sum(a2, [pb, pa])
    f = f1.compose(projs[0])
    fmin, split = rep.right_minimalize(f)
    assert dv(fmin.src) == (1, 1)
    assert split.is_epi() and dv(split.src) == (2, 1)
    assert fmin.compose(split).key() == f.key()
    assert fmin.is_iso()
    # an already-minimal map stays put
    g, split2 = rep.right_minimalize(f1)
    assert split2.is_iso() and dv(g.src) == (1, 1)


def test_right_leq_and_equivalence(a2):
    qa = a2.inj("a")
    f1 = yoneda(a2, "b", qa, [1])
    s, incl = rep.soc(qa)
    ok, h = rep.right_leq(incl, f1)
    assert ok
    assert f1.compose(h).key() == incl.key()
    ok2, _ = rep.right_leq(f1, incl)
    assert not ok2
    assert rep.right_equivalent(f1, f1)
    assert not rep.right_equivalent(f1, incl)


def test_pullback_meet(a2):
    qa = a2.inj("a")
    s, incl = rep.soc(qa)
    pb, pX, pZ = pullback(incl, incl)
    assert dv(pb) == (1, 0)
    m = meet_map(incl, incl)
    assert dv(m.src) == (1, 0) and m.tgt is qa
    i, _, _ = rep.image(m)
    assert dv(i) == (1, 0)


def test_join_map(a2):
    qa = a2.inj("a")
    f1 = yoneda(a2, "b", qa, [1])
    s, incl = rep.soc(qa)
    j = rep.join_map(f1, incl)
    assert j.is_epi()
    i, _, _ = rep.image(j)
    assert dv(i) == (1, 1)


def test_morphism_checks(a2):
    pb, qa = a2.proj("b"), a2.inj("a")
    f = yoneda(a2, "b", qa, [1])
    assert f.check() is f
    bad = rep.Morphism(pb, qa, [np.array([[1]]), np.array([[0]])])
    with pytest.raises(VerificationFailure):
        bad.check()


def test_zero_module_is_the_empty_direct_sum():
    for name in catalog.algebra_names():
        A = catalog.load_catalog_algebra(name)
        for alg in (A, A.opposite()):
            # no dimension anywhere and a 0 x 0 matrix on every arrow
            want = ((0,) * alg.nv,) + (((0, 0), b""),) * len(alg.quiver.arrows)
            d, incls, projs = rep.direct_sum(alg, [])
            assert d.key() == want and rep.zero_rep(alg).key() == want, alg.name
            assert d.A is alg and incls == [] and projs == [], alg.name


def test_zero_and_identity(a3lin):
    pc = a3lin.proj("c")
    z = rep.zero_morphism(pc, pc)
    assert z.is_zero()
    e = rep.identity_morphism(pc)
    assert e.is_iso()
    assert e.compose(z).is_zero()


def test_compose_mismatch_raises(a2):
    pa, pb = a2.proj("a"), a2.proj("b")
    with pytest.raises(VerificationFailure):
        rep.identity_morphism(pa).compose(rep.identity_morphism(pb))


# --- the splitting engine against exhaustive search ---------------------------

UNI3_F3 = "field 3\nvertices a\narrow x a a\nrelation x*x*x\n"


def _end_elements(x):
    basis = rep.end_algebra(x)
    for coeffs in itertools.product(range(x.p), repeat=len(basis)):
        f = rep.zero_morphism(x, x)
        for c, b in zip(coeffs, basis):
            if c:
                f = f.add(b.scale(c))
        yield f


def _brute_summands(x):
    """Number of indecomposable summands, by exhaustive idempotent search."""
    if x.total_dim == 0:
        return 0
    one = rep.identity_morphism(x)
    for e in _end_elements(x):
        if e.is_zero() or (e.flat() == one.flat()).all():
            continue
        if (e.compose(e).flat() == e.flat()).all():
            rest = one.add(e.scale(x.p - 1))
            return _brute_summands(rep.image(e)[0]) + _brute_summands(rep.image(rest)[0])
    return 1


def _nonunit_coords(ed):
    """Coordinates of the non-units of End(X), which form rad End(X) when it is local."""
    return [c for c in itertools.product(range(ed.p), repeat=ed.dim)
            if not ed.basis.element(np.array(c)).is_iso()]


def _f3_kron2():
    return kr.kronecker_algebra(2, 3)


def _oracle_modules(a2, kron2, loopb, uni4):
    uni3 = algebra.parse_algebra_file(UNI3_F3, name="uniserial-3-f3")
    k3 = _f3_kron2()
    f4 = kr.kR(kron2, (1, 1, 1), 1)
    f8 = kr.kR(kron2, (1, 0, 1, 1), 1)
    sa, sa3 = a2.simple("a"), k3.simple(0)
    return {
        # local, residue field F_p
        "uni4-P": uni4.proj("a"),
        "loopb-Q(a)": loopb.inj("a"),
        "uni3-F3-P": uni3.proj("a"),
        "kron2-F3-R[0,2]": kr.kR(k3, 0, 2),
        # local, residue field F_4
        "kron2-R[(1,1,1),1]": f4,
        "kron2-R[(1,1,1),2]": kr.kR(kron2, (1, 1, 1), 2),
        # commutative End/J
        "a2-P(b)+S(a)": rep.direct_sum(a2, [a2.proj("b"), sa])[0],
        "kron2-F3-P0+P1": rep.direct_sum(k3, [kr.kP(k3, 0), kr.kP(k3, 1)])[0],
        # End/J = M_2(F_p), M_2(F_4) and M_2(F_8)
        "a2-S+S": rep.direct_sum(a2, [sa, sa])[0],
        "kron2-F3-S+S": rep.direct_sum(k3, [sa3, sa3])[0],
        "kron2-R+R": rep.direct_sum(kron2, [f4, f4])[0],
        "kron2-R3+R3": rep.direct_sum(kron2, [f8, f8])[0],
        "a2-S+S+P(b)": rep.direct_sum(a2, [sa, sa, a2.proj("b")])[0],
    }


def test_decompose_matches_exhaustive_search(a2, kron2, loopb, uni4):
    for name, x in _oracle_modules(a2, kron2, loopb, uni4).items():
        want = _brute_summands(x)
        parts = rep.decompose(x)
        assert len(parts) == want, name
        for s, _, _ in parts:
            ed, rad = rep.end_radical(s)
            assert _brute_summands(s) == 1, name
            # J is exactly the set of non-units of the local ring End(S)
            nonunits = _nonunit_coords(ed)
            assert len(nonunits) == x.p ** rad.dim, name
            assert all(rad.contains(np.array(c)) for c in nonunits), name


def test_local_residue_fields(kron2):
    for t, res in ((1, 2), (2, 2)):
        ed, rad = rep.end_radical(kr.kR(kron2, (1, 1, 1), t))
        assert ed.dim - rad.dim == res  # End/J = F_4
    ed, rad = rep.end_radical(algebra.parse_algebra_file(UNI3_F3).proj("a"))
    assert (ed.dim, rad.dim) == (3, 2)  # F_3[x]/x^3
    with pytest.raises(VerificationFailure):
        rep.end_radical(rep.direct_sum(kron2, [kron2.simple(0)] * 2)[0])


def test_radical_chain_reads_one_charpoly_stack_per_step(kron2, monkeypatch):
    calls = []
    monkeypatch.setattr(ffmat, "charpoly", _counting(ffmat.charpoly, calls))
    rad = rep._max_nil_ideal(rep.EndData(kr.kR(kron2, 0, 2)))
    assert len(calls) == 3 and rad.dim == 1


def _looped_charpoly(a, p):
    """ffmat.charpoly over a stack, one charpoly_reference call per matrix."""
    n = a.shape[-1]
    polys = [charpoly_reference(m, p) for m in np.reshape(a, (-1, n, n))]
    return np.array(polys, dtype=np.int64).reshape(a.shape[:-2] + (n + 1,))


def test_radical_chain_matches_the_reference_charpoly(monkeypatch):
    eds = {}
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        for s, _, _ in rep.decompose(c) + rep.decompose(y):
            ed = rep.EndData(s)
            if ed.dim >= 2:
                eds.setdefault(s.key(), ed)
    assert eds
    fast = {k: rep._max_nil_ideal(ed).key() for k, ed in eds.items()}
    monkeypatch.setattr(ffmat, "charpoly", _looped_charpoly)
    assert fast == {k: rep._max_nil_ideal(ed).key() for k, ed in eds.items()}


def _endo(x, total):
    m, off = np.array(total) % x.p, x.offsets()
    return rep.Morphism(x, x, [m[off[v] : off[v + 1], off[v] : off[v + 1]] for v in range(len(x.dims))])


def _total(ed, f):
    """The total matrix of an endomorphism, read from its End(X) coordinates."""
    return ed.to_mats(ed.basis.coords(f.flat()[None]))[0]


def _shift_proof_basis(x, candidates):
    """A basis of End(X) drawn from elements none of whose shifts a - lambda split."""
    p, ed = x.p, rep.EndData(x)
    rows = []
    for f in candidates:
        if rep._fitting_split(_total(ed, f), p) is None:
            trial = ffmat.Subspace(np.array(rows + [f.flat()]), len(f.flat()), p)
            if trial.dim > len(rows):
                rows.append(f.flat())
                yield f


def test_kernel_image_cokernel_run_no_elimination_per_arrow(kron2, monkeypatch):
    # one RREF per vertex span and none per arrow: a kernel vertex reads its
    # span off the RREF that finds its nullspace, the arrow action and the
    # onto map are read at the pivots, and the projection is the annihilator
    # of the echelon rows
    r = kr.kR(kron2, 0, 2)
    f = rep.hom_space(r, r)[0]
    nv = len(r.dims)
    calls = []
    monkeypatch.setattr(ffmat, "rref", _counting(ffmat.rref, calls))
    for fn, want in ((rep.kernel, nv), (rep.image, nv), (rep.cokernel, nv)):
        del calls[:]
        assert fn(f)[0].dim_vector() == (1, 1)
        assert len(calls) == want, fn.__name__


def test_pivot_readers_keep_their_certificates(kron2, monkeypatch):
    r = kr.kR(kron2, 0, 2)
    f = rep.hom_space(r, r)[0]
    # spans that the arrows leave
    with pytest.raises(VerificationFailure, match="not closed under arrow action"):
        rep._sub_rep(r, [ffmat.Subspace.zero(2, r.p), ffmat.Subspace.full(2, r.p)])
    # a map that kills the image of f descends along the cokernel; one that does not, not
    q, proj = rep.cokernel(f)
    assert ar._descend(proj, proj).key() == rep.identity_morphism(q).key()
    with pytest.raises(VerificationFailure, match="does not descend"):
        ar._descend(rep.identity_morphism(r), proj)
    # image spans that miss the columns of f
    real = ffmat.Subspace
    monkeypatch.setattr(ffmat, "Subspace", lambda rows, n, p: real.zero(n, p))
    with pytest.raises(VerificationFailure, match="does not factor through its image"):
        rep.image(f)


def test_commutative_split_driven_directly(monkeypatch):
    # End = F_9 x F_9 for two regular modules from distinct degree-2 tubes
    k3 = _f3_kron2()
    labs = ffmat.monic_irreducibles(3, 2)[:2]
    x = rep.direct_sum(k3, [kr.kR(k3, lab, 1) for lab in labs])[0]
    basis = list(_shift_proof_basis(x, _end_elements(x)))
    assert len(basis) == len(rep.end_algebra(x)) == 4
    calls = []
    monkeypatch.setattr(rep, "end_algebra", _counting(lambda x: BasisHom(x, x, basis), calls))
    monkeypatch.setattr(rep, "SPLIT_CANDIDATES", 0)  # no random candidates
    ed = rep.EndData(x)
    assert len(calls) == 1
    # no basis element splits, so the split below comes from the Frobenius branch
    assert all(rep._fitting_split(a, 3) is None for a in ed.mats)
    e, rad = rep._split_or_certify(ed)
    assert rad is None
    f = rep._split(ed, e)[0]
    assert not f.is_zero() and not f.is_iso()


def test_noncommutative_fallback_driven_directly(a2, monkeypatch):
    # End(S + S) = M_2(F_2) on a basis where no a - lambda splits
    sa = a2.simple("a")
    x = rep.direct_sum(a2, [sa, sa])[0]
    mats = ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [1, 1]], [[1, 1], [1, 0]])
    basis = [_endo(x, m) for m in mats]
    calls = []
    monkeypatch.setattr(rep, "end_algebra", _counting(lambda x: BasisHom(x, x, basis), calls))
    ed = rep.EndData(x)
    assert len(calls) == 1
    assert all(rep._fitting_split(a, 2) is None for a in ed.mats)
    e, rad = rep._split_or_certify(ed)
    assert rad is None
    f = rep._split(ed, e)[0]
    assert not f.is_zero() and not f.is_iso()
    # with the candidate budget spent, the search raises instead of answering
    monkeypatch.setattr(rep, "SPLIT_CANDIDATES", 0)
    with pytest.raises(VerificationFailure, match="within 0 candidates"):
        rep._split_or_certify(ed)


def test_fallback_splits_without_rational_eigenvalues(kron2, monkeypatch):
    # End(R + R) = M_2(F_8) for R on a degree-3 tube; diag(b, b^-1) has no
    # eigenvalue in F_2, and b, b^-1 have distinct minimal polynomials
    r = kr.kR(kron2, (1, 0, 1, 1), 1)
    x, incls, projs = rep.direct_sum(kron2, [r, r])
    one = rep.identity_morphism(r)
    b = next(h for h in rep.end_algebra(r) if (h.flat() != one.flat()).any())
    binv = b
    for _ in range(5):
        binv = binv.compose(b)
    d = incls[0].compose(b).compose(projs[0]).add(incls[1].compose(binv).compose(projs[1]))
    ed = rep.EndData(x)
    a = _total(ed, d)
    assert rep._fitting_split(a, 2) is None
    # F_2[a] = F_8 x F_8, split by a Frobenius-fixed idempotent
    _, e = rep._frobenius_split(*ffmat.polynomial_algebra(a, 2), 2)
    f = rep._split(ed, e)[0]
    assert not f.is_zero() and not f.is_iso()
    # the fallback, driven on a basis where no a - lambda splits, reads
    # F_2[a] without testing any polynomial for irreducibility
    basis = list(itertools.islice(_shift_proof_basis(x, _end_elements(x)), 12))
    assert len(basis) == len(rep.end_algebra(x)) == 12
    calls, algebras, poly_calls = [], [], []
    monkeypatch.setattr(rep, "end_algebra", _counting(lambda x: BasisHom(x, x, basis), calls))
    monkeypatch.setattr(ffmat, "polynomial_algebra", _counting(ffmat.polynomial_algebra, algebras))
    monkeypatch.setattr(ffmat, "monic_irreducibles", _counting(ffmat.monic_irreducibles, poly_calls))
    monkeypatch.setattr(ffmat, "poly_is_irreducible", _counting(ffmat.poly_is_irreducible, poly_calls))
    e, rad = rep._split_or_certify(rep.EndData(x))
    assert len(calls) == 1
    assert rad is None and algebras and not poly_calls
    f = rep._split(rep.EndData(x), e)[0]
    assert not f.is_zero() and not f.is_iso()


def _minimalize_cases(a2, kron2, loopb):
    k3 = _f3_kron2()
    out = []
    qa = a2.inj("a")
    f1 = yoneda(a2, "b", qa, [1])
    d, _, projs = rep.direct_sum(a2, [a2.proj("b"), a2.proj("a")])
    out.append(f1.compose(projs[0]))
    sa = a2.simple("a")
    out.append(rep.zero_morphism(rep.direct_sum(a2, [sa, sa])[0], qa))
    sb = loopb.simple("b")
    p0, cover, _ = ar.proj_cover(sb)
    d, _, projs = rep.direct_sum(loopb, [p0, loopb.proj("a")])
    out.append(cover.compose(projs[0]))
    pb, q1 = k3.proj(1), kr.kQ(k3, 1)
    g = rep.hom_space(pb, q1)[0]
    d, _, projs = rep.direct_sum(k3, [pb, pb])
    out.append(g.compose(projs[0]).add(g.scale(2).compose(projs[1])))
    r = kr.kR(kron2, (1, 1, 1), 1)
    d, _, projs = rep.direct_sum(kron2, [r, r])
    h = rep.hom_space(r, r)[1]
    out.append(h.compose(projs[0]).add(h.compose(projs[1])))
    return out


def test_right_minimalize_matches_exhaustive_search(a2, kron2, loopb):
    for f in _minimalize_cases(a2, kron2, loopb):
        fmin, split = rep.right_minimalize(f)
        assert fmin.compose(split).key() == f.key()
        assert rep.is_split_epi(split)
        for e in _end_elements(fmin.src):
            if e.is_zero() or not (e.compose(e).flat() == e.flat()).all():
                continue
            assert fmin.compose(e).flat().any()


def test_right_minimalize_exhausted_search_raises(a2, kron2, loopb, monkeypatch):
    # K0 is not nil here; a search that finds no split must not answer "minimal"
    f = _minimalize_cases(a2, kron2, loopb)[0]
    calls = []
    monkeypatch.setattr(rep, "_fitting_projection", _counting(lambda b, p: np.zeros_like(b), calls))
    with pytest.raises(VerificationFailure, match="K0 is not nil"):
        rep.right_minimalize(f)
    assert calls


# --- the split step: the walk reference and forced certificate failures -------


def _parts(parts):
    return [(s.key(), [b.tobytes() for b in u.blocks], [b.tobytes() for b in r.blocks]) for s, u, r in parts]


def test_decompose_matches_the_walk_reference(a2, kron2, loopb, uni4):
    # one split per module and its images decomposed through the memo give
    # the summands, inclusions and projections of the walk down the split tree
    mods = list(_oracle_modules(a2, kron2, loopb, uni4).values())
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        mods += [c, y] + [rc.source for rc in catalog_lattice(name).classes]
    k3 = _f3_kron2()
    for x in (uni4.proj("a"), kr.kP(kron2, 2), kr.kR(k3, 0, 2), kr.kQ(k3, 1)):
        mods.append(rep.direct_sum(x.A, [x, x])[0])  # twin-content summands
    for x in mods:
        want = _parts(decompose_reference(x))
        assert _parts(rep.decompose(x)) == want
        assert _parts(rep.decompose(rep.Rep(x.A, x.dims, x.mats))) == want  # a memo hit, re-based


def _splitting():
    """(X, f): X = P(1) + R(0, 2) over F_3 on an algebra with an empty memo,
    and f the projection X -> P(1), which kills the summand R(0, 2)."""
    A = _f3_kron2()
    x, _, projs = rep.direct_sum(A, [kr.kP(A, 1), kr.kR(A, 0, 2)])
    return x, projs[0]


def _via(entry):
    x, f = _splitting()
    return (lambda: rep.decompose(x)) if entry == "decompose" else (lambda: rep.right_minimalize(f))


@pytest.mark.parametrize("entry", ["decompose", "right_minimalize"])
def test_split_refuses_a_non_idempotent(entry, monkeypatch):
    run = _via(entry)
    # 2 is a unit of F_3 that is not idempotent: 2 o 2 = 1
    monkeypatch.setattr(rep, "_fitting_projection", lambda b, p: 2 * ffmat.identity(len(b)))
    with pytest.raises(VerificationFailure, match="claimed idempotent is not idempotent"):
        run()


@pytest.mark.parametrize("entry", ["decompose", "right_minimalize"])
def test_split_refuses_an_image_without_retraction(entry, monkeypatch):
    run, real = _via(entry), rep.image

    def doubled(f):  # onto o incl = 2
        i, incl, onto = real(f)
        return i, incl, onto.scale(2)

    monkeypatch.setattr(rep, "image", doubled)
    with pytest.raises(VerificationFailure, match="idempotent image retraction failed"):
        run()


@pytest.mark.parametrize("entry", ["decompose", "right_minimalize"])
def test_split_refuses_images_that_miss_dimensions(entry, monkeypatch):
    run, real, calls = _via(entry), rep.image, []

    def lost(f):  # the image of 1 - e comes back as the zero module
        calls.append(f)
        if len(calls) == 1:
            return real(f)
        z = rep.zero_rep(f.src.A)
        return z, rep.zero_morphism(z, f.tgt), rep.zero_morphism(f.src, z)

    monkeypatch.setattr(rep, "image", lost)
    with pytest.raises(VerificationFailure, match="split dimensions do not add up"):
        run()
    assert len(calls) == 2


def test_decompose_refuses_a_trivial_split(monkeypatch):
    x, _ = _splitting()
    monkeypatch.setattr(rep, "_split_or_certify", lambda ed: (ffmat.identity(ed.x.total_dim), None))
    with pytest.raises(VerificationFailure, match="trivial split from claimed nontrivial idempotent"):
        rep.decompose(x)


def test_decompose_refuses_summand_idempotents_off_the_identity(monkeypatch):
    x, _ = _splitting()
    real = rep.decompose
    # each image decomposes with its projections doubled, so the sum is 2
    monkeypatch.setattr(rep, "decompose", lambda y: tuple((s, u, r.scale(2)) for s, u, r in real(y)))
    with pytest.raises(VerificationFailure, match="summand idempotents do not sum to identity"):
        rep._decompose(x)


def test_right_minimalize_refuses_an_idempotent_the_map_does_not_kill(monkeypatch):
    _, f = _splitting()
    monkeypatch.setattr(rep, "_fitting_projection", lambda b, p: ffmat.identity(len(b)))
    with pytest.raises(VerificationFailure, match="idempotent not killed by the map"):
        rep.right_minimalize(f)
