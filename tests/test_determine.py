import numpy as np
import pytest

from auskit import ar, catalog, determine, factor, rep
from auskit.algebra import parse_algebra_file, parse_module_expr
from auskit.errors import VerificationFailure
from helpers import _counting, is_submodule


def _find_epi(x, y):
    for f in rep.hom_space(x, y):
        if f.is_epi():
            return f
    raise AssertionError("no epi found")


def test_gammahom_basic(a2):
    lam, _, _ = rep.direct_sum(a2, [a2.proj(0), a2.proj(1)])
    y = a2.proj(1)
    gh = determine.GammaHom(lam, y)
    assert gh.n == y.total_dim == 2
    assert gh.eta(rep.identity_morphism(y)).dim == 2
    assert gh.eta(rep.zero_morphism(y, y)).dim == 0
    assert gh.through_proj().dim == 2  # Y itself is projective
    full = gh.close([row for row in np.eye(2, dtype=int)])
    assert full.dim == 2 and is_submodule(gh, full)


def test_gammahom_reads_the_action_in_one_call(kron2, monkeypatch):
    # the End(C) action comes from one batched composition and one coordinate
    # read, not one per End(C) basis map; it equals h -> h o phi per map
    c, _, _ = rep.direct_sum(kron2, [kron2.proj(0), kron2.proj(1)])
    y = kron2.inj(0)
    assert len(rep.end_algebra(c)) >= 2
    calls = []
    monkeypatch.setattr(rep.HomSpace, "coords", _counting(rep.HomSpace.coords, calls))
    gh = determine.GammaHom(c, y)
    assert len(calls) == 1
    for phi, m in zip(gh.end, gh.act):
        for j, h in enumerate(gh.basis):
            assert list(m[:, j]) == list(rep.morphism_coords(h.compose(phi), gh.basis))


def test_simple_data_reads_every_action_in_one_call(loopb, monkeypatch):
    # the class idempotents and the radical elements of End(C) act through
    # act, read from one coordinate call over End(C) for all of them
    c = ar.tau_minus(loopb.proj(0))
    y = loopb.simple(1)
    trips = rep.decompose(c)
    gh = determine.GammaHom(c, y)
    calls = []
    monkeypatch.setattr(rep.HomSpace, "coords", _counting(rep.HomSpace.coords, calls))
    _, eps_mats, rad_mats, _ = gh.simple_data()
    assert len(calls) == 1
    monkeypatch.undo()
    firsts = [trips[cl[0]] for cl in rep.iso_classes([s for s, _, _ in trips])]
    eps = [incl.compose(proj) for _, incl, proj in firsts]
    rads = [incl.compose(ed.basis.element(r)).compose(proj)
            for x, incl, proj in firsts for ed, rad in [rep.end_radical(x)] for r in rad.B]
    assert len(eps_mats) == len(eps) == 1 and len(rad_mats) == len(rads) == 1
    for m, f in zip(eps_mats + rad_mats, eps + rads):
        assert (m == rep.hom_matrix_precompose(gh.basis, f, gh.basis)).all()


def test_gamma_loop_local(loopb):
    # End of the 4-dimensional module tau^{-}P(a) is k[t]/t^2
    c = ar.tau_minus(loopb.proj(0))
    y = loopb.simple(1)
    gh = determine.GammaHom(c, y)
    assert gh.n == 2
    reps_, eps_mats, rad_mats, residue = gh.simple_data()
    assert len(reps_) == 1 and residue == [1]
    assert len(rad_mats) == 1
    # Hom(C, Y) is cyclic of length 2 over k[t]/t^2
    assert gh.length_between(gh.zero_sub(), gh.full_sub()) == 2
    assert gh.jh_between(gh.zero_sub(), gh.full_sub()) == {0: 2}
    assert gh.through_proj().dim == 0


def test_gamma_semisimple(sub3):
    # C = N(1) + N(2) + N(3), Y = Q(a): Hom is simple over each block
    ns = [ar.tau(sub3.simple(v)) for v in (1, 2, 3)]
    assert ns[0].dim_vector() == (1, 0, 1, 1)
    c, _, _ = rep.direct_sum(sub3, ns)
    y = sub3.inj(0)
    gh = determine.GammaHom(c, y)
    assert gh.n == 3
    jh = gh.jh_between(gh.zero_sub(), gh.full_sub())
    assert jh == {0: 1, 1: 1, 2: 1}
    labels = gh.labels()
    assert sorted(labels) == sorted([n.dim_vector() for n in ns])


def test_class_sizes_certify_the_factor_count(a2, monkeypatch):
    # P(a) and P(b) forced into one class: their Hom spaces into S(a) have
    # dimensions 1 and 0, so 2 dim Hom(X, S(a)) misses dim Hom(C, S(a)) = 1
    c = rep.direct_sum(a2, [a2.proj("a"), a2.proj("b")])[0]
    calls = []
    monkeypatch.setattr(rep, "iso_classes", _counting(lambda reps: [list(range(len(reps)))], calls))
    gh = determine.GammaHom(c, a2.simple("a"))
    with pytest.raises(VerificationFailure, match="do not fill the subquotient"):
        gh.jh_between(gh.zero_sub(), gh.full_sub())
    assert len(calls) == 1


def test_jh_between_ranks_each_block_once(monkeypatch):
    # every class's C-length and the label count read jh_between up to the
    # full module; dim sub e_i is computed once per submodule
    seen = {}
    real = determine.rank

    def counted(a, p):
        key = (a.shape, a.tobytes())
        seen[key] = seen.get(key, 0) + 1
        return real(a, p)

    monkeypatch.setattr(determine, "rank", counted)
    report = catalog.check_instance("kron3-ex10", certify=False)
    assert report["ok"] and seen
    assert max(seen.values()) == 1


def test_projective_c_length(sub3):
    # for projective C, the length of [f> counts the factor's top pieces
    lam, _, _ = rep.direct_sum(sub3, [sub3.proj(v) for v in range(4)])
    y = sub3.inj(0)
    f1 = rep.hom_space(sub3.proj(1), y)[0]
    assert f1.is_mono()
    gh = determine.GammaHom(lam, y)
    quotient_jh = gh.jh_between(gh.eta(f1), gh.full_sub())
    # cokernel of P(b1) -> Q(a) is S(b2) + S(b3)
    assert sum(quotient_jh.values()) == 2
    labs = gh.labels()
    hit = sorted(labs[i] for i in quotient_jh)
    assert hit == [(1, 0, 1, 0), (1, 0, 0, 1)] or hit == [(1, 0, 0, 1), (1, 0, 1, 0)]


def _example5_maps(a3lin):
    qa, qb, sc = a3lin.inj(0), a3lin.inj(1), a3lin.simple(2)
    h = _find_epi(qa, qb)
    fp = _find_epi(qb, sc)
    f = fp.compose(h)
    return qa, qb, sc, h, fp, f


def test_example5_kernels(a3lin):
    _, _, _, h, fp, f = _example5_maps(a3lin)
    assert rep.kernel(h)[0].dim_vector() == (1, 0, 0)
    assert rep.kernel(fp)[0].dim_vector() == (0, 1, 0)
    kf = rep.kernel(f)[0]
    assert rep.is_isomorphic(kf, a3lin.proj(1))


def test_example5_determiners(a3lin):
    _, qb, _, h, fp, f = _example5_maps(a3lin)
    sb, sc = a3lin.simple(1), a3lin.simple(2)
    dh = determine.minimal_determiner(h)
    assert len(dh) == 1 and rep.is_isomorphic(dh[0], sb)
    dfp = determine.minimal_determiner(fp)
    assert len(dfp) == 1 and rep.is_isomorphic(dfp[0], sc)
    df = determine.minimal_determiner(f)
    assert len(df) == 1 and rep.is_isomorphic(df[0], qb)


def test_minimal_determiner_is_memoized(monkeypatch):
    # a fresh algebra, so no earlier test has stored the determiner of f
    a3 = parse_algebra_file("field 2\nvertices a b c\narrow alpha b a\narrow beta c b\n")
    _, qb, sc, _, _, f = _example5_maps(a3)
    c = rep.direct_sum(a3, [qb, sc])[0]
    calls = []
    monkeypatch.setattr(rep, "right_minimalize", _counting(rep.right_minimalize, calls))
    assert determine.is_right_determined(f, c)
    det = determine.minimal_determiner(f)
    assert len(calls) == 1
    assert isinstance(det, tuple) and len(det) == 1 and rep.is_isomorphic(det[0], qb)
    assert a3.memo_stats()["determiner"] == (1, 1)


def test_example5_determination_matrix(a3lin):
    _, qb, _, h, fp, f = _example5_maps(a3lin)
    sb, sc = a3lin.simple(1), a3lin.simple(2)
    c1, _, _ = rep.direct_sum(a3lin, [sb, sc])
    c2, _, _ = rep.direct_sum(a3lin, [qb, sc])
    assert determine.is_right_determined(h, c1)
    assert determine.is_right_determined(fp, c1)
    assert not determine.is_right_determined(f, c1)
    assert determine.is_right_determined(f, c2)
    assert determine.is_right_determined(fp, c2)
    assert not determine.is_right_determined(h, c2)


def test_example5_witness(a3lin):
    _, _, _, h, fp, f = _example5_maps(a3lin)
    sb, sc = a3lin.simple(1), a3lin.simple(2)
    c1, _, _ = rep.direct_sum(a3lin, [sb, sc])
    # f' is invisible to C1 yet does not factor through f
    bad = determine.definitional_check(f, c1, probes=[fp])
    assert len(bad) == 1 and bad[0].key() == fp.key()
    assert determine.definitional_check(h, c1) == []
    assert determine.definitional_check(fp, c1) == []


def test_example3_witness(sub3):
    lam, _, _ = rep.direct_sum(sub3, [sub3.proj(v) for v in range(4)])
    y = sub3.inj(0)
    f1 = rep.hom_space(sub3.proj(1), y)[0]
    f2 = rep.hom_space(sub3.proj(2), y)[0]
    src, _, projs = rep.direct_sum(sub3, [sub3.proj(1), sub3.proj(2)])
    f = f1.compose(projs[0]).add(f2.compose(projs[1]))
    f.check()
    assert not f.is_epi() and not f.is_mono()
    # single inclusions are determined by the algebra itself
    assert determine.is_right_determined(f1, lam)
    # the combined map is right minimal but not right Lambda-determined
    fmin, split = rep.right_minimalize(f)
    assert split.is_iso()
    k = rep.kernel(f)[0]
    assert rep.is_isomorphic(k, sub3.simple(0))
    m = ar.tau_minus(sub3.simple(0))
    assert m.dim_vector() == (2, 1, 1, 1)
    det = determine.minimal_determiner(f)
    assert any(rep.is_isomorphic(s, m) for s in det)
    assert not determine.is_right_determined(f, lam)
    # witness: the inclusion of the image is invisible to Lambda but unfactorable
    _, incl, _ = rep.image(f)
    bad = determine.definitional_check(f, lam, probes=[incl])
    assert len(bad) == 1
    assert determine.definitional_check(f1, lam) == []


def test_eta_respects_factorization(kron2):
    y = kron2.inj(0)
    c, _, _ = rep.direct_sum(kron2, [kron2.proj(0), kron2.proj(1)])
    gh = determine.GammaHom(c, y)
    maps = [*rep.hom_space(kron2.proj(1), y), *rep.hom_space(y, y)]
    for f in maps:
        for g in maps:
            ok, _ = rep.right_leq(f, g)
            if ok:
                assert gh.eta(f).leq(gh.eta(g))


def test_factoring_probe_raises_nothing(a2):
    # a map that factors must never be flagged
    y = a2.proj(1)
    f = rep.identity_morphism(y)
    c = a2.simple(1)
    assert determine.definitional_check(f, c, count=10) == []


def _probes_by_morphisms(f, c, count, seed):
    """default_probes as it was first written: a Morphism for every draw."""
    import random

    y = f.tgt
    A = y.A
    sources = [f.src, c] + [A.proj(v) for v in range(A.nv)] + [y]
    probes = []
    for w in sources:
        probes.extend(rep.hom_space(w, y))
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(20 * count):
        if not probes or len(out) >= count:
            break
        g = probes[rng.randrange(len(probes))]
        if rng.random() < 0.5 and len(probes) > 1:
            h = probes[rng.randrange(len(probes))]
            if g.src.key() == h.src.key():
                g = g.add(h)
        key = (g.src.key(), g.flat().tobytes())
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


@pytest.mark.parametrize("name", ["kron2-ex14", "loop-b-ex8", "subspace3-ex9"])
def test_default_probes_match_the_morphism_loop(name):
    _, c, y = catalog.resolve_instance(name)
    fl = factor.FactorizationLattice.build(c, y, certify=False)
    for rc in fl.classes:
        for count, seed in ((20, 0), (7, 3)):
            got = determine.default_probes(rc.f, c, count, seed)
            want = _probes_by_morphisms(rc.f, c, count, seed)
            assert [(g.src.key(), g.flat().tobytes()) for g in got] == \
                [(g.src.key(), g.flat().tobytes()) for g in want]
            assert all(g.tgt is y and g.check() for g in got)
