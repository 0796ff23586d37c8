import re

import numpy as np
import pytest

from auskit import ar, catalog, determine, factor, ffmat, rep
from auskit.algebra import parse_algebra_file, parse_module_expr
from auskit.errors import VerificationFailure
from helpers import (_counting, catalog_lattice, default_probes, definitional_check_reference,
                     is_submodule)


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
            got = default_probes(rc.f, c, count, seed)
            want = _probes_by_morphisms(rc.f, c, count, seed)
            assert [(g.src.key(), g.flat().tobytes()) for g in got] == \
                [(g.src.key(), g.flat().tobytes()) for g in want]
            assert all(g.tgt is y and g.check() for g in got)


def _outcome(check, f, c, **kw):
    """The keys of the probes check flags, in order, or the message it raises."""
    try:
        return [g.key() for g in check(f, c, **kw)]
    except VerificationFailure as exc:
        return str(exc)


def test_definitional_check_matches_the_per_probe_reference():
    # every class of every catalog instance but subspace3-ex21, against C and
    # against C without its first summand (where probes do land in the list):
    # the default probes at two (count, seed), and a list that adds the basis
    # maps of Hom(X_j, Y) for every class source X_j
    flagged = 0
    for name in catalog.instance_names():
        if name == "subspace3-ex21":
            continue
        alg, c, y = catalog.resolve_instance(name)
        fl = catalog_lattice(name)
        summands = [s for s, _, _ in rep.decompose(c)]
        smaller = rep.direct_sum(alg, summands[1:])[0] if len(summands) > 1 else rep.zero_rep(alg)
        basis = [g for rc in fl.classes for g in rep.hom_space(rc.source, y)]
        for rc in fl.classes:
            for cc in (c, smaller):
                for kw in (dict(count=20, seed=0), dict(count=7, seed=3),
                           dict(probes=default_probes(rc.f, c, 20, 0) + basis)):
                    got = _outcome(determine.definitional_check, rc.f, cc, **kw)
                    assert got == _outcome(definitional_check_reference, rc.f, cc, **kw), (name, kw)
                    flagged += bool(got)
    assert flagged > 100


def test_definitional_check_matches_the_reference_on_the_witnesses(a3lin, sub3):
    _, _, _, h, fp, f = _example5_maps(a3lin)
    c1 = rep.direct_sum(a3lin, [a3lin.simple(1), a3lin.simple(2)])[0]
    lam = rep.direct_sum(sub3, [sub3.proj(v) for v in range(4)])[0]
    y = sub3.inj(0)
    _, _, projs = rep.direct_sum(sub3, [sub3.proj(1), sub3.proj(2)])
    f1, f2 = (rep.hom_space(sub3.proj(v), y)[0] for v in (1, 2))
    g = f1.compose(projs[0]).add(f2.compose(projs[1]))
    incl = rep.image(g)[1]
    # the second list interleaves three sources: the flagged probes keep probe order
    mixed = [fp, f, fp.scale(0), rep.identity_morphism(f.tgt), fp]
    cases = [(f, c1, dict(probes=[fp])), (f, c1, dict(probes=mixed)),
             (g, lam, dict(probes=[incl])), (g, lam, dict(count=20)),
             # a probe that does not end in Y, and C over another algebra
             (f, c1, dict(probes=[fp, h])), (f, lam, dict(count=5))]
    outcomes = [_outcome(determine.definitional_check, m, c, **kw) for m, c, kw in cases]
    assert outcomes == [_outcome(definitional_check_reference, m, c, **kw) for m, c, kw in cases]
    assert outcomes[0] == [fp.key()] and outcomes[2] == [incl.key()]
    assert outcomes[1] == [fp.key(), fp.key()]
    assert outcomes[4] == "eta needs a map ending in Y"
    assert outcomes[5] == "C and Y are modules over different algebras"


def test_definitional_check_is_one_batch_per_source(monkeypatch):
    # class 3 of kron2-ex14 draws from the same 3 sources at count 5 and 20
    # (5 and 8 probes): with the memo warmed, one RREF for eta(f) and one
    # elimination per source, whatever the count.  The per-probe loop made 11
    # and 17 rref calls, 5 and 8 right_leq solves, one GammaHom and one
    # end_algebra read.
    _, c, _ = catalog.resolve_instance("kron2-ex14")
    f = catalog_lattice("kron2-ex14").classes[3].f
    for count in (5, 20):
        assert determine.definitional_check(f, c, count=count) == []
    for name in ("right_leq", "end_algebra"):
        monkeypatch.setattr(rep, name, None)
    monkeypatch.setattr(determine, "GammaHom", None)
    calls, counts = [], []
    monkeypatch.setattr(ffmat, "rref", _counting(ffmat.rref, calls))
    for count in (5, 20):
        del calls[:]
        assert determine.definitional_check(f, c, count=count) == []
        counts.append(len(calls))
    assert counts == [4, 4]


def _kron2_identity(kron2):
    c = rep.direct_sum(kron2, [kron2.proj(0), kron2.proj(1)])[0]
    return rep.identity_morphism(kron2.inj(0)), c


def test_factoring_probe_with_larger_eta_raises(kron2, monkeypatch):
    # eta(f) read as zero: every probe factors through the identity, and one
    # with a nonzero eta image contradicts functoriality
    f, c = _kron2_identity(kron2)
    monkeypatch.setattr(rep, "factor_subspace", lambda f, w, hom: ffmat.Subspace.zero(len(hom), f.p))
    with pytest.raises(VerificationFailure, match="factoring map with larger eta image"):
        determine.definitional_check(f, c, count=10)


def test_factoring_witness_product_is_checked(kron2, monkeypatch):
    # every column claimed solvable by x = 0: the product a x = probes fails
    f, c = _kron2_identity(kron2)
    monkeypatch.setattr(determine, "solve_columns",
                        lambda a, b, p: (np.zeros((a.shape[1], b.shape[1]), dtype=int), np.ones(b.shape[1], bool)))
    with pytest.raises(VerificationFailure, match="factoring witness does not compose to the probe"):
        determine.definitional_check(f, c, count=10)


def test_farkas_row_is_required(a3lin, monkeypatch):
    # Example 5's witness f' lands in the list; with no row to read, nothing
    # separates it from the maps through f
    _, qb, _, _, fp, f = _example5_maps(a3lin)
    c1 = rep.direct_sum(a3lin, [a3lin.simple(1), a3lin.simple(2)])[0]
    monkeypatch.setattr(determine, "kernel", lambda m, p: np.zeros((0, m.shape[1]), dtype=int))
    with pytest.raises(VerificationFailure, match=r"no Farkas row separates probe 1 \(source %s\)"
                       % re.escape(str(qb.dim_vector()))):
        determine.definitional_check(f, c1, probes=[f, fp])


def test_corrupted_farkas_row_is_caught(monkeypatch):
    # uniserial-4, C = 0: every probe that does not factor lands in the list,
    # and there a is nonzero; a unit vector e_i with row i of a nonzero,
    # added to every kernel row, makes every y a nonzero
    alg, _, _ = catalog.resolve_instance("uniserial-4")
    f = catalog_lattice("uniserial-4").classes[1].f
    assert determine.definitional_check(f, rep.zero_rep(alg))

    def corrupted(m, p):
        return (ffmat.kernel(m, p) + np.eye(m.shape[1], dtype=int)[np.flatnonzero(m.any(axis=0))[0]]) % p

    monkeypatch.setattr(determine, "kernel", corrupted)
    with pytest.raises(VerificationFailure, match=r"no Farkas row separates probe \d+ \(source"):
        determine.definitional_check(f, rep.zero_rep(alg))
