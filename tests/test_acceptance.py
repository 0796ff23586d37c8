"""Acceptance gate: eight end-to-end criteria, one test (and one line) each.

Every comparison below is an exact integer equality -- no tolerances.  Each
criterion also carries a wall-clock budget that is asserted at the end of the
test, so a pass certifies both the mathematics and the running time.

Run with:  python3 -m pytest tests/test_acceptance.py -v
"""

import itertools
import time

from auskit import ar, catalog, determine, factor, kronecker, lattice, rep
from helpers import meet_map


def _done(num, t0, budget, detail):
    dt = time.monotonic() - t0
    print("criterion %d PASS: %s (%.1fs <= %ds)" % (num, detail, dt, budget))
    assert dt <= budget, "criterion %d exceeded %ds budget: %.1fs" % (num, budget, dt)


def _find_epi(x, y):
    for f in rep.hom_space(x, y):
        if f.is_epi():
            return f
    raise AssertionError("no epi found")


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def test_criterion_1_kronecker_shape_table():
    # Recompute the full factorization-shape table for both two-arrow
    # Kronecker algebras: preprojective/regular/preinjective pairs with
    # index sum <= 3 and quasi-length <= 3, fields F_2 and F_3.
    t0 = time.monotonic()
    rows2, ok2 = kronecker.verify_table(2, max_sum=3, max_t=3)
    rows3, ok3 = kronecker.verify_table(3, max_sum=3, max_t=3)
    assert ok2 and all(r["ok"] for r in rows2)
    assert ok3 and all(r["ok"] for r in rows3)
    assert len(rows2) == 111
    assert len(rows3) == 138
    _done(1, t0, 60, "shape table verified, %d + %d rows over F_2 / F_3"
          % (len(rows2), len(rows3)))


def test_criterion_2_catalog_certificates():
    # Every registered (C, Y) instance across the whole algebra catalog is
    # rebuilt with full certificates (order isomorphism of the factorization
    # order with the submodule order, and agreement of meets) and must match
    # its frozen expectations exactly.
    t0 = time.monotonic()
    names = catalog.instance_names()
    assert len(names) >= 12
    reports = [catalog.check_instance(n, certify=True) for n in names]
    bad = [(r["name"], r["failures"]) for r in reports if not r["ok"]]
    assert bad == []
    _done(2, t0, 300, "%d catalog instances certified" % len(reports))


def test_criterion_3_sigma_bijection():
    # Length-one factorization classes from P_i to Q_j correspond to the
    # strongly regular modules of total dimension |P_i| + |Q_j| - 4, each
    # realized exactly once as a class source.
    t0 = time.monotonic()
    A = kronecker.kronecker_algebra(2, 2)

    r1 = kronecker.sigma_check(A, 2, 0)
    assert r1["ok"] and r1["dim"] == 2
    assert r1["classes"] == 3 and r1["family"] == 3

    # degenerate case: total dimension 0, the unique class is [0 -> Y>
    r2 = kronecker.sigma_check(A, 0, 1)
    assert r2["ok"] and r2["dim"] == 0 and r2["classes"] == 1

    # cross-check via the submodule side: the maximal submodules of Q_1 are
    # exactly the three strongly regular modules of dimension 2
    q1 = kronecker.kQ(A, 1)
    maxes = lattice.maximal_submodules(q1)
    fam = kronecker.enumerate_strongly_regular(A, 2)
    assert len(maxes) == 3 and len(fam) == 3
    hits = [[rep.is_isomorphic(s, m) for m, _ in fam] for s, _ in maxes]
    assert all(sum(row) == 1 for row in hits)
    assert all(any(col) for col in zip(*hits))
    _done(3, t0, 10, "3 length-one classes <-> 3 strongly regular modules")


def test_criterion_4_local_endomorphism_chain():
    # C = tau^{-}P(a) over the loop-with-socle algebra, Y = S(b).  End(C)
    # is two-dimensional with square-zero radical, Hom(C, Y) is a length-2
    # chain module, and the factorization lattice is a 3-element chain with
    # sources P(b), tau^{-}S(a), Y from bottom to top.
    t0 = time.monotonic()
    A = catalog.load_catalog_algebra("loop-b")
    c = ar.tau_minus(A.proj("a"))
    y = A.simple("b")

    end = rep.end_algebra(c)
    assert len(end) == 2
    nils = []
    for coeffs in itertools.product(range(2), repeat=2):
        g = rep.zero_morphism(c, c)
        for ci, e in zip(coeffs, end):
            if ci:
                g = g.add(e)
        if not g.is_zero() and g.compose(g).is_zero():
            nils.append(g)
    # exactly one nonzero square-zero element over F_2: End(C) = k[t]/t^2
    assert len(nils) == 1

    gh = determine.GammaHom(c, y)
    reps_, _, rad_mats, residue = gh.simple_data()
    assert len(reps_) == 1 and residue == [1] and len(rad_mats) == 1
    assert gh.jh_between(gh.zero_sub(), gh.full_sub()) == {0: 2}
    assert gh.through_proj().dim == 0

    fl = factor.FactorizationLattice.build(c, y)
    assert len(fl.classes) == 3
    assert fl.lat.is_chain()
    assert lattice.canonical_shape(fl.lat.classify()) == ("I", 2)
    order = sorted(range(3), key=lambda i: fl.lat.nodes[i].dim)
    wanted = [A.proj("b"), ar.tau_minus(A.simple("a")), y]
    for i, w in zip(order, wanted):
        assert rep.is_isomorphic(fl.classes[i].source, w)
    assert rep.is_isomorphic(fl.zero_class.source, A.proj("b"))
    assert rep.is_isomorphic(fl.zero_class.kernel, A.proj("a"))
    assert all(rc.is_epi for rc in fl.classes)
    _done(4, t0, 5, "local End, length-2 chain, sources P(b) < tau-S(a) < Y")


def test_criterion_5_twelve_summand_determiner():
    # C = the direct sum of all twelve indecomposables over the three-subspace
    # algebra, Y = Q(a): 30 right-factorization classes, Hom(C, Y) has length
    # 10 over End(C) with 9 distinct composition-factor labels, and the label
    # of dimension vector (2,1,1,1) occurs exactly twice.
    t0 = time.monotonic()
    _, c, y = catalog.resolve_instance("subspace3-ex21")
    fl = factor.FactorizationLattice.build(c, y)
    assert len(fl.lat.nodes) == 30
    assert fl.lat.height() == 10
    assert len(fl.lat.covers()) == 50
    assert fl.c_length(fl.lat.zero_i) == 10
    jh = fl.gh.jh_between(fl.gh.zero_sub(), fl.gh.full_sub())
    assert len(jh) == 9
    labels = fl.gh.labels()
    mi = [i for i, d in enumerate(labels) if tuple(d) == (2, 1, 1, 1)]
    assert len(mi) == 1
    assert jh[mi[0]] == 2
    _done(5, t0, 120, "30 classes, length 10, 9 labels, label (2,1,1,1) x2")


def test_criterion_6_determiner_properties():
    # For every enumerated class f of every catalog instance: (a) f is right
    # C-determined, (b) every summand of the minimal determiner C(f) admits a
    # nonzero map to Y, (c) removing any C(f)-summand type from C destroys
    # determination, (d) a 20-probe definitional check finds no violation.
    # Then two negative controls: a map invisible to a too-small C, and a
    # right minimal map not determined by the algebra itself.
    t0 = time.monotonic()
    failures = []
    n_classes = 0
    for name in catalog.instance_names():
        alg, c, y = catalog.resolve_instance(name)
        fl = factor.FactorizationLattice.build(c, y, certify=False)
        csumm = [r for r, _, _ in rep.decompose(c)]
        for i, rc in enumerate(fl.classes):
            n_classes += 1
            fcls = rc.f
            _check(failures, determine.is_right_determined(fcls, c),
                   "%s class %d is not right C-determined" % (name, i))
            det = determine.minimal_determiner(fcls)
            for d in det:
                _check(failures, len(rep.hom_space(d, y)) > 0,
                       "%s class %d: determiner summand %s has Hom(., Y) = 0"
                       % (name, i, d.dim_vector()))
            types = []
            for d in det:
                if not any(rep.is_isomorphic(d, t) for t in types):
                    types.append(d)
            for d in types:
                keep = [s for s in csumm if not rep.is_isomorphic(s, d)]
                cp = rep.direct_sum(alg, keep)[0] if keep else rep.zero_rep(alg)
                _check(failures, not determine.is_right_determined(fcls, cp),
                       "%s class %d still determined without summand %s"
                       % (name, i, d.dim_vector()))
            _check(failures,
                   determine.definitional_check(fcls, c, count=20) == [],
                   "%s class %d fails the 20-probe check" % (name, i))
    assert failures == [], "\n".join(failures)

    a3 = catalog.load_catalog_algebra("a3-linear")
    qa, qb, sc = a3.inj("a"), a3.inj("b"), a3.simple("c")
    h = _find_epi(qa, qb)
    fp = _find_epi(qb, sc)
    f = fp.compose(h)
    sb = a3.simple("b")

    dh = determine.minimal_determiner(h)
    assert len(dh) == 1 and rep.is_isomorphic(dh[0], sb)
    dfp = determine.minimal_determiner(fp)
    assert len(dfp) == 1 and rep.is_isomorphic(dfp[0], sc)
    df = determine.minimal_determiner(f)
    assert len(df) == 1 and rep.is_isomorphic(df[0], qb)

    c1, _, _ = rep.direct_sum(a3, [sb, sc])
    c2, _, _ = rep.direct_sum(a3, [qb, sc])
    matrix = [
        (h, c1, True), (fp, c1, True), (f, c1, False),
        (h, c2, False), (fp, c2, True), (f, c2, True),
    ]
    for g, cc, want in matrix:
        assert determine.is_right_determined(g, cc) is want

    # summand necessity: dropping the one needed summand flips the verdict
    assert determine.is_right_determined(f, qb)
    assert not determine.is_right_determined(f, sc)

    # probe checks: 20 random probes find nothing when C is large enough,
    # and the known witness f' is flagged when it is not
    assert determine.definitional_check(h, c1, count=20) == []
    assert determine.definitional_check(fp, c1, count=20) == []
    assert determine.definitional_check(f, c2, count=20) == []
    bad = determine.definitional_check(f, c1, probes=[fp])
    assert len(bad) == 1 and bad[0].key() == fp.key()

    # a right minimal map not determined by the algebra: the combined map
    # P(b1) + P(b2) -> Q(a) over the three-subspace algebra
    sub3 = catalog.load_catalog_algebra("subspace3")
    lam, _, _ = rep.direct_sum(sub3, [sub3.proj(v) for v in range(4)])
    y = sub3.inj("a")
    f1 = rep.hom_space(sub3.proj("b1"), y)[0]
    f2 = rep.hom_space(sub3.proj("b2"), y)[0]
    _, _, projs = rep.direct_sum(sub3, [sub3.proj("b1"), sub3.proj("b2")])
    g = f1.compose(projs[0]).add(f2.compose(projs[1]))
    _, split = rep.right_minimalize(g)
    assert split.is_iso()
    assert rep.is_isomorphic(rep.kernel(g)[0], sub3.simple("a"))
    m = ar.tau_minus(sub3.simple("a"))
    assert m.dim_vector() == (2, 1, 1, 1)
    det = determine.minimal_determiner(g)
    assert any(rep.is_isomorphic(s, m) for s in det)
    assert determine.is_right_determined(f1, lam)
    assert not determine.is_right_determined(g, lam)
    _, incl, _ = rep.image(g)
    assert len(determine.definitional_check(g, lam, probes=[incl])) == 1
    assert determine.definitional_check(f1, lam, count=20) == []
    _done(6, t0, 120,
          "%d classes swept (a)-(d) with zero failures, plus both witnesses"
          % n_classes)


def test_criterion_7_uniserial_markers():
    # Over k[x]/x^n (n = 8, 6, 4) with C = Y = the length-4 uniserial module,
    # the submodule side is always the same 5-element chain, but the subspace
    # of maps factoring through a projective climbs: position 0 for n = 8,
    # position 2 (the radical-square marker) for n = 6, and the whole chain
    # for n = 4, where C itself is projective.  Within each chain the images
    # under eta of the zero map, multiplication by x^2, and the identity sit
    # at positions 0, 2, 4 regardless of n.
    t0 = time.monotonic()
    proj_marks = []
    for name in ("uniserial-8", "uniserial-6", "uniserial-4"):
        _, c, y = catalog.resolve_instance(name)
        gh = determine.GammaHom(c, y)
        lat = lattice.SubmoduleLattice.build(gh)
        assert len(lat.nodes) == 5 and lat.is_chain()
        assert lattice.canonical_shape(lat.classify()) == ("I", 4)
        order = sorted(range(5), key=lambda i: lat.nodes[i].dim)
        proj_marks.append(order.index(lat.index_of(gh.through_proj())))
        xm = (y.mats[0] @ y.mats[0]) % y.p
        f2 = rep.Morphism(y, y, [xm])
        f2.check()
        marks = (rep.zero_morphism(y, y), f2, rep.identity_morphism(y))
        pos = [order.index(lat.index_of(gh.eta(g))) for g in marks]
        assert pos == [0, 2, 4]
    assert proj_marks == [0, 2, 4]
    _done(7, t0, 10,
          "5-chains with projective-trace marker at 0/2/4 for n = 8/6/4")


def test_criterion_8_structural_suite():
    # Lattice-theoretic and homological identities, collected so a failure
    # anywhere reports every broken item at once; the criterion requires
    # zero failures.
    t0 = time.monotonic()
    failures = []

    # (a) every catalog instance lattice satisfies the modular law
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        gh = determine.GammaHom(c, y)
        lat = lattice.SubmoduleLattice.build(gh)
        _check(failures, lat.check_modular(max_nodes=60),
               "modular law fails on %s" % name)

    # (b) eta turns sums/pullbacks of maps into joins/meets of submodules,
    #     and interval lengths add: |f ^ g| + |f v g| = |f| + |g|
    built = {}
    for name in ("loop-b-ex8", "subspace3-ex9", "kron2-ex4"):
        _, c, y = catalog.resolve_instance(name)
        fl = built[name] = factor.FactorizationLattice.build(c, y)
        n = len(fl.classes)
        for i in range(n):
            for j in range(i):
                fi, fj = fl.classes[i].f, fl.classes[j].f
                jn, mt = fl.lat.join(i, j), fl.lat.meet(i, j)
                _check(failures,
                       fl.gh.eta(rep.join_map(fi, fj)).key()
                       == fl.lat.nodes[jn].key(),
                       "eta(join_map) mismatch at (%d,%d) on %s" % (i, j, name))
                _check(failures,
                       fl.gh.eta(meet_map(fi, fj)).key()
                       == fl.lat.nodes[mt].key(),
                       "eta(meet_map) mismatch at (%d,%d) on %s" % (i, j, name))
                _check(failures,
                       fl.c_length(mt) + fl.c_length(jn)
                       == fl.c_length(i) + fl.c_length(j),
                       "length additivity fails at (%d,%d) on %s" % (i, j, name))

    # (c) the C-length of a class equals the length of a maximal chain from
    #     its node to the top of the lattice (computed independently from
    #     the cover graph)
    for name in ("loop-b-ex8", "subspace3-ex9", "kron2-ex4",
                 "kron3-ex10", "uniserial-4", "subspace3-ex21"):
        if name in built:
            fl = built[name]
        else:
            _, c, y = catalog.resolve_instance(name)
            fl = built[name] = factor.FactorizationLattice.build(c, y)
        up = {i: [] for i in range(len(fl.lat.nodes))}
        for lo, hi in fl.lat.covers():
            up[lo].append(hi)
        dist = {fl.lat.full_i: 0}
        for i in sorted(up, key=lambda i: -fl.lat.nodes[i].dim):
            if i != fl.lat.full_i:
                dist[i] = 1 + max(dist[j] for j in up[i])
        for i in range(len(fl.lat.nodes)):
            _check(failures, dist[i] == fl.c_length(i),
                   "chain length != C-length at class %d on %s" % (i, name))

    # (d) on the three-subspace cube the C-length of each class equals the
    #     number of indecomposable summands of its kernel; the hypotheses
    #     are checked computationally: End of the top kernel is semisimple
    #     (three orthogonal local blocks) and no map C -> Y passes through
    #     a projective
    fl9 = built["subspace3-ex9"]
    _check(failures, len(rep.end_algebra(fl9.zero_class.kernel)) == 3,
           "End(kernel of zero class) is not three-dimensional")
    _check(failures, fl9.gh.through_proj().dim == 0,
           "maps through projectives are present on the cube")
    for i, rc in enumerate(fl9.classes):
        mu = len(rep.decompose(rc.kernel)) if rc.kernel.total_dim else 0
        _check(failures, mu == fl9.c_length(i),
               "kernel multiplicity != C-length at class %d" % i)

    # (e) dim Ext^1(Y, K) = dim Hom(tau^- K, Y) modulo projectives
    a3 = catalog.load_catalog_algebra("a3-linear")
    a3r = catalog.load_catalog_algebra("a3-radsq")
    ope = catalog.load_catalog_algebra("onepoint-ext")
    sub3 = catalog.load_catalog_algebra("subspace3")
    loopb = catalog.load_catalog_algebra("loop-b")
    k2 = catalog.load_catalog_algebra("kron2")
    pairs = [
        (a3.simple("a"), a3.simple("b")),
        (a3.inj("a"), a3.simple("c")),
        (a3r.proj("c"), a3r.simple("b")),
        (a3r.simple("b"), a3r.simple("a")),
        (ope.inj("b"), ope.simple("c")),
        (sub3.inj("a"), sub3.simple("a")),
        (sub3.proj("b1"), sub3.simple("a")),
        (loopb.simple("b"), loopb.proj("a")),
        (loopb.inj("a"), loopb.simple("a")),
        (kronecker.kQ(k2, 0), kronecker.kP(k2, 1)),
        (kronecker.kR(k2, 0, 1), kronecker.kR(k2, 0, 2)),
    ]
    for yy, kk in pairs:
        lhs, rhs = ar.ar_formula_check(yy, kk)
        _check(failures, lhs == rhs,
               "Ext/Hom count mismatch: %d != %d for %s, %s"
               % (lhs, rhs, yy.dim_vector(), kk.dim_vector()))

    # (f) factoring order == submodule order on whole lattices; enlarging C
    #     embeds the old order into the new one; and the sharpness witness:
    #     the join of two determined classes escapes determination, so the
    #     combined map and its image inclusion share an eta value without
    #     being right equivalent
    for name in ("loop-b-ex8", "subspace3-ex9"):
        try:
            built[name].check_order_isomorphism()
            built[name].check_meets()
        except Exception as e:  # noqa: BLE001 - collected, not swallowed
            failures.append("certificates fail on %s: %s" % (name, e))

    alg19, c19, y19 = catalog.resolve_instance("onepoint-ext-ex19")
    fl19 = factor.FactorizationLattice.build(c19, y19)
    big, _, _ = rep.direct_sum(alg19, [c19, alg19.proj("c")])
    gh_big = determine.GammaHom(big, y19)
    for i in range(len(fl19.classes)):
        for j in range(len(fl19.classes)):
            same = bool(fl19.lat.leq[i, j]) == gh_big.eta(
                fl19.classes[i].f).leq(gh_big.eta(fl19.classes[j].f))
            _check(failures, same,
                   "order not preserved under enlarging C at (%d,%d)" % (i, j))

    lam, _, _ = rep.direct_sum(sub3, [sub3.proj(v) for v in range(4)])
    yw = sub3.inj("a")
    f1 = rep.hom_space(sub3.proj("b1"), yw)[0]
    f2 = rep.hom_space(sub3.proj("b2"), yw)[0]
    fw = rep.join_map(f1, f2)
    ghl = determine.GammaHom(lam, yw)
    _check(failures, determine.is_right_determined(f1, lam)
           and determine.is_right_determined(f2, lam),
           "single inclusions should be determined by the algebra")
    _check(failures, not determine.is_right_determined(fw, lam),
           "the join of the two inclusions should escape determination")
    _, incl, _ = rep.image(fw)
    _check(failures, ghl.eta(fw).key() == ghl.eta(incl).key(),
           "eta separates a map from its image inclusion")
    ok_fi, _ = rep.right_leq(fw, incl)
    _check(failures, ok_fi, "map does not factor through its image inclusion")
    _check(failures, not rep.right_equivalent(fw, incl),
           "undetermined map is right equivalent to its image inclusion")

    assert failures == [], "\n".join(failures)
    _done(8, t0, 300,
          "modular law, eta join/meet, lengths, Ext/Hom, order embedding")
