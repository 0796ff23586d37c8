import functools
import random

import pytest

from auskit import ar, catalog, determine, factor, lattice, rep
from auskit.errors import VerificationFailure
from helpers import (_counting, _kron2_pair, catalog_lattice, check_meets_reference,
                     check_order_isomorphism_reference, class_facts, rebased, subspace_classes, subspace_extensions)


def _lam(A):
    lam, _, _ = rep.direct_sum(A, [A.proj(v) for v in range(A.nv)])
    return lam


def test_loopb_three_chain(loopb):
    c = ar.tau_minus(loopb.proj(0))
    fl = factor.FactorizationLattice.build(c, loopb.simple(1))
    assert len(fl) == 3
    assert fl.lat.classify() == ("I", 2)
    assert [fl.c_length(i) for i in range(3)] == [2, 1, 0]
    # sources bottom to top: P(b), tau^- S(a), Y itself
    assert rep.is_isomorphic(fl.zero_class.source, loopb.proj(1))
    assert rep.is_isomorphic(fl.classes[1].source, ar.tau_minus(loopb.simple(0)))
    assert rep.is_isomorphic(fl.top_class.source, loopb.simple(1))
    # vanishing projective part makes every class an epimorphism
    assert fl.gh.through_proj().dim == 0
    assert fl.epi_class_indices() == [0, 1, 2]
    assert rep.is_isomorphic(fl.zero_class.kernel, loopb.proj(0))


def test_boolean_cube_classes(sub3):
    ns = [ar.tau(sub3.simple(v)) for v in (1, 2, 3)]
    c, _, _ = rep.direct_sum(sub3, ns)
    fl = factor.FactorizationLattice.build(c, sub3.inj(0))
    assert len(fl) == 8
    assert len(fl.lat.covers()) == 12
    m = ar.tau(sub3.inj(0))
    assert m.dim_vector() == (2, 1, 1, 1)
    bottom_parts = [s for s, _, _ in rep.decompose(fl.zero_class.source)]
    assert len(bottom_parts) == 2
    assert all(rep.is_isomorphic(s, m) for s in bottom_parts)
    # kernel of the bottom class is the full tau C = P(b1)+P(b2)+P(b3)
    assert fl.zero_class.kernel.dim_vector() == (3, 1, 1, 1)
    assert fl.epi_class_indices() == list(range(8))
    # semisimple End(K): the C-length counts kernel summands
    for i, rc in enumerate(fl.classes):
        mu = len(rep.decompose(rc.kernel)) if rc.kernel.total_dim else 0
        assert mu == fl.c_length(i)
    # the three length-one classes have sources N(j) + N(k)
    ones = fl.length_one_indices()
    assert len(ones) == 3
    for i in ones:
        parts = [s for s, _, _ in rep.decompose(fl.classes[i].source)]
        assert len(parts) == 2
        assert all(any(rep.is_isomorphic(s, n) for n in ns) for s in parts)


def test_generator_gives_submodules(kron2):
    fl = factor.FactorizationLattice.build(_lam(kron2), kron2.inj(0))
    assert len(fl) == 6
    assert all(rc.is_mono for rc in fl.classes)
    assert [fl.c_length(i) for i in range(6)] == [3, 2, 1, 1, 1, 0]
    assert fl.epi_class_indices() == [5]
    assert fl.zero_class.source.total_dim == 0
    data = fl.to_json()
    assert data["node_count"] == 6 and len(data["classes"]) == 6


def test_radsq_filtered_inclusion(a3rad):
    # the socle inclusion S(b) -> P(c) shares its eta image with the identity
    # and is not determined by C = S(b); only two classes remain
    fl = factor.FactorizationLattice.build(a3rad.simple(1), a3rad.proj(2))
    assert len(fl) == 2
    z = fl.zero_class
    assert rep.is_isomorphic(z.source, a3rad.proj(1))
    assert rep.is_isomorphic(z.kernel, a3rad.simple(0))
    assert not z.is_epi and not z.is_mono


def test_example12_chain(a3lin):
    c, _, _ = rep.direct_sum(a3lin, [a3lin.inj(1), a3lin.simple(2)])
    fl = factor.FactorizationLattice.build(c, a3lin.simple(2))
    assert len(fl) == 3
    assert fl.lat.classify() == ("I", 2)
    assert rep.is_isomorphic(fl.zero_class.source, a3lin.inj(0))
    assert rep.is_isomorphic(fl.zero_class.kernel, a3lin.proj(1))
    assert rep.is_isomorphic(fl.classes[1].kernel, a3lin.simple(1))


def test_cofork_and_fork(kron2):
    qa = kron2.inj(0)
    maxs = lattice.maximal_submodules(qa)
    incls = [incl for _, incl in maxs]
    assert factor.is_cofork(incls)
    assert not factor.is_cofork([incls[0], incls[0]])
    epis = []
    for r, _ in maxs:
        epis.append(next(f for f in rep.hom_space(kron2.proj(1), r) if f.is_epi()))
    assert factor.is_fork(epis)
    assert not factor.is_fork([epis[0], epis[0]])


def test_fork_rejects_zero(kron2):
    z = rep.zero_morphism(kron2.proj(1), kron2.simple(0))
    with pytest.raises(VerificationFailure):
        factor.is_fork([z])


def test_kernel_comparison(loopb):
    c = ar.tau_minus(loopb.proj(0))
    fl = factor.FactorizationLattice.build(c, loopb.simple(1))
    f, fp = fl.classes[0].f, fl.classes[1].f
    left, right = factor.kernel_comparison(f, fp)
    assert left.tgt.total_dim == left.src.total_dim + right.tgt.total_dim
    assert right.src.key() == left.tgt.key()


def test_kernel_comparison_rejects(loopb, kron2):
    c = ar.tau_minus(loopb.proj(0))
    fl = factor.FactorizationLattice.build(c, loopb.simple(1))
    f = fl.classes[0].f
    with pytest.raises(VerificationFailure):
        factor.kernel_comparison(fl.top_class.f, f)  # kernels differ


def test_one_right_minimalization_per_class(monkeypatch):
    # candidates are filtered and keyed by eta of the assembled map; only the
    # first candidate of each class is minimalized
    _, c, y = catalog.resolve_instance("uniserial-8")
    calls = []
    monkeypatch.setattr(rep, "right_minimalize", _counting(rep.right_minimalize, calls))
    fl = factor.FactorizationLattice.build(c, y, certify=False)
    assert 1 <= len(calls) <= len(fl) == 5


def test_one_candidate_per_ext_submodule(monkeypatch):
    # uniserial-8 has 15 End(K)-submodules of its Ext groups (the tuples of
    # F_p-subspaces were 91 candidates), and no catalog build meets an eta
    # key twice, so none calls right_equivalent
    assembled, compared = [], []
    monkeypatch.setattr(factor, "_assemble", _counting(factor._assemble, assembled))
    monkeypatch.setattr(rep, "right_equivalent", _counting(rep.right_equivalent, compared))
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        before = len(assembled)
        fl = factor.FactorizationLattice.build(c, y, certify=False)
        assert len(assembled) - before >= len(fl)
        if name == "uniserial-8":
            assert len(assembled) - before == 15
    assert compared == []


def test_eta_collisions_are_certified(monkeypatch):
    # the injectivity certificate, which the catalog no longer reaches: a
    # candidate repeated on its eta key passes when it is right equivalent to
    # the first, and raises when it is not
    _, c, y = catalog.resolve_instance("kron2-ex4")
    compared = []
    monkeypatch.setattr(rep, "right_equivalent", _counting(rep.right_equivalent, compared))
    with monkeypatch.context() as mp:
        ext_submodules = factor._ext_submodules
        mp.setattr(factor, "_ext_submodules",
                   lambda eds, A: (combo for combo in ext_submodules(eds, A) for _ in range(2)))
        fl = factor.FactorizationLattice.build(c, y, certify=False)
    assert len(compared) == len(fl) == 6
    del compared[:]
    # every candidate keyed to the zero submodule: the second one is not in the class of the first
    monkeypatch.setattr(determine.GammaHom, "eta", lambda self, f: self.zero_sub())
    with pytest.raises(VerificationFailure, match="^distinct classes share an eta image$"):
        factor.FactorizationLattice.build(c, y, certify=False)
    assert len(compared) == 1


@pytest.mark.parametrize("name", catalog.instance_names())
def test_subspace_candidates_lie_in_the_class_of_their_eta_key(name):
    # every candidate of the F_p-subspace enumeration that passes the filter
    # is right equivalent to the class built for its eta key, from one
    # candidate per End(K)-submodule
    fl = catalog_lattice(name)
    count = 0
    for f, _ in factor._candidates(fl.gh, fl.y, subspace_extensions):
        assert rep.right_equivalent(f, fl.classes[fl.lat.index_of(fl.gh.eta(f))].f)
        count += 1
    assert count >= len(fl)


@pytest.mark.parametrize("c_parts, kernels, count", [
    ((("R", 0, 2), ("P", 1)), 1, 61),
    ((("R", 0, 2), ("R", 0, 1)), 2, 20),
    ((("R", 0, 2), ("Q", 2)), 2, 24),
], ids=["R02+P1", "R02+R01", "R02+Q2"])
def test_class_facts_match_the_subspace_candidates_over_f3(c_parts, kernels, count):
    # the catalog is over F_2 only.  Y = Q_1 + R[0,1] over F_3; with two kernel
    # classes End(K) holds maps between them, so it mixes the Ext blocks
    c, y = _kron2_pair(3, c_parts, [("Q", 1), ("R", 0, 1)])
    ks = [ar.tau(s) for s, _, _ in rep.decompose(c) if not ar.is_projective(s)]
    assert len(ks) == kernels
    assert kernels == 1 or any(len(rep.hom_space(a, b)) for a in ks for b in ks if a is not b)
    fl = factor.FactorizationLattice.build(c, y, certify=False)
    want = subspace_classes(c, y)
    assert len(fl) == len(want) == count
    assert [class_facts(rc) for rc in fl.classes] == [class_facts(want[s.key()]) for s in fl.lat.nodes]


@pytest.mark.parametrize("name", catalog.instance_names())
def test_lattice_certificates_agree_with_all_pairs(name):
    # the certificates on covers and one eta read per class pass exactly
    # where the all-pairs oracles pass: on every catalog instance
    fl = catalog_lattice(name)
    fl.check_order_isomorphism()
    fl.check_meets()
    check_order_isomorphism_reference(fl)
    check_meets_reference(fl)


@pytest.mark.parametrize("name", ["kron3-ex10", "subspace3-ex9", "kron2-ex4",
                                  "onepoint-ext-ex19b", "uniserial-6"])
def test_lattice_certificates_catch_a_swapped_class(name):
    # class i's representative replaced by class j's, for every ordered pair:
    # the order certificate raises at its eta reads, before any cover solve,
    # and names class i; the all-pairs oracles raise too
    fl = catalog_lattice(name)
    n = len(fl)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            classes = list(fl.classes)
            classes[i] = fl.classes[j]
            bad = factor.FactorizationLattice(fl.c, fl.y, fl.gh, fl.lat, classes)
            with pytest.raises(VerificationFailure) as err:
                bad.check_order_isomorphism()
            assert str(err.value) == "eta of the representative of class %d is not its node" % i
            with pytest.raises(VerificationFailure):
                check_order_isomorphism_reference(bad)
                check_meets_reference(bad)


@pytest.mark.parametrize("name", ["kron2-ex4", "subspace3-ex9", "uniserial-6"])
def test_meet_certificate_names_a_swapped_class(name):
    # class i's representative replaced by class j's: check_meets alone
    # raises and names class i.  uniserial-6 is a chain, so it has no
    # incomparable pair and a pullback per incomparable pair checked nothing
    fl = catalog_lattice(name)
    n, leq = len(fl), fl.lat.leq
    if name == "uniserial-6":
        assert (leq | leq.T).all()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            classes = list(fl.classes)
            classes[i] = fl.classes[j]
            bad = factor.FactorizationLattice(fl.c, fl.y, fl.gh, fl.lat, classes)
            with pytest.raises(VerificationFailure) as err:
                bad.check_meets()
            assert str(err.value) == "eta of the representative of class %d is not its node" % i
            assert str(err.value).isascii()


@pytest.fixture(scope="module")
def kron2_f3_350():
    # C = R[0,2] + P_2, Y = Q_1 + R[0,1] over F_3: 350 classes, built once
    return factor.FactorizationLattice.build(
        *_kron2_pair(3, [("R", 0, 2), ("P", 2)], [("Q", 1), ("R", 0, 1)]), certify=False)


def test_meet_certificate_reads_eta_once_per_class(monkeypatch, kron2_f3_350):
    # one eta read per class and no pullback (no kernel): on kron3-ex10, and
    # on a Kronecker pair over F_3 whose 350 classes have 53,907 incomparable
    # pairs, one pullback each for the all-pairs check
    etas, kernels = [], []
    monkeypatch.setattr(determine.GammaHom, "eta", _counting(determine.GammaHom.eta, etas))
    monkeypatch.setattr(rep, "kernel", _counting(rep.kernel, kernels))
    leq = kron2_f3_350.lat.leq
    assert len(kron2_f3_350) == 350 and int((~(leq | leq.T)).sum()) // 2 == 53907
    for fl in (catalog_lattice("kron3-ex10"), kron2_f3_350):
        del etas[:], kernels[:]
        fl.check_meets()
        assert len(etas) == len(fl) and kernels == []


def test_order_certificate_solves_only_the_covers(monkeypatch, kron2_f3_350):
    # the negative half comes from the eta reads, one per class; the only
    # solves are the 1,627 covers, in order
    fl = kron2_f3_350
    etas, solves = [], []
    monkeypatch.setattr(determine.GammaHom, "eta", _counting(determine.GammaHom.eta, etas))
    monkeypatch.setattr(rep, "right_leq", _counting(rep.right_leq, solves))
    fl.check_order_isomorphism()
    index = {id(rc.f): k for k, rc in enumerate(fl.classes)}
    assert len(etas) == len(fl) == 350
    assert [(index[id(f)], index[id(g)]) for f, g in solves] == fl.lat.covers()
    assert len(solves) == 1627


@pytest.mark.parametrize("p, c_parts, y_parts", [
    (2, [("P", 2), ("R", 0, 1)], [("Q", 0)]),
    (2, [("R", 0, 2), ("P", 1)], [("Q", 1), ("R", 0, 1)]),
    (2, [("P", 2), ("P", 2)], [("Q", 1)]),
    (3, [("R", 0, 1), ("P", 1)], [("Q", 1)]),
    (3, [("R", "inf", 1), ("P", 1)], [("Q", 0), ("R", 0, 1)]),
    (3, [("P", 2), ("P", 2)], [("Q", 0)]),
], ids=["F2-P2+R01", "F2-R02+P1", "F2-P2^2", "F3-R01+P1", "F3-Rinf1+P1", "F3-P2^2"])
def test_meet_certificate_agrees_with_all_pairs_beyond_the_catalog(p, c_parts, y_parts):
    # the certified build (one eta read per class, then the covers) and the
    # all-pairs oracles, a solve and a pullback for every pair, all pass,
    # also with a repeated summand of C
    fl = factor.FactorizationLattice.build(*_kron2_pair(p, c_parts, y_parts))
    check_order_isomorphism_reference(fl)
    check_meets_reference(fl)


# The classes and the Gamma-lattice depend on C only through add C: repeating a
# summand of C changes End(C) but none of the facts below.  subspace3-ex21,
# uniserial-8 and kron3-ex10 are left out for their running time.
ADD_C_INSTANCES = [n for n in catalog.instance_names()
                   if n not in ("subspace3-ex21", "uniserial-8", "kron3-ex10")]


def _add_c_facts(c, y):
    fl = factor.FactorizationLattice.build(c, y)
    lat, gh = fl.lat, fl.gh
    labels = gh.labels()
    return {
        "nodes": len(lat),
        "shape": lattice.canonical_shape(lat.classify()),
        "covers": len(lat.covers()),
        "height": lat.height(),
        "composition": sorted((labels[i], m) for i, m in
                              gh.jh_between(gh.zero_sub(), gh.full_sub()).items()),
        "cover_labels": sorted(labels[i] for i in lat.cover_labels().values()),
        "classes": sorted((rc.source.dim_vector(), rc.kernel.dim_vector(), rc.is_epi,
                           rc.is_mono, fl.c_length(i)) for i, rc in enumerate(fl.classes)),
    }


@functools.lru_cache(maxsize=None)
def _instance_facts(name):
    _, c, y = catalog.resolve_instance(name)
    return _add_c_facts(c, y)


@pytest.mark.parametrize("extra", ["C", "X0"])
@pytest.mark.parametrize("name", ADD_C_INSTANCES)
def test_facts_depend_on_add_c(name, extra):
    A, c, y = catalog.resolve_instance(name)
    x = c if extra == "C" else rep.decompose(c)[0][0]
    assert _add_c_facts(rep.direct_sum(A, [c, x])[0], y) == _instance_facts(name)


@pytest.mark.parametrize("name", ["a2-epi", "kron2-ex4", "loop-b-ex8"])
def test_determination_depends_on_add_c(name):
    # C' runs over C and over C without one class of its summands; X'^g, the
    # first summand of C' in a random basis, leaves add C' as it is, so each
    # class f is determined by C' + X'^g exactly when it is determined by C'
    A, c, y = catalog.resolve_instance(name)
    fl = factor.FactorizationLattice.build(c, y, certify=False)
    summ = [s for s, _, _ in rep.decompose(c)]
    variants = [c]
    for cl in rep.iso_classes(summ):
        keep = [s for k, s in enumerate(summ) if k not in cl]
        if keep:
            variants.append(rep.direct_sum(A, keep)[0])
    rng = random.Random(name)
    for cp in variants:
        cg = rep.direct_sum(A, [cp, rebased(rep.decompose(cp)[0][0], rng)])[0]
        for rc in fl.classes:
            assert determine.is_right_determined(rc.f, cg) == determine.is_right_determined(rc.f, cp)
