import pytest

from auskit import algebra, ar, catalog, determine, ffmat, kronecker, lattice, rep
from auskit.errors import CapExceeded, VerificationFailure
from helpers import _counting, _twin, fresh_instance


def _lam(algebra):
    lam, _, _ = rep.direct_sum(algebra, [algebra.proj(v) for v in range(algebra.nv)])
    return lam


def test_chain_a2(a2):
    gh = determine.GammaHom(_lam(a2), a2.proj(1))
    lat = lattice.SubmoduleLattice.build(gh)
    assert len(lat) == 3
    assert lat.classify() == ("I", 2)
    assert lat.height() == 2
    covers = lat.covers()
    assert len(covers) == 2
    labels = lat.cover_labels()
    dims = sorted(gh.labels()[labels[c]] for c in covers)
    assert dims == [(1, 0), (1, 1)]


def test_kron2_injective_lattice(kron2):
    # submodules of Q(a) through the identity functor: 6 nodes of height 3
    gh = determine.GammaHom(_lam(kron2), kron2.inj(0))
    lat = lattice.SubmoduleLattice.build(gh)
    assert len(lat) == 6
    assert lat.height() == 3
    assert lat.counts_by_dim() == {0: 1, 1: 1, 2: 3, 3: 1}
    assert lat.classify() == ("other",)
    assert len(lat.covers()) == 7
    assert lat.check_modular()
    # matches the representation-side submodule count
    nodes = lattice.rep_submodule_lattice(kron2.inj(0))
    assert len(nodes) == 6
    assert sorted(t.dim for t in nodes) == sorted(s.dim for s in lat.nodes)


def test_meet_join(kron2):
    gh = determine.GammaHom(_lam(kron2), kron2.inj(0))
    lat = lattice.SubmoduleLattice.build(gh)
    mids = [i for i, s in enumerate(lat.nodes) if s.dim == 2]
    a, b = mids[0], mids[1]
    assert lat.nodes[lat.meet(a, b)].dim == 1
    assert lat.join(a, b) == lat.full_i


def test_boolean_cube(sub3):
    ns = [ar.tau(sub3.simple(v)) for v in (1, 2, 3)]
    c, _, _ = rep.direct_sum(sub3, ns)
    gh = determine.GammaHom(c, sub3.inj(0))
    lat = lattice.SubmoduleLattice.build(gh)
    assert len(lat) == 8
    assert len(lat.covers()) == 12
    assert lat.height() == 3
    assert lat.classify() == ("other",)
    assert lat.check_modular()


def test_grassmann_kron3(kron3):
    c = ar.tau_minus(kron3.simple(0))
    assert c.dim_vector() == (8, 3)
    gh = determine.GammaHom(c, kron3.simple(1))
    assert gh.n == 3
    lat = lattice.SubmoduleLattice.build(gh)
    assert lat.classify() == ("G", 3, 2)
    assert len(lat) == 16
    assert lat.counts_by_dim() == {0: 1, 1: 7, 2: 7, 3: 1}


def test_uniserial_chain(uni4):
    pa = uni4.proj(0)
    gh = determine.GammaHom(pa, pa)
    lat = lattice.SubmoduleLattice.build(gh)
    assert lat.classify() == ("I", 4)
    assert len(lat) == 5


def test_lambda_side_matches_gamma_side(a3lin):
    pc = a3lin.proj(2)
    gh = determine.GammaHom(_lam(a3lin), pc)
    lat = lattice.SubmoduleLattice.build(gh)
    nodes = lattice.rep_submodule_lattice(pc)
    assert len(lat) == len(nodes) == 4
    assert lat.classify() == ("I", 3)


def test_maximal_submodules_q1(kron2):
    qa = kron2.inj(0)
    maxs = lattice.maximal_submodules(qa)
    assert len(maxs) == 3
    reps_ = [m for m, _ in maxs]
    assert all(m.dim_vector() == (1, 1) for m in reps_)
    for i in range(3):
        for j in range(i):
            assert not rep.is_isomorphic(reps_[i], reps_[j])


def test_sub_rep_roundtrip(kron2):
    qa = kron2.inj(0)
    nodes = lattice.rep_submodule_lattice(qa)
    for t in nodes:
        m, incl = lattice.sub_rep_of(qa, t)
        assert m.total_dim == t.dim
        assert incl.is_mono()


def test_caps(monkeypatch, kron3):
    monkeypatch.setenv("AUSKIT_CAPS", "2:2")
    c = ar.tau_minus(kron3.simple(0))
    gh = determine.GammaHom(c, kron3.simple(1))
    with pytest.raises(CapExceeded):
        lattice.SubmoduleLattice.build(gh)
    monkeypatch.setenv("AUSKIT_CAPS", "6")
    assert lattice.dim_cap(2) == 6
    monkeypatch.delenv("AUSKIT_CAPS")
    assert lattice.dim_cap(2) == 12


def test_search_forms_one_sum_per_cover():
    # kP(0) -> kP(2) over F_3 is G(3, 3): every residue line mod a node gives
    # one sum, and here each sum is a cover, so the sums are exactly the covers
    A = kronecker.kronecker_algebra(2, 3)
    gh = determine.GammaHom(kronecker.kP(A, 0), kronecker.kP(A, 2))
    sums = []
    real = ffmat.Subspace.sum

    def counting(self, other):
        sums.append(other)
        return real(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffmat.Subspace, "sum", counting)
        lat = lattice.SubmoduleLattice.build(gh)
    assert lat.classify() == ("G", 3, 3)
    assert len(lat) == 28
    assert len(sums) == len(lat.covers()) == 78


def _lattice_facts(lat):
    return [s.key() for s in lat.nodes], lat.leq.tobytes(), lat.covers()


def test_node_cap(monkeypatch, kron2):
    A = kronecker.kronecker_algebra(2, 3)
    gh = determine.GammaHom(kronecker.kP(A, 0), kronecker.kP(A, 2))
    x = kron2.inj(0)
    want_gamma = _lattice_facts(lattice.SubmoduleLattice.build(gh))
    want_rep = [s.key() for s in lattice.rep_submodule_lattice(x)]
    gh_state = dict(vars(gh))
    memos = {alg: set(alg._memo) for alg in (A, kron2)}

    monkeypatch.setattr(lattice, "NODE_CAP", 5)
    with pytest.raises(CapExceeded, match="node cap"):
        lattice.SubmoduleLattice.build(gh)
    with pytest.raises(CapExceeded, match="node cap"):
        lattice.rep_submodule_lattice(x)
    # nothing half-built is kept: no new memo entries, no new attributes
    assert {alg: set(alg._memo) for alg in (A, kron2)} == memos
    assert vars(gh).keys() == gh_state.keys()
    assert all(vars(gh)[k] is v for k, v in gh_state.items())

    monkeypatch.undo()
    assert _lattice_facts(lattice.SubmoduleLattice.build(gh)) == want_gamma
    assert [s.key() for s in lattice.rep_submodule_lattice(x)] == want_rep


def test_modules_over_the_node_cap_are_refused_before_the_search(monkeypatch):
    monkeypatch.setattr(lattice, "_cyclic_search", lambda *args: pytest.fail("search entered"))
    for name in ("kron3-ex10", "subspace3-ex21"):
        c = catalog.resolve_instance(name)[1]
        assert lattice._submodule_lower_bound(c) > lattice.NODE_CAP
        with pytest.raises(CapExceeded, match="node cap"):
            lattice.rep_submodule_lattice(c)


def _build_counting_closes(gh):
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(determine.GammaHom, "close", _counting(determine.GammaHom.close, calls))
        lat = lattice.SubmoduleLattice.build(gh)
    return lat, len(calls)


def _seed_line_count(gh):
    """Sum over the summand classes i of C of the number of lines of M e_i."""
    p = gh.p
    return sum((p ** ffmat.rank(m, p) - 1) // (p - 1) for m in gh.simple_data()[1])


def test_gamma_search_closes_one_seed_per_line_of_a_class_idempotent():
    # the twelve pairwise non-isomorphic summands of criterion 5: 11 seed lines
    # instead of the 1,023 lines of Hom(C, Y)
    _, c, y = fresh_instance("subspace3-ex21")
    gh = determine.GammaHom(c, y)
    lat, closes = _build_counting_closes(gh)
    assert len(lat) == 30 and gh.n == 10
    assert closes == _seed_line_count(gh) == 11


def test_gamma_seeds_do_not_grow_with_repeated_summands():
    # C + C has twice the Hom space of C but the same summand classes
    A, c, y = fresh_instance("kron2-ex4")
    rows = []
    for x in (c, rep.direct_sum(A, [c, c])[0]):
        gh = determine.GammaHom(x, y)
        lat, closes = _build_counting_closes(gh)
        rows.append((gh.n, len(lat), closes, _seed_line_count(gh)))
    (n, nodes, closes, lines), doubled = rows
    assert (n, closes, lines) == (3, 4, 4)
    assert doubled == (6, nodes, 4, 4)


def test_equal_content_gamma_hom_builds_from_the_memo():
    A, c, y = fresh_instance("kron2-ex4")
    lat, closes = _build_counting_closes(determine.GammaHom(c, y))
    assert closes == 4
    hits, misses = A.memo_stats()["lattice"]
    again, closes = _build_counting_closes(determine.GammaHom(_twin(c), _twin(y)))
    assert closes == 0
    assert A.memo_stats()["lattice"] == (hits + 1, misses)
    assert _lattice_facts(again) == _lattice_facts(lat)


def test_memoized_lattices_are_read_only():
    A, c, y = fresh_instance("kron2-ex4")
    sizes = []
    for _ in range(2):  # a cold search, then a memo hit
        lat = lattice.SubmoduleLattice.build(determine.GammaHom(c, y))
        with pytest.raises(ValueError):
            lat.nodes[-1].B[0, 0] = 0
        nodes, seeds = lattice.graded_submodules(A, y.dims, rep.total_arrows(y))
        g, cg = seeds[0]
        with pytest.raises(ValueError):
            g[0] = 0
        with pytest.raises(ValueError):
            cg.B[0, 0] = 0
        sizes.append(len(nodes))
        nodes.clear()  # the caller's own list: the stored lattice keeps its nodes
    assert sizes[0] == sizes[1] > 0
    assert A.memo_stats()["lattice"] == (2, 2)


@pytest.mark.parametrize("p, stats", [(2, (97, 14)), (3, (121, 17))])
def test_table_memo_hits_equal_cold_searches(monkeypatch, p, stats):
    # 111 and 138 rows, one lookup each, over 14 and 17 distinct (action,
    # idempotent) contents; every row's lattice equals a search with the memo bypassed
    algs, lats = [], []
    make_algebra, build = kronecker.kronecker_algebra, lattice.SubmoduleLattice.build.__func__

    def building(cls, gh):
        lats.append(build(cls, gh))
        return lats[-1]

    with monkeypatch.context() as mp:
        mp.setattr(kronecker, "kronecker_algebra", lambda *a: algs.append(make_algebra(*a)) or algs[-1])
        mp.setattr(lattice.SubmoduleLattice, "build", classmethod(building))
        rows, ok = kronecker.verify_table(p, 3, 3)
    assert ok and len(rows) == len(lats) == sum(stats)
    assert algs[0].memo_stats()["lattice"] == stats

    memoized = algebra.Algebra.memoized
    monkeypatch.setattr(algebra.Algebra, "memoized", lambda self, key, compute:
                        compute() if key[0] == "lattice" else memoized(self, key, compute))
    for lat in lats:
        assert _lattice_facts(lattice.SubmoduleLattice.build(lat.gh)) == _lattice_facts(lat)
    assert algs[0].memo_stats()["lattice"] == stats


def test_gamma_seeds_wait_for_the_idempotent_certificate(monkeypatch):
    # a fresh algebra: the C side of simple_data is memoized by content, so a
    # shared one may already hold the answer and never read the patch
    _, c, y = fresh_instance("kron2-ex4")
    gh = determine.GammaHom(c, y)
    real, calls = rep.decompose, []
    real(c)  # memoized first, so the inner decompositions below do not read the patch
    monkeypatch.setattr(rep, "decompose", _counting(lambda x: real(x)[:-1], calls))  # lose a summand
    monkeypatch.setattr(determine.GammaHom, "close", lambda *args: pytest.fail("closure before the certificate"))
    with pytest.raises(VerificationFailure, match="do not sum to the identity"):
        lattice.SubmoduleLattice.build(gh)
    assert [x for x, in calls] == [c]


def test_sub_rep_of_reads_the_vertex_spans_without_elimination(monkeypatch):
    _, _, y = catalog.resolve_instance("kron2-ex4")
    nodes = lattice.rep_submodule_lattice(y)
    calls = []
    monkeypatch.setattr(ffmat, "rref", _counting(ffmat.rref, calls))
    subs = [lattice.sub_rep_of(y, s) for s in nodes]
    assert calls == []
    monkeypatch.undo()
    for s, (sub, incl) in zip(nodes, subs):
        assert sub.total_dim == s.dim and incl.is_mono()


def test_exports(kron2):
    gh = determine.GammaHom(_lam(kron2), kron2.inj(0))
    lat = lattice.SubmoduleLattice.build(gh)
    data = lat.to_json()
    assert data["node_count"] == 6
    assert len(data["covers"]) == 7
    assert data["shape"] == ["other"]
    dot = lat.to_dot()
    assert dot.count("->") == 7 and dot.startswith("digraph")
