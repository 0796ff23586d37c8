"""The Hom layer against brute force on tiny representations over F_2 and F_3.

Every vertexwise linear map X -> Y is enumerated and tested for the
intertwining property with plain matrix products, independently of the
generator system (the images of generators of X) that hom_space takes the
kernel of and that right_leq and left_leq solve once per question.  The
rows hom_space stores are also compared byte for byte with the free-column
kernel basis of the full intertwiner system, built here.
"""

import itertools
import random

import numpy as np
import pytest

from auskit import algebra, ar, catalog, ffmat, rep
from auskit import kronecker as kr
from auskit.errors import VerificationFailure
from helpers import BasisHom, all_maps, rand_mat

UNI3_F3 = "field 3\nvertices a\narrow x a a\nrelation x*x*x\n"
KRON2_F2 = "field 2\nvertices a b\narrow x b a\narrow y b a\n"


def _random_rep(alg, rng, maxdim=2):
    dims = [rng.randrange(maxdim + 1) for _ in alg.quiver.vertices]
    mats = {ai: rand_mat(rng, dims[v], dims[u], alg.p)
            for ai, (_, u, v) in enumerate(alg.quiver.arrows)}
    return rep.Rep(alg, dims, mats)


def _pools(kron2, loopb):
    """Families of tiny modules over one algebra each: seeded random
    representations of the Kronecker quiver over F_2 and F_3, and
    indecomposables of two algebras with relations."""
    rng = random.Random(7)
    k3 = kr.kronecker_algebra(2, 3)
    uni3 = algebra.parse_algebra_file(UNI3_F3)
    return {
        "kron2-F2": [_random_rep(kron2, rng) for _ in range(6)] + [kron2.proj(0), kron2.inj(1)],
        "kron2-F3": [_random_rep(k3, rng) for _ in range(5)] + [kr.kR(k3, 1, 1)],
        "loop-b": [f(v) for f in (loopb.proj, loopb.inj, loopb.simple) for v in ("a", "b")],
        "uni3-F3": [uni3.proj("a"), rep.rad(uni3.proj("a"))[0], uni3.simple("a")],
    }


def _morphisms(x, y):
    flats, ok = all_maps(x, y)
    return [rep.morphism_from_flat(x, y, f) for f in flats[ok]]


def _combination(hom, coeffs):
    f = rep.zero_morphism(hom.x, hom.y)
    for c, b in zip(coeffs, hom):
        f = f.add(b.scale(c))
    return f


def _pairs(pools):
    for name, mods in pools.items():
        for x, y in itertools.product(mods, repeat=2):
            yield name, x, y


def _same(f, g):
    return (f.flat() == g.flat()).all()


def test_hom_dimension_matches_enumeration(kron2, loopb):
    for name, x, y in _pairs(_pools(kron2, loopb)):
        hom = rep.hom_space(x, y)
        flats, ok = all_maps(x, y)
        assert int(ok.sum()) == x.p ** len(hom), (name, x, y)
        for f in hom:
            f.check()


def test_coords_round_trip_every_combination(kron2, loopb):
    for name, x, y in _pairs(_pools(kron2, loopb)):
        hom = rep.hom_space(x, y)
        for coeffs in itertools.product(range(x.p), repeat=len(hom)):
            f = _combination(hom, coeffs)
            assert list(rep.morphism_coords(f, hom)) == list(coeffs), name
            assert _same(hom.element(coeffs), f), name


def test_coords_reject_maps_that_do_not_intertwine(kron2, loopb):
    rejected = 0
    for name, x, y in _pairs(_pools(kron2, loopb)):
        flats, ok = all_maps(x, y)
        hom = rep.hom_space(x, y)
        for flat in flats[~ok][:3]:
            f = rep.morphism_from_flat(x, y, flat)  # not checked on purpose
            with pytest.raises(VerificationFailure):
                f.check()
            with pytest.raises(VerificationFailure):
                rep.morphism_coords(f, hom)
            rejected += 1
    assert rejected > 50


def test_composition_images_match_enumeration(kron2, loopb):
    # factor_subspace (f o -) and hom_matrix_precompose (- o g) against all maps
    for name, mods in _pools(kron2, loopb).items():
        for w, x, y in itertools.islice(itertools.product(mods, repeat=3), 0, None, 7):
            hom_wy, hom_xy, maps_wx = rep.hom_space(w, y), rep.hom_space(x, y), _morphisms(w, x)
            for f in hom_xy[:2]:
                img = rep.factor_subspace(f, w, hom_wy)
                through_f = [f.compose(u) for u in maps_wx]
                assert x.p ** img.dim == len({g.key() for g in through_f}), name
                assert all(img.contains(rep.morphism_coords(g, hom_wy)) for g in through_f)
            for g in rep.hom_space(w, x)[:2]:
                m = rep.hom_matrix_precompose(hom_xy, g, hom_wy)
                for j, h in enumerate(hom_xy):
                    assert list(m[:, j]) == list(rep.morphism_coords(h.compose(g), hom_wy))


def _intertwines(f):
    try:
        f.check()
    except VerificationFailure:
        return False
    return True


def test_canonical_reader_matches_the_rref_reader(kron2, loopb):
    # hom_space reads coordinates at the free columns of its canonical rows;
    # BasisHom reads the same rows through the RREF of [B | 1]
    rng = random.Random(13)
    rejected = 0
    for name, x, y in _pairs(_pools(kron2, loopb)):
        hom = rep.hom_space(x, y)
        ref = BasisHom(x, y, hom)
        assert (ref.matrix == hom.matrix).all(), name
        coeffs = np.array([[rng.randrange(x.p) for _ in hom] for _ in range(4)], dtype=np.int64)
        flats = (coeffs @ hom.matrix) % x.p
        assert (hom.coords(flats) == coeffs).all() and (ref.coords(flats) == coeffs).all(), name
        # a member plus a unit map that does not intertwine is not a member
        units = np.eye(flats.shape[1], dtype=np.int64)
        off = [k for k, u in enumerate(units) if not _intertwines(rep.morphism_from_flat(x, y, u))]
        if off:
            bad = (flats[:1] + units[rng.choice(off)]) % x.p
            for reader in (hom, ref):
                with pytest.raises(VerificationFailure, match="outside Hom"):
                    reader.coords(bad)
            rejected += 1
    assert rejected > 40


def test_batched_compositions_match_one_map_at_a_time(kron2, loopb):
    # _compose_rows over a Morphism g, a HomSpace g and a stack of flattened
    # maps g (g-major rows), after and before, against Morphism.compose one
    # pair at a time
    def rows(maps, width):
        return np.array([f.flat() for f in maps], dtype=np.int64).reshape(len(maps), width)

    zero_homs = zero_mods = 0
    for name, mods in _pools(kron2, loopb).items():
        mods = mods + [rep.zero_rep(mods[0].A)]
        for w, x, y in itertools.islice(itertools.product(mods, repeat=3), 0, None, 5):
            hom, hom_yw, hom_wx = rep.hom_space(x, y), rep.hom_space(y, w), rep.hom_space(w, x)
            zero_homs += not (hom and hom_yw and hom_wx)
            zero_mods += any(m.is_zero() for m in (w, x, y))
            width_xw = sum(a * b for a, b in zip(x.dims, w.dims))
            width_wy = sum(a * b for a, b in zip(w.dims, y.dims))
            got = rep._compose_rows(hom, hom_yw, True)
            assert (got == rows([g.compose(h) for g in hom_yw for h in hom], width_xw)).all(), name
            got = rep._compose_rows(hom, hom_wx, False)
            assert (got == rows([h.compose(g) for g in hom_wx for h in hom], width_wy)).all(), name
            for g, gx, gy, after in ((hom_yw, y, w, True), (hom_wx, w, x, False)):
                # the basis backwards, then the sum of its first and last maps
                stack = np.concatenate([g.matrix[::-1], (g.matrix[:1] + g.matrix[-1:]) % x.p])
                maps = [rep.morphism_from_flat(gx, gy, s) for s in stack]
                got = rep._compose_rows(hom, (gx, gy, stack), after)
                want = [m.compose(h) if after else h.compose(m) for m in maps for h in hom]
                assert (got == rows(want, width_xw if after else width_wy)).all(), name
            for g in hom_yw[:2]:
                got = rep._compose_rows(hom, g, True)
                assert (got == rows([g.compose(h) for h in hom], width_xw)).all(), name
            for g in hom_wx[:2]:
                got = rep._compose_rows(hom, g, False)
                assert (got == rows([h.compose(g) for h in hom], width_wy)).all(), name
    assert zero_homs > 10 and zero_mods > 10
    with pytest.raises(VerificationFailure, match="composition"):
        rep._compose_rows(rep.hom_space(kron2.proj(0), kron2.proj(0)), rep.hom_space(kron2.inj(1), kron2.proj(0)), True)


def _random_map(hom, rng):
    return _combination(hom, [rng.randrange(hom.x.p) for _ in hom])


def test_order_verdicts_match_exhaustive_search(kron2, loopb):
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for name, mods in _pools(kron2, loopb).items():
        for x, z, y in itertools.product(mods, repeat=3):
            if rng.random() > 0.25:
                continue
            hom_xy, hom_zy = rep.hom_space(x, y), rep.hom_space(z, y)
            g = _random_map(hom_zy, rng)
            hs = _morphisms(x, z)
            # one f that factors through g by construction, one random f
            for f in (g.compose(rng.choice(hs)), _random_map(hom_xy, rng)):
                want = any(_same(g.compose(h), f) for h in hs)
                ok, h = rep.right_leq(f, g)
                assert ok == want, name
                if ok:
                    assert _same(g.compose(h.check()), f)
                seen[ok] += 1
            # left_leq on maps out of a common source: f = h o u for some h?
            hom_yx, hom_yz = rep.hom_space(y, x), rep.hom_space(y, z)
            u = _random_map(hom_yz, rng)
            hs = _morphisms(z, x)
            for f in (rng.choice(hs).compose(u), _random_map(hom_yx, rng)):
                want = any(_same(h.compose(u), f) for h in hs)
                ok, h = rep.left_leq(f, u)
                assert ok == want, name
                if ok:
                    assert _same(h.check().compose(u), f)
                seen[ok] += 1
    assert min(seen.values()) > 20


def test_split_verdicts_match_exhaustive_search(kron2, loopb):
    rng = random.Random(5)
    counts = {True: 0, False: 0}
    for name, x, y in _pairs(_pools(kron2, loopb)):
        hom = rep.hom_space(x, y)
        for g in list(hom[:2]) + [_random_map(hom, rng)]:
            one_y, one_x = rep.identity_morphism(y), rep.identity_morphism(x)
            want_epi = any(_same(g.compose(h), one_y) for h in _morphisms(y, x))
            want_mono = any(_same(h.compose(g), one_x) for h in _morphisms(y, x))
            assert rep.is_split_epi(g) == want_epi, name
            assert rep.is_split_mono(g) == want_mono, name
            counts[want_epi or want_mono] += 1
    assert min(counts.values()) > 10


def test_realize_cocycle_into_a_sum_of_copies(kron2):
    y, k = kron2.simple("b"), kron2.simple("a")
    ed = ar.ExtData(y, k)
    assert ed.dim == 2
    r0, r1 = ed.class_reps()
    kk, incls, _ = rep.direct_sum(kron2, [k, k])

    def realize(c0, c1):
        xi = incls[0].compose(ed.cocycle(c0)).add(incls[1].compose(ed.cocycle(c1)))
        x, u, g = ed.realize(xi)
        assert u.src is kk and g.tgt is y
        assert x.total_dim == kk.total_dim + y.total_dim
        assert u.is_mono() and g.is_epi() and g.compose(u).is_zero()
        assert rep.kernel(g)[0].dim_vector() == kk.dim_vector()  # exact in the middle
        return x, u, g

    zero = np.zeros(len(ed.cocycles), dtype=int)
    x, u, g = realize(r0, r1)
    assert not rep.is_split_epi(g) and not rep.is_split_mono(u)
    # (xi, 0) is the extension of xi plus a split copy of K
    x, u, g = realize(r0, zero)
    e0 = ed.realize(ed.cocycle(r0))[0]
    assert rep.is_isomorphic(x, rep.direct_sum(kron2, [e0, k])[0])
    assert not rep.is_split_epi(g)
    x, u, g = realize(zero, zero)
    assert rep.is_split_epi(g) and rep.is_split_mono(u)


# --- generators: several at one vertex, and relations among their images ------


def _intertwiner_rows(x, y):
    """The free-column kernel basis of the intertwiner system: the unknowns
    are the row-major vec(f_v), and an arrow a: u -> v gives the rows of
    vec(Y_a f_u - f_v X_a)."""
    p = x.p
    starts = list(itertools.accumulate([0] + [a * b for a, b in zip(x.dims, y.dims)]))
    rows = [np.zeros((0, starts[-1]), dtype=np.int64)]
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        block = np.zeros((y.dims[v] * x.dims[u], starts[-1]), dtype=np.int64)
        if block.size:
            block[:, starts[u] : starts[u + 1]] = np.kron(y.mats[ai], np.eye(x.dims[u], dtype=np.int64))
            block[:, starts[v] : starts[v + 1]] -= np.kron(np.eye(y.dims[v], dtype=np.int64), x.mats[ai].T)
            rows.append(block % p)
    return ffmat.kernel(np.concatenate(rows), p).astype(np.min_scalar_type(p - 1))


def _generator_pools(kron2, loopb, sub3):
    """Modules with several generators at one vertex, and modules whose
    generator columns satisfy relations."""
    two_pa_sb = rep.direct_sum(kron2, [kron2.proj("a"), kron2.proj("a"), kron2.simple("b")])[0]
    pa_sa = rep.direct_sum(loopb, [loopb.proj("a"), loopb.simple("a")])[0]
    return {
        "kron2": [two_pa_sb, kron2.proj("b"), kron2.inj("a"), kron2.simple("b"),
                  rep.direct_sum(kron2, [kron2.simple("a"), kron2.simple("b")])[0]],
        "loop-b": [pa_sa, loopb.proj("b"), loopb.inj("a"), rep.rad(loopb.proj("b"))[0],
                   loopb.simple("b")],
        "subspace3": [sub3.inj("a"), ar.tau(sub3.inj("a")), sub3.proj("b1"), sub3.simple("a"),
                      rep.direct_sum(sub3, [sub3.simple("b1"), sub3.simple("b2")])[0]],
    }


def test_pools_have_several_generators_and_relations(kron2, loopb, sub3):
    pools = _generator_pools(kron2, loopb, sub3)
    verts = [rep._generators(x)[0] for mods in pools.values() for x in mods]
    assert any(len(vs) > len(set(vs)) for vs in verts)  # two generators at one vertex
    for name, mods in pools.items():
        assert any(len(om) for x in mods for om, _, _ in rep._generators(x)[3]), name


def test_generator_rows_equal_the_intertwiner_kernel(kron2, loopb, sub3):
    for name, x, y in _pairs(_generator_pools(kron2, loopb, sub3)):
        got, want = rep._hom_rows(x, y), _intertwiner_rows(x, y)
        assert got.dtype == want.dtype and got.shape == want.shape, (name, x, y)
        assert got.tobytes() == want.tobytes(), (name, x, y)
        flats, ok = all_maps(x, y)
        assert int(ok.sum()) == x.p ** len(got), (name, x, y)


def test_order_witnesses_compose_back(kron2, loopb, sub3):
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for name, mods in _generator_pools(kron2, loopb, sub3).items():
        for x, z, y in itertools.product(mods, repeat=3):
            g = _random_map(rep.hom_space(z, y), rng)
            for f in (g.compose(_random_map(rep.hom_space(x, z), rng)),
                      _random_map(rep.hom_space(x, y), rng)):
                ok, h = rep.right_leq(f, g)
                if ok:
                    assert _same(g.compose(h), f), name
                seen[ok] += 1
            u = _random_map(rep.hom_space(y, z), rng)
            for f in (_random_map(rep.hom_space(z, x), rng).compose(u),
                      _random_map(rep.hom_space(y, x), rng)):
                ok, h = rep.left_leq(f, u)
                if ok:
                    assert _same(h.compose(u), f), name
                seen[ok] += 1
    assert min(seen.values()) > 20


def test_memo_hit_does_no_rref(monkeypatch, kron2, loopb, sub3):
    pairs = list(_pairs(_generator_pools(kron2, loopb, sub3)))
    for _, x, y in pairs:
        rep.hom_space(x, y)
    twins = [(rep.Rep(x.A, x.dims, x.mats), rep.Rep(y.A, y.dims, y.mats)) for _, x, y in pairs]
    calls = []
    real = ffmat.rref
    monkeypatch.setattr(ffmat, "rref", lambda a, p: calls.append(p) or real(a, p))
    for x, y in twins:
        hom = rep.hom_space(x, y)
        assert (hom.coords(hom.matrix) == np.eye(len(hom), dtype=np.int64)).all()
    assert calls == []


def _fresh_kron2():
    """A Kronecker algebra with an empty memo."""
    return algebra.parse_algebra_file(KRON2_F2, name="kron2")


def test_generator_columns_short_of_rank_raise(monkeypatch):
    A = _fresh_kron2()
    x, y = A.proj("b"), A.inj("a")
    real = rep.Rep.path_stack
    monkeypatch.setattr(rep.Rep, "path_stack", lambda self, v, w: 0 * real(self, v, w))
    with pytest.raises(VerificationFailure, match="do not span"):
        rep.hom_space(x, y)
    assert not [k for k in A._memo if k[0] in ("gens", "hom")]


def test_basis_map_that_does_not_intertwine_raises(monkeypatch):
    # with every relation dropped, the image e_b -> 1 of the generator of S(b)
    # gives a map S(b) -> P(b) that does not commute with the arrows
    A = _fresh_kron2()
    x, y = A.simple("b"), A.proj("b")
    monkeypatch.setattr(ffmat, "kernel", lambda a, p: np.eye(np.shape(a)[1], dtype=np.int64))
    with pytest.raises(VerificationFailure, match="not a morphism"):
        rep.hom_space(x, y)
    assert ("hom", x.key(), y.key()) not in A._memo


def test_generator_columns_of_a_non_projective_short_of_rank_raise(monkeypatch):
    # P(b) + S(b) has two generators at b, and the generator check catches
    # the zeroed columns as it does for P(b) above
    A = _fresh_kron2()
    x, y = rep.direct_sum(A, [A.proj("b"), A.simple("b")])[0], A.inj("a")
    real = rep.Rep.path_stack
    monkeypatch.setattr(rep.Rep, "path_stack", lambda self, v, w: 0 * real(self, v, w))
    with pytest.raises(VerificationFailure, match="^generator columns do not span the module$"):
        rep.hom_space(x, y)
    assert not [k for k in A._memo if k[0] in ("gens", "hom")]


# --- Hom out of P(v): one generator and no relation (Yoneda) ----------------------


def _yoneda_targets():
    """(A, modules) per catalog algebra over F_2 and for kron2 over F_3: the
    projectives, injectives and simples, the C and Y of each catalog instance
    on the algebra and their summands, and over F_3 a few Kronecker modules."""
    out = []
    for name in catalog.algebra_names():
        A = catalog.load_catalog_algebra(name)
        mods = [m for v in range(A.nv) for m in (A.proj(v), A.inj(v), A.simple(v))]
        for inst in catalog.instance_names():
            if catalog.get_instance(inst)["algebra"] == name:
                for m in catalog.resolve_instance(inst)[1:]:
                    mods += [m] + [s for s, _, _ in rep.decompose(m)]
        out.append((A, mods))
    k3 = kr.kronecker_algebra(2, 3)
    out.append((k3, [kr.kP(k3, 1), kr.kP(k3, 2), kr.kQ(k3, 1), kr.kQ(k3, 2), kr.kR(k3, 0, 2), kr.kR(k3, 1, 1),
                     kr.kR(k3, 2, 1), rep.direct_sum(k3, [kr.kQ(k3, 1), kr.kR(k3, 0, 1)])[0]]))
    return out


def test_yoneda_rows_equal_the_intertwiner_rows():
    # for every catalog algebra, vertex v and test module X, Hom(P(v), X) has
    # dim X_v canonical rows, and they are those of the full intertwiner
    # system
    count = 0
    for A, mods in _yoneda_targets():
        for v in range(A.nv):
            pv = A.proj(v)
            for x in mods:
                got = rep._hom_rows(pv, x)
                assert len(got) == x.dims[v]
                assert got.tobytes() == _intertwiner_rows(pv, x).tobytes()
                count += 1
    assert count > 400


def test_a_projective_has_one_generator_and_no_equations():
    # the generator system out of P(v) is Yoneda's: one generator, e_v, at v,
    # zero equation rows, and dim X_v unknowns that read the maps directly
    count = 0
    for A, mods in _yoneda_targets():
        for v in range(A.nv):
            pv = A.proj(v)
            verts, lifts, _, _ = rep.generators(pv)
            assert verts == [v] and len(lifts) == 1
            for x in mods:
                eqs, reads = rep._generator_system(pv, x)
                assert eqs.shape == (0, x.dims[v]) and len(reads) == x.dims[v]
                count += 1
    assert count > 400


def test_corrupted_reads_out_of_a_projective_raise(monkeypatch):
    # Hom(P(b), I(a)) over kron2: two rows, each fixed by the image of e_b
    def fresh():
        A = _fresh_kron2()
        return A, A.proj("b"), A.inj("a")

    A, x, y = fresh()
    assert len(rep.hom_space(x, y)) == 2

    def flip(reads):  # one entry of the block at a: the row stops intertwining
        reads[0, 0] = (reads[0, 0] + 1) % 2
        return reads

    def repeat(reads):  # two equal rows: not independent
        reads[1] = reads[0]
        return reads

    for change, message in ((flip, "^a Hom basis map is not a morphism$"),
                            (repeat, "^generator images do not give independent maps$")):
        A, x, y = fresh()
        with monkeypatch.context() as mp:
            mp.setattr(rep, "_generator_system",
                       lambda x, z, real=rep._generator_system: (lambda e, r: (e, change(r.copy())))(*real(x, z)))
            with pytest.raises(VerificationFailure, match=message):
                rep.hom_space(x, y)
        assert ("hom", x.key(), y.key()) not in A._memo

    # with the matrix of the trivial path of P(b) (its one path from b to b)
    # zeroed, the image of e_b does not span P(b)_b
    A, x, y = fresh()
    real = rep.Rep.path_stack
    monkeypatch.setattr(rep.Rep, "path_stack", lambda self, v, w: real(self, v, w) * (0 if v == w == 1 else 1))
    with pytest.raises(VerificationFailure, match="^generator columns do not span the module$"):
        rep.hom_space(x, y)
    assert ("hom", x.key(), y.key()) not in A._memo


# --- right_leq and left_leq: one solve on the generator system, no Hom basis ------


def _order_cases(A, rng):
    """(f, g, u, right, left): over the tiny modules of A, f = g o h for a
    random h and f random, u a random map out of f.src, and whether f = g o h
    and f = h o u for some h, by enumeration."""
    mods = [A.proj(0), A.proj(1), A.inj(0), A.inj(1), A.simple(0), A.simple(1),
            rep.direct_sum(A, [A.simple(0), A.simple(1)])[0]]
    out = []
    for x, z, y in itertools.product(mods, repeat=3):
        g = _random_map(rep.hom_space(z, y), rng)
        hs = _morphisms(x, z)
        u = _random_map(rep.hom_space(x, z), rng)
        for f in (g.compose(rng.choice(hs)), _random_map(rep.hom_space(x, y), rng)):
            right = any(_same(g.compose(h), f) for h in hs)
            left = any(_same(h.compose(u), f) for h in _morphisms(z, y))
            out.append((f, g, u, right, left))
    return out


def test_order_solves_build_no_hom_basis(monkeypatch):
    A = _fresh_kron2()
    cases = _order_cases(A, random.Random(17))
    memo = set(A._memo)

    def refuse(*args):
        raise AssertionError("a Hom basis was built")

    monkeypatch.setattr(rep, "hom_space", refuse)
    monkeypatch.setattr(rep, "_hom_rows", refuse)
    seen = {True: 0, False: 0}
    for f, g, u, right, left in cases:
        ok, h = rep.right_leq(f, g)
        assert ok == right and (h is None) == (not ok)
        if ok:
            assert _same(g.compose(h.check()), f)
        ok, h = rep.left_leq(f, u)
        assert ok == left and (h is None) == (not ok)
        if ok:
            assert _same(h.check().compose(u), f)
        seen[right] += 1
        seen[left] += 1
    assert min(seen.values()) > 50
    assert not [k for k in set(A._memo) - memo if k[0] == "hom"]


def test_a_wrong_solve_raises_naming_the_pair(monkeypatch):
    # f = g o 1 for g = the inclusion rad P(b) -> P(b); a solve that adds 1
    # to every unknown gives no morphism h with f = g o h
    A = _fresh_kron2()
    r, g = rep.rad(A.proj("b"))
    real = ffmat.solve
    monkeypatch.setattr(ffmat, "solve", lambda a, b, p: (lambda u: None if u is None else (u + 1) % p)(real(a, b, p)))
    with pytest.raises(VerificationFailure, match=r"^right_leq\(f, g\): the solved h is not a morphism with "
                       r"f = g o h, for f = Morphism\(\(2, 0\) -> \(2, 1\)\) and g = Morphism\(\(2, 0\) -> \(2, 1\)\)$"):
        rep.right_leq(g, g)
    with pytest.raises(VerificationFailure, match=r"^left_leq\(f, g\): the solved h is not a morphism with f = h o g"):
        rep.left_leq(g, g)
