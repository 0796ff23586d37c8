"""The Hom layer against brute force on tiny representations over F_2 and F_3.

Every vertexwise linear map X -> Y is enumerated and tested for the
intertwining property with plain matrix products, independently of the
intertwiner system that hom_space, right_leq and left_leq solve.
"""

import itertools
import random

import numpy as np
import pytest

from auskit import algebra, ar, ffmat, rep
from auskit import kronecker as kr
from auskit.errors import VerificationFailure

UNI3_F3 = "field 3\nvertices a\narrow x a a\nrelation x*x*x\n"


def _random_rep(alg, rng, maxdim=2):
    dims = [rng.randrange(maxdim + 1) for _ in alg.quiver.vertices]
    mats = {ai: ffmat.rand_mat(rng, dims[v], dims[u], alg.p)
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


def _all_maps(x, y):
    """(flats, ok): every vertexwise linear map X -> Y, flattened as in
    Morphism.flat, and whether it intertwines the arrow actions."""
    p, nv = x.p, len(x.dims)
    sizes = [y.dims[v] * x.dims[v] for v in range(nv)]
    n = sum(sizes)
    flats = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).reshape(p ** n, n)
    parts = np.split(flats, np.cumsum(sizes)[:-1], axis=1)
    blocks = [b.reshape(len(flats), y.dims[v], x.dims[v]) for v, b in enumerate(parts)]
    ok = np.ones(len(flats), dtype=bool)
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        lhs = np.einsum("ij,njk->nik", y.mats[ai], blocks[u]) % p
        rhs = np.einsum("nij,jk->nik", blocks[v], x.mats[ai]) % p
        ok &= (lhs == rhs).reshape(len(flats), -1).all(axis=1)
    return flats, ok


def _morphisms(x, y):
    flats, ok = _all_maps(x, y)
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
        flats, ok = _all_maps(x, y)
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
        flats, ok = _all_maps(x, y)
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
    e0 = ed.realize(r0)[0]
    assert rep.is_isomorphic(x, rep.direct_sum(kron2, [e0, k])[0])
    assert not rep.is_split_epi(g)
    x, u, g = realize(zero, zero)
    assert rep.is_split_epi(g) and rep.is_split_mono(u)
