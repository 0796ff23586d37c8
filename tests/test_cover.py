"""The projective cover and the transpose read off the memoized generators,
against copies of the cover built from the top quotient (one solve per top
vector, then a Yoneda map composed and added per generator) and of the
transpose built from the minimal presentation through two such covers."""

import numpy as np
import pytest

from auskit import ar, catalog, ffmat, rep
from auskit import kronecker as kr
from auskit.errors import VerificationFailure
from auskit.ffmat import zeros
from helpers import yoneda
from test_hom import _generator_pools
from test_lattice_oracle import CASES, _modules


def _reference_cover(m):
    """(P0, cover, verts, lifts): the lift of each unit vector of top M."""
    A = m.A
    t, onto = rep.top(m)
    verts, vecs = [], []
    for v in range(A.nv):
        for k in range(t.dims[v]):
            e = zeros(1, t.dims[v])[0]
            e[k] = 1
            x = ffmat.solve(onto.blocks[v], e, A.p)
            assert x is not None
            verts.append(v)
            vecs.append(x)
    p0, _, projs = rep.direct_sum(A, [A.proj(v) for v in verts])
    cover = rep.zero_morphism(p0, m)
    for i, v in enumerate(verts):
        cover = cover.add(yoneda(A, v, m, vecs[i]).compose(projs[i]))
    return p0, cover, verts, vecs


def _reference_hom_proj_rep(A, verts):
    """v |-> Hom(⊕ P(verts[i]), P(v)) over A^op, block by block."""
    dims = [sum(A.proj(v).dims[u] for u in verts) for v in range(A.nv)]
    mats = {}
    for ai, (_, u, w) in enumerate(A.quiver.arrows):
        m = zeros(dims[u], dims[w])
        ro = co = 0
        for ui in verts:
            blk = A.right_mult(ai).blocks[ui]
            m[ro : ro + blk.shape[0], co : co + blk.shape[1]] = blk
            ro += blk.shape[0]
            co += blk.shape[1]
        mats[ai] = m
    return rep.Rep(A.opposite(), dims, mats)


def _reference_transpose(m):
    """Tr M as the cokernel of Hom(d, A) for P1 -d-> P0 -> M built from two
    reference covers; the column of d at the generator of P1's j-th summand
    is read off d itself."""
    A, p = m.A, m.p
    if m.total_dim == 0:
        return rep.zero_rep(A.opposite())
    cover, v0 = _reference_cover(m)[1:3]
    om, incl = rep.kernel(cover)
    cover1, v1 = _reference_cover(om)[1:3]
    d = incl.compose(cover1)
    projs0 = rep.direct_sum(A, [A.proj(u) for u in v0])[2]
    incls1 = rep.direct_sum(A, [A.proj(w) for w in v1])[1]
    t0, t1 = _reference_hom_proj_rep(A, v0), _reference_hom_proj_rep(A, v1)
    # cols[j][i]: the column of d at e_w of P1's j-th summand P(w), in P(v0[i])
    dcols = [d.compose(incls1[j]).blocks[w][:, A.proj_paths(w)[w].index((w, ()))] for j, w in enumerate(v1)]
    cols = [[pr.blocks[w] @ c % p for pr in projs0] for c, w in zip(dcols, v1)]
    blocks = []
    for v in range(A.nv):
        pv = A.proj(v)
        rows = [zeros(0, t0.dims[v])] + [
            np.concatenate([zeros(pv.dims[w], 0)] + [np.tensordot(cols[j][i], pv.path_stack(u, w), 1) % p
                                                     for i, u in enumerate(v0)], axis=1)
            for j, w in enumerate(v1)]
        blocks.append(np.concatenate(rows))
    return rep.cokernel(rep.Morphism(t0, t1, blocks).check())[0]


def _catalog_modules():
    out = []
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        out += [(name + " C", c), (name + " Y", y),
                (name + " tau Y", ar.tau(y)), (name + " tau- C", ar.tau_minus(c))]
    return out


def _assert_same_cover(name, m):
    p0, cover, verts = ar.proj_cover(m)
    want_p0, want, want_verts, want_lifts = _reference_cover(m)
    assert p0.key() == want_p0.key(), name
    assert verts == want_verts, name
    assert cover.src is p0 and cover.tgt is m, name
    assert cover.flat().dtype == want.flat().dtype, name
    assert cover.flat().tobytes() == want.flat().tobytes(), name
    lifts = rep.generators(m)[1]
    assert [g.tobytes() for g in lifts] == [g.tobytes() for g in want_lifts], name
    assert ar.is_projective(m) == want.is_iso(), name
    for x in (m, ar.dual(m)):  # tau = D Tr and tau^- = Tr D
        assert ar.transpose(x).key() == _reference_transpose(x).key(), name


def test_transpose_of_a_zero_module_matches_reference():
    for name in catalog.algebra_names():
        A = catalog.load_catalog_algebra(name)
        for alg in (A, A.opposite()):
            z = rep.zero_rep(alg)
            t = ar.transpose(z)
            assert t.A is alg.opposite() and t.key() == _reference_transpose(z).key(), alg.name


def test_cover_matches_reference_on_generator_pools(kron2, loopb, sub3):
    for name, mods in _generator_pools(kron2, loopb, sub3).items():
        for m in mods:
            _assert_same_cover(name, m)
            om = rep.kernel(ar.proj_cover(m)[1])[0]
            _assert_same_cover(name + " syzygy", om)


@pytest.mark.parametrize("name,p", CASES)
def test_cover_matches_reference_in_random_bases(name, p):
    # in a random basis rad X_v is seldom spanned by unit vectors, so the
    # lifts of the top are seldom unit vectors
    _, mods = _modules(name, p, 8, 6, seed=20 + p)
    for m in mods:
        _assert_same_cover(name, m)


def test_cover_matches_reference_on_catalog_modules():
    mods = _catalog_modules()
    assert len(mods) == 4 * len(catalog.instance_names())
    projective = 0
    for name, m in mods:
        _assert_same_cover(name, m)
        projective += ar.is_projective(m)
    assert 0 < projective < len(mods)


def test_generator_lifts_are_not_unit_vectors():
    # rad X_a = span{(1, 1)}: the top vector lifts to (p - 1, 0), not to e_1
    A = kr.kronecker_algebra(2, 3)
    x = rep.Rep(A, [2, 1], {0: [[1], [1]], 1: [[1], [1]]})
    verts, lifts, _, _ = rep.generators(x)
    assert verts == [0, 1]
    assert lifts[0].tolist() == [2, 0]
    _assert_same_cover("rad (1, 1)", x)


def test_second_cover_on_equal_content_misses_nothing():
    A = kr.kronecker_algebra(2, 3)
    q = kr.kQ(A, 2)
    ar.proj_cover(q)
    before = A.memo_stats()["gens"]
    twin = rep.Rep(A, q.dims, q.mats)
    p0, cover, _ = ar.proj_cover(twin)
    assert cover.tgt is twin
    hits, misses = A.memo_stats()["gens"]
    assert misses == before[1] and hits == before[0] + 1


def test_top_vector_that_does_not_lift_raises(monkeypatch):
    A = kr.kronecker_algebra(2, 3)
    q = kr.kQ(A, 1)
    monkeypatch.setattr(ffmat, "solve_mat", lambda a, b, p: None)
    with pytest.raises(VerificationFailure, match="does not lift"):
        ar.proj_cover(q)
    assert not [k for k in A._memo if k[0] == "gens"]
