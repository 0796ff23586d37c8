"""Hom dimensions and the order solves against brute force on random tiny
representations drawn by hypothesis: kron2 and loop-b over F_2 and F_3, at
most 2 at each vertex.  derandomize=True draws the same cases on every run.
On the same modules, the translates and the transpose invert each other away
from the projective summands, and the almost split map ending at each
indecomposable non-projective summand agrees with the search of
almost_split_reference.

For modules X, Z, Y every vertexwise linear map is enumerated and kept when
it intertwines; right_leq(f, g) for f: X -> Y, g: Z -> Y and left_leq(f, u)
for u: X -> Z are then decided by trying every h.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from auskit import algebra, ar, rep
from helpers import all_maps, almost_split_reference

KRON2 = "field %d\nvertices a b\narrow x b a\narrow y b a\n"
LOOP_B = "field %d\nvertices a b\narrow alpha a a\narrow beta b a\nrelation alpha*alpha\n"
ALGEBRAS = [algebra.parse_algebra_file(text % p, name=name)
            for name, text in (("kron2", KRON2), ("loop-b", LOOP_B)) for p in (2, 3)]


@st.composite
def _modules(draw, A, count=3):
    """count representations of A with dimension at most 2 at each vertex; a
    loop alpha with alpha^2 = 0 on F_p^2 is c * w (w_1, -w_0)."""
    p = A.p

    def entries(n):
        return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))

    out = []
    for _ in range(count):
        dims = [draw(st.integers(0, 2)) for _ in A.quiver.vertices]
        mats = {}
        for ai, (_, u, v) in enumerate(A.quiver.arrows):
            if u != v:
                mats[ai] = np.array(entries(dims[u] * dims[v]), dtype=np.int64).reshape(dims[v], dims[u])
            elif dims[u] == 2:
                w0, w1, c = entries(3)
                mats[ai] = c * np.outer([w0, w1], [w1, -w0]) % p
            else:
                mats[ai] = np.zeros((dims[u], dims[u]), dtype=np.int64)
        out.append(rep.Rep(A, dims, mats))
    return out


def _morphism_flats(x, y):
    """Every morphism X -> Y, flattened; and the dimension of Hom(X, Y)
    checked against hom_space."""
    flats, ok = all_maps(x, y)
    assert x.p ** len(rep.hom_space(x, y)) == int(ok.sum())
    return flats[ok]


def _composites(outer, inner, a, b, c):
    """The flattened o o i, for rows of outer (maps b -> c) and inner (maps
    a -> b), one of the two a single map: plain vertexwise products."""
    pos, parts = [0, 0], []
    for v in range(len(a.dims)):
        sizes = (c.dims[v] * b.dims[v], b.dims[v] * a.dims[v])
        o = outer[:, pos[0] : pos[0] + sizes[0]].reshape(len(outer), c.dims[v], b.dims[v])
        i = inner[:, pos[1] : pos[1] + sizes[1]].reshape(len(inner), b.dims[v], a.dims[v])
        m = o @ i
        parts.append(m.reshape(len(m), -1))
        pos = [pos[0] + sizes[0], pos[1] + sizes[1]]
    return np.concatenate([np.zeros((max(len(outer), len(inner)), 0), dtype=np.int64)] + parts, axis=1) % a.p


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(range(len(ALGEBRAS))).flatmap(lambda k: _modules(ALGEBRAS[k])), st.data())
def test_hom_and_order_solves_match_brute_force(mods, data):
    x, z, y = mods
    m_xy, m_zy, m_xz = _morphism_flats(x, y), _morphism_flats(z, y), _morphism_flats(x, z)

    def pick(flats):
        return flats[data.draw(st.integers(0, len(flats) - 1))]

    g, u = pick(m_zy), pick(m_xz)
    # f is a random map X -> Y (half the time), or g o h, or h o u, for a random h
    f = data.draw(st.sampled_from([pick(m_xy), pick(m_xy), _composites(g[None], pick(m_xz)[None], x, z, y)[0],
                                   _composites(pick(m_zy)[None], u[None], x, z, y)[0]]))
    fm, gm, um = (rep.morphism_from_flat(a, b, r) for a, b, r in ((x, y, f), (z, y, g), (x, z, u)))

    ok, h = rep.right_leq(fm, gm)
    assert ok == (_composites(g[None], m_xz, x, z, y) == f).all(axis=1).any()
    assert (h is None) == (not ok)
    if ok:
        assert (gm.compose(h.check()).flat() == f).all()

    ok, h = rep.left_leq(fm, um)
    assert ok == (_composites(m_zy, u[None], x, z, y) == f).all(axis=1).any()
    assert (h is None) == (not ok)
    if ok:
        assert (h.check().compose(um).flat() == f).all()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(range(len(ALGEBRAS))).flatmap(lambda k: _modules(ALGEBRAS[k], count=1)))
def test_tau_and_transpose_invert_away_from_projectives(mods):
    m, = mods
    if any(ar.is_projective(s) for s, _, _ in rep.decompose(m)):
        return
    assert rep.is_isomorphic(ar.tau_minus(ar.tau(m)), m)
    assert rep.is_isomorphic(ar.transpose(ar.transpose(m)), m)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(range(len(ALGEBRAS))).flatmap(lambda k: _modules(ALGEBRAS[k], count=1)))
def test_almost_split_maps_match_the_search(mods):
    m, = mods
    for s, _, _ in rep.decompose(m):
        if ar.is_projective(s):
            continue
        g, _ = ar.min_right_almost_split(s)
        assert rep.right_equivalent(g, almost_split_reference(s)[0])
        assert rep.is_isomorphic(rep.kernel(g)[0], ar.tau(s))
