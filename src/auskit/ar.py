"""Projective presentations, transpose duality, extension groups, almost split maps.

tau and tau_minus come from minimal projective presentations via the
transpose (an op-algebra representation), and Ext^1(Y, K) is the cokernel of
Hom(P0, K) -> Hom(Omega Y, K); ExtData keeps the cocycle coordinates so that
extensions can be realized as honest short exact sequences.

Generators are chosen only by rep.generators (memoized as "gens"): the cover
P0 -> M is built from its blocks, and P1 -> P0 sends the generators of P1 to
those of Omega M.  The transpose reads Hom(P0, P(v)) summand by summand, off
the generator systems of the (P(u), P(v)), so nothing of P0 is memoized and
the Hom cap bounds only dim P(v)_u.  End(K) acts on Ext^1(Y, K) by pushout
(pushout_action); for K = tau Y the nonzero classes in its socle are the
almost split sequences ending at Y (Auslander-Reiten-Smalo, ch. V).
"""

import numpy as np

from . import ffmat, rep
from .errors import VerificationFailure
from .ffmat import INT, identity, zeros


def proj_cover(m):
    """(P0, cover: P0 -> M, verts) with P0 = ⊕ P(verts[i]) a projective cover,
    read off the memoized generators of M (rep.generators)."""
    A = m.A
    verts, _, blocks, _ = rep.generators(m)
    p0 = rep.direct_sum(A, [A.proj(v) for v in verts])[0]
    cover = rep.Morphism(p0, m, blocks)
    if not cover.is_epi():
        raise VerificationFailure("projective cover is not onto")
    return p0, cover, verts


def _hom_proj_rep(A, verts):
    """The A^op representation v |-> Hom(⊕ P(verts[i]), P(v)), the direct sum
    of the v |-> Hom(P(u), P(v)) for u in verts.

    Coordinates of the v-component: the bases of P(v) at each verts[i],
    concatenated; a morphism P(u) -> P(v) is identified with the image of e_u.
    """
    op = A.opposite()
    rms = [A.right_mult(ai) for ai in range(len(A.quiver.arrows))]
    homs = [rep.Rep(op, [A.proj(v).dims[u] for v in range(A.nv)], [rm.blocks[u] for rm in rms])
            for u in verts]
    return rep.direct_sum(op, homs)[0]


def transpose(m):
    """Tr M over the opposite algebra: the cokernel of Hom(d, A) for a minimal
    presentation P1 -d-> P0 -> M.  The generators of P0 are the e_u in v0
    order, so the coordinates of _hom_proj_rep(A, v0) at v are the unknowns
    of the systems of the (P(u), P(v)), whose reads at w, placed
    block-diagonally, act on P0_w; block j of Hom(d, P(v)) is that stack at
    w = v1[j] applied to the j-th generator of Omega M."""
    A, p = m.A, m.p
    p0, cover, v0 = proj_cover(m)
    om, incl = rep.kernel(cover)
    v1, lifts, _, _ = rep.generators(om)
    gens = [(incl.blocks[w] @ g) % p for w, g in zip(v1, lifts)]
    blocks = []
    for v in range(A.nv):
        pv = A.proj(v)
        reads = {u: rep._vertex_blocks(A.proj(u), pv, rep._generator_system(A.proj(u), pv)[1]) for u in set(v0)}
        cols = np.cumsum([0] + [pv.dims[u] for u in v0])
        stacks = []
        for w in range(A.nv):
            cuts = np.cumsum([0] + [A.proj(u).dims[w] for u in v0])
            stacks.append(np.zeros((cols[-1], pv.dims[w], cuts[-1]), dtype=INT))
            for i, u in enumerate(v0):
                stacks[w][cols[i] : cols[i + 1], :, cuts[i] : cuts[i + 1]] = reads[u][w]
        blocks.append(np.concatenate([zeros(0, cols[-1])] + [(stacks[w] @ g).T for w, g in zip(v1, gens)]))
    tmap = rep.Morphism(_hom_proj_rep(A, v0), _hom_proj_rep(A, v1), blocks).check()
    return rep.cokernel(tmap)[0]


def dual(m):
    """D M: the dual representation over the opposite algebra."""
    op = m.A.opposite()
    mats = {ai: m.mats[ai].T.copy() for ai in range(len(m.A.quiver.arrows))}
    return rep.Rep(op, m.dims, mats)


def tau(m):
    """Auslander-Reiten translate D Tr M (kills projective summands), memoized."""
    return m.A.memoized(("tau", m.key()), lambda: dual(transpose(m)))


def tau_minus(m):
    """Inverse translate Tr D M (kills injective summands), memoized."""
    return m.A.memoized(("tau_minus", m.key()), lambda: transpose(dual(m)))


class ExtData:
    """Ext^1(Y, K) as Hom(Omega Y, K) modulo maps extending to P0."""

    def __init__(self, y, k):
        self.y, self.k = y, k
        self.p = y.p
        self.p0, self.cover, _ = proj_cover(y)
        self.omega, self.incl = rep.kernel(self.cover)
        self.cocycles = rep.hom_space(self.omega, k)
        homp0k = rep.hom_space(self.p0, k)
        rows = rep.hom_matrix_precompose(homp0k, self.incl, self.cocycles).T
        self.coboundaries = ffmat.Subspace(rows, len(self.cocycles), self.p)
        self.dim = len(self.cocycles) - self.coboundaries.dim

    def cocycle(self, coords):
        return self.cocycles.element(coords)

    def class_reps(self):
        """Coordinate vectors representing a basis of Ext^1(Y, K)."""
        return list(identity(len(self.cocycles))[self.coboundaries.free()])

    def realize(self, xi):
        """(X, u, g) with 0 -> K -u-> X -g-> Y -> 0 the extension of class xi,
        a Morphism Omega -> K with any target K (a direct sum of copies of
        self.k, for instance)."""
        k = xi.tgt
        d, incls, projs = rep.direct_sum(self.y.A, [k, self.p0])
        m = incls[0].compose(xi).add(incls[1].compose(self.incl).scale(self.p - 1))
        x, proj = rep.cokernel(m)
        u = proj.compose(incls[0])
        g = _descend(self.cover.compose(projs[1]), proj)
        if x.total_dim != k.total_dim + self.y.total_dim:
            raise VerificationFailure("extension has wrong dimension")
        if not u.is_mono() or not g.is_epi() or not g.compose(u).is_zero():
            raise VerificationFailure("realized sequence is not exact")
        return x, u, g


def pushout_action(eds):
    """End(K) on Ext^1(Y, K) = ⊕ Ext^1(Y, K_i), K = ⊕ K_i (the ExtData eds of
    one Y), in class coordinates (the free columns of the coboundaries),
    applied to column vectors: psi: K_i -> K_j of the Hom basis sends xi to
    psi o xi, the class of the pushout along psi, a (j, i) block;
    cocycles.coords certifies the cocycle."""
    off = np.cumsum([0] + [ed.dim for ed in eds])
    mats = [np.zeros((0, off[-1], off[-1]), dtype=INT)]
    for i, edi in enumerate(eds):
        for j, edj in enumerate(eds):
            hom = rep.hom_space(edi.k, edj.k)
            rows = edj.cocycles.coords(rep._compose_rows(edi.cocycles, hom, True))
            cls = edj.coboundaries.residues(rows)[:, edj.coboundaries.free()]
            block = np.zeros((len(hom), off[-1], off[-1]), dtype=INT)
            block[:, off[j] : off[j + 1], off[i] : off[i + 1]] = cls.reshape(
                len(hom), len(edi.cocycles), edj.dim)[:, edi.coboundaries.free()].transpose(0, 2, 1)
            mats.append(block)
    return np.concatenate(mats)


def _descend(h, proj):
    """Factor h through the projection of rep.quotient_by_subspaces: the unique
    hbar with hbar o proj = h is h read at the columns where proj is the
    identity, the last nonzero entry of each of its rows."""
    hbar = rep.Morphism(proj.tgt, h.tgt, [b[:, rep._last_nonzero(k)] for b, k in zip(h.blocks, proj.blocks)])
    if (hbar.compose(proj).flat() != h.flat()).any():
        raise VerificationFailure("map does not descend along the projection")
    return hbar.check()


def ext1(y, k):
    """dim Ext^1(Y, K)."""
    return ExtData(y, k).dim


def hom_through_proj(c, y):
    """(subspace of Hom(C,Y) of maps factoring through a projective, hom basis).

    A map C -> Y factors through a projective iff it factors through the
    projective cover of Y.
    """
    homcy = rep.hom_space(c, y)
    p0, cover, _ = proj_cover(y)
    return rep.factor_subspace(cover, c, homcy), homcy


def ar_formula_check(y, k):
    """(dim Ext^1(Y,K), dim Hom(tau^- K, Y) - dim through-projectives)."""
    lhs = ext1(y, k)
    tk = tau_minus(k)
    sub, hom = hom_through_proj(tk, y)
    return lhs, len(hom) - sub.dim


def is_projective(m):
    # the cover is certified onto, so it is an iso iff the dimensions agree
    return proj_cover(m)[0].dim_vector() == m.dim_vector()


def is_injective(m):
    return is_projective(dual(m))


def min_right_almost_split(y):
    """g: E -> Y minimal right almost split, Y indecomposable.

    For projective Y this is rad Y -> Y; otherwise the extension of the first
    basis class of the socle of Ext^1(Y, tau Y) over End(tau Y), the kernel
    of the pushout action of rad End(tau Y).  It is checked not to split,
    and every radical endomorphism of Y to factor through it.
    """
    if len(rep.decompose(y)) != 1:
        raise VerificationFailure("minimal right almost split maps need an indecomposable target")
    if is_projective(y):
        r, incl = rep.rad(y)
        return incl, None
    ty = tau(y)
    ed = ExtData(y, ty)
    if ed.dim == 0:
        raise VerificationFailure("no extensions of a non-projective by its translate")
    jac = rep.end_radical(ty)[1]
    killed = np.tensordot(jac.B, pushout_action([ed]), 1).reshape(-1, ed.dim) % y.p
    socle = ffmat.kernel(killed, y.p)
    if not len(socle):
        raise VerificationFailure("Ext^1(Y, tau Y) has no socle over End(tau Y)")
    x, u, g = ed.realize(ed.cocycle((socle[0] @ np.array(ed.class_reps(), dtype=INT)) % y.p))
    if rep.is_split_epi(g):
        raise VerificationFailure("candidate almost split sequence splits")
    end, rad = rep.end_radical(y)
    if not all(rep.right_leq(end.basis.element(row), g)[0] for row in rad.B):
        raise VerificationFailure("a radical endomorphism does not factor through the almost split map")
    return g, (x, u)
