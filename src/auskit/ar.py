"""Projective presentations, transpose duality and extension groups.

tau and tau_minus are computed from minimal projective presentations via the
transpose (an op-algebra representation), and Ext^1(Y, K) as the cokernel of
Hom(P0, K) -> Hom(Omega Y, K).  ExtData keeps the cocycle coordinates so
individual extensions can be realized as honest short exact sequences.

Generators are chosen only by rep.generators (memoized as "gens"): the cover
P0 -> M is built from its blocks, and P1 -> P0 sends the generators of P1 to
those of Omega M = Ker(P0 -> M).
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
    """Tr M over the opposite algebra, from a minimal presentation."""
    A = m.A
    p0, cover, v0 = proj_cover(m)
    om, incl = rep.kernel(cover)
    v1, lifts, _, _ = rep.generators(om)
    t0 = _hom_proj_rep(A, v0)
    t1 = _hom_proj_rep(A, v1)

    # delta[j][i]: the image of the j-th generator of Omega M (at v1[j]) in
    # P(v0[i]), i.e. the column of d = incl o cover_1 at that generator
    p = A.p
    delta = []
    for w, g in zip(v1, lifts):
        cuts = np.cumsum([A.proj(u).dims[w] for u in v0])[:-1]
        delta.append(np.split((incl.blocks[w] @ g) % p, cuts))

    blocks = []
    for v in range(A.nv):
        pv = A.proj(v)
        mt = zeros(t1.dims[v], t0.dims[v])
        ro = 0
        for j, w in enumerate(v1):
            hj = pv.dims[w]
            co = 0
            for i, u in enumerate(v0):
                wi = pv.dims[u]
                if hj and wi:
                    mt[ro : ro + hj, co : co + wi] = np.tensordot(delta[j][i], pv.path_stack(u, w), 1) % p
                co += wi
            ro += hj
        blocks.append(mt)
    tmap = rep.Morphism(t0, t1, blocks).check()
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


def _omega_endo(ed, phi):
    """Restriction to Omega Y of a lift of phi in End(Y) along the cover."""
    ok, lift = rep.right_leq(phi.compose(ed.cover), ed.cover)
    if not ok:
        raise VerificationFailure("endomorphism does not lift to the cover")
    ok, om = rep.right_leq(lift.compose(ed.incl), ed.incl)
    if not ok:
        raise VerificationFailure("lift does not restrict to the syzygy")
    return om


def min_right_almost_split(y):
    """g: E -> Y minimal right almost split, Y indecomposable.

    For projective Y this is rad Y -> Y; otherwise the almost split sequence
    ending at Y is found as a nonzero Ext class killed by rad End(Y), and the
    factorization property is verified against every radical endomorphism.
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
    end, rad = rep.end_radical(y)
    radb = [end.basis.element(row) for row in rad.B]
    # (- o om) on cocycle coordinates, for the restrictions om of radical endomorphisms
    acts = [rep.hom_matrix_precompose(ed.cocycles, _omega_endo(ed, phi), ed.cocycles) for phi in radb]
    reps_ = np.array(ed.class_reps(), dtype=INT).reshape(-1, len(ed.cocycles))
    for v in ffmat.projective_points(len(reps_), y.p):  # one representative per scalar line
        coords = (v @ reps_) % y.p
        if ed.coboundaries.residues(np.array([a @ coords for a in acts]).reshape(-1, len(coords))).any():
            continue
        xi = ed.cocycle(coords)
        x, u, g = ed.realize(xi)
        if rep.is_split_epi(g):
            raise VerificationFailure("candidate almost split sequence splits")
        if all(rep.right_leq(phi, g)[0] for phi in radb):
            return g, (x, u)
    raise VerificationFailure("no almost split sequence found")
