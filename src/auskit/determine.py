"""Hom(C, Y) as a module over Gamma = End(C), and right determination.

GammaHom carries the coordinate action of End(C) on Hom(C,Y) by
precomposition.  Submodules are subspaces closed under that action; eta sends
a morphism f ending in Y to the image of Hom(C, f).  Composition factors are
labelled by the isomorphism classes of indecomposable summands of C, with the
radical of End(C) assembled block by block from the radicals that
rep.decompose certified for each summand.
"""

import numpy as np

from . import ar, rep
from .errors import VerificationFailure
from .ffmat import INT, Subspace, closure, kernel


class GammaHom:
    """Hom(C, Y) with its right End(C)-action in fixed coordinates."""

    def __init__(self, c, y):
        if c.A is not y.A:
            raise VerificationFailure("C and Y are modules over different algebras")
        self.c, self.y = c, y
        self.p = c.p
        self.basis = rep.hom_space(c, y)
        self.n = len(self.basis)
        self.end = rep.end_algebra(c)
        self.act = np.array([self.action_matrix(phi) for phi in self.end],
                            dtype=INT).reshape(len(self.end), self.n, self.n)
        self._simple = None

    def action_matrix(self, phi):
        """Matrix of h -> h o phi on Hom(C,Y) coordinates."""
        return rep.hom_matrix_precompose(self.basis, phi, self.basis)

    def zero_sub(self):
        return Subspace.zero(self.n, self.p)

    def full_sub(self):
        return Subspace.full(self.n, self.p)

    def close(self, rows):
        """Smallest submodule containing the given coordinate rows."""
        return closure(rows, self.act, self.n, self.p)

    def is_submodule(self, sub):
        return not sub.residues(np.concatenate([sub.B] + [sub.B @ m.T for m in self.act])).any()

    def eta(self, f):
        """Image of Hom(C, f) as a submodule of Hom(C, Y)."""
        if f.tgt.key() != self.y.key():
            raise VerificationFailure("eta needs a map ending in Y")
        return rep.factor_subspace(f, self.c, self.basis)

    def through_proj(self):
        """The submodule of maps that factor through a projective."""
        return ar.hom_through_proj(self.c, self.y)[0]

    # -- composition factors --------------------------------------------------

    def simple_data(self):
        """(classes, eps_mats, rad_mats, residue_dims); classes index the labels."""
        if self._simple is not None:
            return self._simple
        p = self.p
        trips = rep.decompose(self.c)
        classes = []  # list of lists of summand indices
        for k, (s, _, _) in enumerate(trips):
            for cl in classes:
                if rep.is_isomorphic(trips[cl[0]][0], s):
                    cl.append(k)
                    break
            else:
                classes.append([k])

        eps = []
        for cl in classes:
            e = rep.zero_morphism(self.c, self.c)
            for k in cl:
                _, incl, proj = trips[k]
                e = e.add(incl.compose(proj))
            eps.append(e)
        total = rep.zero_morphism(self.c, self.c)
        for e in eps:
            total = total.add(e)
        if (total.flat() != rep.identity_morphism(self.c).flat()).any():
            raise VerificationFailure("summand idempotents do not sum to the identity")

        # radical components, block by block
        rad_morphs = []
        residue = []
        class_of = {}
        for i, cl in enumerate(classes):
            for k in cl:
                class_of[k] = i
        for cl in classes:
            ed, rad = rep.end_radical(trips[cl[0]][0])
            residue.append(ed.dim - rad.dim)
        for k in range(len(trips)):
            sk, _, projk = trips[k]
            for l in range(len(trips)):
                sl, incll, _ = trips[l]
                hom = rep.hom_space(sk, sl)
                if not hom:
                    continue
                if class_of[k] != class_of[l]:
                    use = hom
                else:
                    use = self._nonunit_basis(sk, sl, hom)
                for psi in use:
                    rad_morphs.append(incll.compose(psi).compose(projk))

        # certify nilpotency of the candidate radical
        if not rep.is_nilpotent([rep.total_matrix(m) for m in rad_morphs], p):
            raise VerificationFailure("candidate radical is not nilpotent")

        eps_mats = [self.action_matrix(e) for e in eps]
        rad_mats = [self.action_matrix(m) for m in rad_morphs]
        reps_ = [trips[cl[0]][0] for cl in classes]
        self._simple = (reps_, eps_mats, rad_mats, residue)
        return self._simple

    def _nonunit_basis(self, x, y, hom):
        """Basis of rad(X, Y) for isomorphic indecomposables X, Y: the psi with
        theta o psi in rad End(X) for every theta in a basis of Hom(Y, X)."""
        ed, rad = rep.end_radical(x)
        rows = []
        for theta in rep.hom_space(y, x):
            comps = ed.coords_of([rep.total_matrix(theta.compose(psi)) for psi in hom])
            rows.extend(rad.residues(comps).T)
        ker = kernel(np.array(rows, dtype=INT).reshape(-1, len(hom)), self.p)
        return [hom.element(row) for row in ker]

    def labels(self):
        """Dimension vectors of the class representatives (for display)."""
        reps_, _, _, _ = self.simple_data()
        return [r.dim_vector() for r in reps_]

    def jh_between(self, lo, hi):
        """Multiset {class index: multiplicity} of factors of hi/lo."""
        reps_, eps_mats, rad_mats, residue = self.simple_data()
        if not lo.leq(hi):
            raise VerificationFailure("not a subquotient pair")
        out = {}
        v = hi
        p = self.p
        while v.dim > lo.dim:
            t = Subspace(np.concatenate([lo.B] + [(v.B @ m.T) % p for m in rad_mats]),
                         self.n, p)
            if not t.leq(v):
                raise VerificationFailure("radical image escapes the submodule")
            gap = v.dim - t.dim
            if gap <= 0:
                raise VerificationFailure("radical peeling made no progress")
            acc = 0
            for i, m in enumerate(eps_mats):
                part = Subspace(np.concatenate([t.B, (v.B @ m.T) % p]), self.n, p)
                di = part.dim - t.dim
                if di % residue[i]:
                    raise VerificationFailure("isotypic block is not a multiple of the residue dimension")
                if di:
                    out[i] = out.get(i, 0) + di // residue[i]
                acc += di
            if acc != gap:
                raise VerificationFailure("isotypic parts do not fill the top")
            v = t
        return out

    def length_between(self, lo, hi):
        return sum(self.jh_between(lo, hi).values())

    def cover_label(self, lo, hi):
        """The class index i with hi/lo = S_i, for a cover pair."""
        jh = self.jh_between(lo, hi)
        if sum(jh.values()) != 1:
            raise VerificationFailure("not a cover: factor is not simple")
        return next(iter(jh))


# -- right determination -------------------------------------------------------


def almost_factors_strictly(f, pr):
    """True if some map P -> Y factors through f on rad P but not itself."""
    y = f.tgt
    hom_py = rep.hom_space(pr, y)
    if not hom_py:
        return False
    fp = rep.factor_subspace(f, pr, hom_py)
    r, iota = rep.rad(pr)
    homry = rep.hom_space(r, y)
    if not homry:
        # everything restricts to zero on rad P; W is all of Hom(P,Y)
        return fp.dim < len(hom_py)
    fr = rep.factor_subspace(f, r, homry)
    rmat = rep.hom_matrix_precompose(hom_py, iota, homry)
    # W: the maps whose restriction to rad P lies in fr, which the annihilator of fr kills
    w = kernel((fr.annihilator() @ rmat) % f.p, f.p)
    return not Subspace(w, len(hom_py), f.p).leq(fp)


def minimal_determiner(f):
    """Indecomposables generating the minimal right determiner of f."""
    fmin, _ = rep.right_minimalize(f)
    k, _ = rep.kernel(fmin)
    A = f.src.A
    parts = []
    if k.total_dim:
        for s, _mult in rep.iso_classes([t[0] for t in rep.decompose(k)]):
            t = ar.tau_minus(s)
            if t.total_dim:
                parts.append(t)
    for v in range(A.nv):
        if almost_factors_strictly(fmin, A.proj(v)):
            parts.append(A.proj(v))
    return parts


def is_right_determined(f, c):
    """Whether f is right C-determined (minimal determiner inside add C)."""
    cparts = [s for s, _, _ in rep.decompose(c)]
    for s in minimal_determiner(f):
        if not any(rep.is_isomorphic(s, t) for t in cparts):
            return False
    return True


def default_probes(f, c, count=20, seed=0):
    """Deterministic probe maps into the target of f: basis maps of Hom(W, Y), W among
    f.src, C, the projectives and Y, or sums of two with sources of equal content.
    Draws work on flat rows and source ids; only a kept draw becomes a Morphism."""
    import random

    y = f.tgt
    A = y.A
    sources = [f.src, c] + [A.proj(v) for v in range(A.nv)] + [y]
    group = {}
    srcs, ids, flats = [], [], []
    for w in sources:
        hom = rep.hom_space(w, y)
        gid = group.setdefault(w.key(), len(group))
        srcs.extend([w] * len(hom))
        ids.extend([gid] * len(hom))
        flats.extend(hom.matrix)
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(20 * count):
        if not flats or len(out) >= count:
            break
        i = rng.randrange(len(flats))
        flat = flats[i]
        if rng.random() < 0.5 and len(flats) > 1:
            j = rng.randrange(len(flats))
            if ids[i] == ids[j]:
                flat = (flat + flats[j]) % y.p
        key = (ids[i], flat.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(rep.morphism_from_flat(srcs[i], y, flat))
    return out


def definitional_check(f, c, probes=None, count=20, seed=0):
    """Probe the defining property of right C-determination.

    Returns the list of probe maps g with eta(g) <= eta(f) that do not factor
    through f (empty when f is right C-determined, for any probe set).
    """
    gh = GammaHom(c, f.tgt)
    ef = gh.eta(f)
    if probes is None:
        probes = default_probes(f, c, count, seed)
    bad = []
    for g in probes:
        lhs = gh.eta(g).leq(ef)
        rhs, _ = rep.right_leq(g, f)
        if rhs and not lhs:
            raise VerificationFailure("factoring map with larger eta image")
        if lhs and not rhs:
            bad.append(g)
    return bad
