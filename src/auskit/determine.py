"""Hom(C, Y) as a module over Gamma = End(C), and right determination.

GammaHom carries the coordinate action of End(C) on Hom(C,Y) by
precomposition.  Submodules are subspaces closed under that action; eta sends
a morphism f ending in Y to the image of Hom(C, f).  Composition factors are
labelled by the isomorphism classes of indecomposable summands of C and
counted through one primitive idempotent per class (Auslander-Reiten-Smalo,
Representation Theory of Artin Algebras, 1995): the multiplicity of S_X in a
Gamma-module M is dim M e_X / dim k(X), k(X) = End(X)/rad End(X).

is_right_determined reads right C-determination off Auslander's criterion,
C(f) in add C; definitional_check tests the definition itself, one kernel
per probe source, and by default reaches the same decision.
"""

import numpy as np

from . import ar, rep
from .errors import VerificationFailure
from .ffmat import INT, Subspace, closure, kernel, rank, solve_columns


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
        # act[k]: the matrix of h -> h o phi_k on Hom(C, Y) coordinates, phi_k
        # the End(C) basis; a map with End(C) coordinates c acts by c @ act
        self.act = rep.hom_matrix_precompose(self.basis, self.end, self.basis).reshape(
            self.n, len(self.end), self.n).transpose(1, 0, 2)
        self._simple = None
        self._ranks = {}

    def zero_sub(self):
        return Subspace.zero(self.n, self.p)

    def full_sub(self):
        return Subspace.full(self.n, self.p)

    def close(self, rows):
        """Smallest submodule containing the given coordinate rows."""
        return closure(rows, self.act, self.n, self.p)

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
        """(classes, eps_mats, rad_mats, residue_dims) over the classes of
        isomorphic summands of C, classes[i] listing the summands of class i.

        eps_mats[i] acts by e_i = incl o proj of the first of them, X_i, with
        e_i End(C) e_i = End(X_i); residue_dims[i] = dim k(X_i) for the radical
        decompose certified; rad_mats act by incl o psi o proj, psi in it.
        The Gamma-lattice search seeds from the M e_i, and the factorization
        build reads its summand classes of C from classes, so both rest on
        the certificate that the summand idempotents sum to 1 (_c_side, run
        once per content of C); only the product with the action reads Y.
        """
        if self._simple is not None:
            return self._simple
        classes, residue, coords = self.c.A.memoized(("simple", self.c.key()), lambda: _c_side(self.c, self.end))
        mats = list(np.tensordot(coords, self.act, 1) % self.p)
        self._simple = [list(cl) for cl in classes], mats[:len(classes)], mats[len(classes):], list(residue)
        return self._simple

    def labels(self):
        """Dimension vectors of the class representatives (for display)."""
        return [cl[0].dim_vector() for cl in self.simple_data()[0]]

    def jh_between(self, lo, hi):
        """Multiset {class index: multiplicity} of factors of hi/lo.

        M -> M e_i is exact and S_i e_i = k(X_i), so [hi/lo : S_i] is
        d_i / dim k(X_i) with d_i = dim hi e_i - dim lo e_i; S_i has dimension
        n_i dim k(X_i), n_i the size of class i, so the n_i d_i add up to
        dim hi - dim lo.
        """
        classes, eps_mats, _, residue = self.simple_data()
        if not lo.leq(hi):
            raise VerificationFailure("not a subquotient pair")

        def ranks(sub):
            """The dims of sub e_i over the classes i, once per submodule."""
            key = sub.key()
            if key not in self._ranks:
                self._ranks[key] = [rank(sub.B @ m.T, self.p) for m in eps_mats]
            return self._ranks[key]

        out, filled = {}, 0
        for i, (top, bottom) in enumerate(zip(ranks(hi), ranks(lo))):
            d = top - bottom
            if d % residue[i]:
                raise VerificationFailure("isotypic block is not a multiple of the residue dimension")
            if d:
                out[i] = d // residue[i]
            filled += len(classes[i]) * d
        if filled != hi.dim - lo.dim:
            raise VerificationFailure("class multiplicities do not fill the subquotient")
        return out

    def length_between(self, lo, hi):
        return sum(self.jh_between(lo, hi).values())

    def cover_label(self, lo, hi):
        """The class index i with hi/lo = S_i, for a cover pair."""
        jh = self.jh_between(lo, hi)
        if sum(jh.values()) != 1:
            raise VerificationFailure("not a cover: factor is not simple")
        return next(iter(jh))


def _c_side(c, end):
    """(classes, residue_dims, coords) of GammaHom.simple_data that read only
    C, memoized per algebra under kind "simple" by the content of C: the
    summand classes, dim k(X_i) per class, and the End(C) coordinates (over
    the basis end) of the e_i and then of the incl o psi o proj, psi in
    rad End(X_i).  Every certificate runs before the answer is stored; the
    answer is tuples and a read-only array, so no caller can change it."""
    trips = rep.decompose(c)
    total = rep.zero_morphism(c, c)
    for _, incl, proj in trips:
        total = total.add(incl.compose(proj))
    if (total.flat() != rep.identity_morphism(c).flat()).any():
        raise VerificationFailure("summand idempotents do not sum to the identity")
    classes = rep.iso_classes([s for s, _, _ in trips])
    eps, rads, residue = [], [], []
    for cl in classes:
        x, incl, proj = trips[cl[0]]
        ed, rad = rep.end_radical(x)
        residue.append(ed.dim - rad.dim)
        eps.append(incl.compose(proj).flat())
        rads.extend(incl.compose(ed.basis.element(r)).compose(proj).flat() for r in rad.B)
    coords = np.array(end.coords(eps + rads))
    coords.flags.writeable = False
    return tuple(tuple(trips[k][0] for k in cl) for cl in classes), tuple(residue), coords


# -- right determination -------------------------------------------------------


def _rad_is_projective(A, v):
    """Whether rad P(v) is projective, by dimensions.  The maps P(w) -> P(v),
    e_w -> a, over the arrows a: v -> w, add up to a map onto rad P(v), since
    every path of positive length from v is a path after its first arrow; so
    rad P(v) is projective when that map is an iso, that is when dim rad P(v)
    = dim P(v) - 1 is the sum of the dim P(w)."""
    return A.proj(v).total_dim - 1 == sum(A.proj(w).total_dim for _, u, w in A.quiver.arrows if u == v)


def _socle_witness(f, v):
    """(y, res): y in Y_v outside (Im f)_v with Y_a y in Im f for every arrow
    a out of v, or None when there is no such y; res stacks, over those
    arrows, the maps Y_v -> Y_w / (Im f)_w that y must lie in the kernel of."""
    y, p = f.tgt, f.p
    out = [(ai, w) for ai, (_, u, w) in enumerate(y.A.quiver.arrows) if u == v]
    im = {w: Subspace(f.blocks[w].T, y.dims[w], p) for w in {v, *(w for _, w in out)}}
    res = np.concatenate([np.zeros((0, y.dims[v]), dtype=INT)]
                         + [im[w].annihilator() @ y.mats[ai] for ai, w in out]) % p
    room = kernel(res, p)
    outside = im[v].residues(room).any(axis=1)
    return (room[np.argmax(outside)], res) if outside.any() else None


def almost_factors_strictly(f, v):
    """True if some map g: P(v) -> Y factors through f on rad P(v) but not
    itself: P(v) then lies in the minimal right determiner of f.

    g is fixed by y = g(e_v) in Y_v.  g factors through f exactly when y lies
    in (Im f)_v, as P(v) is projective.  rad P(v) is generated by the arrows
    a: v -> w, so g(rad P(v)) lies in Im f exactly when Y_a y lies in
    (Im f)_w for every such a.  So a strict map exists only if
    U_v = {y in Y_v : Y_a y in Im f for every arrow a out of v} is larger
    than (Im f)_v (which it contains): this socle test reads only Y and the
    vertex spans of Im f, in one kernel and no Hom system, and returns False
    when it fails.

    When rad P(v) is projective the test is also sufficient: a map h:
    rad P(v) -> Im f lifts along the epi f.src -> Im f, so the g sending e_v
    to a witness y restricts on rad P(v) to a map through f, and does not
    factor itself.  The witness is checked by one product.  Otherwise
    restricting into Im f need not mean factoring on rad P(v), and the
    verdict is read off Hom(P(v), Y) and Hom(rad P(v), Y) (_strict_by_hom).
    """
    found = _socle_witness(f, v)
    if found is None:
        return False
    if _rad_is_projective(f.tgt.A, v):
        witness, res = found
        if (res @ witness % f.p).any():
            raise VerificationFailure("socle witness at vertex %d leaves Im f on an arrow" % v)
        return True
    return _strict_by_hom(f, v)


def _strict_by_hom(f, v):
    """almost_factors_strictly(f, v) read off Hom(P(v), Y) and
    Hom(rad P(v), Y), with no socle test: right for every v, and asked only
    where that test passed."""
    y = f.tgt
    pr = y.A.proj(v)
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
    """Indecomposables generating the minimal right determiner of f, as a
    tuple memoized per algebra by the content of f."""
    return f.src.A.memoized(("determiner", f.key()), lambda: _minimal_determiner(f))


def _minimal_determiner(f):
    fmin, _ = rep.right_minimalize(f)
    k, _ = rep.kernel(fmin)
    A = f.src.A
    parts = []
    if k.total_dim:
        summands = [t[0] for t in rep.decompose(k)]
        for cl in rep.iso_classes(summands):
            t = ar.tau_minus(summands[cl[0]])
            if t.total_dim:
                parts.append(t)
    for v in range(A.nv):
        if almost_factors_strictly(fmin, v):
            parts.append(A.proj(v))
    return tuple(parts)


def is_right_determined(f, c):
    """Whether f is right C-determined: by Auslander's criterion, whether its
    minimal determiner lies in add C, i.e. every class of summands that holds
    a summand of C(f) also holds one of C."""
    return all(0 in cl for cl in rep.summand_classes([c, *minimal_determiner(f)]))


def _farkas(a, b, index, w, p):
    """Certify that no column b_j of b is a combination of the columns of a:
    a row y with y a = 0 and y b_j != 0 for each, read off kernel(a.T) and
    checked by one product.  index names the probe of each column, w their
    source."""
    ker = kernel(a.T, p)
    sep = ker @ b % p
    ys = ker[np.argmax(sep != 0, axis=0)] if len(ker) else np.zeros((b.shape[1], a.shape[0]), dtype=INT)
    prod = ys @ np.concatenate([a, b], axis=1) % p
    n = a.shape[1]
    for j, k in enumerate(index):
        if prod[j, :n].any() or not prod[j, n + j]:
            raise VerificationFailure("no Farkas row separates probe %d (source %s) from the maps through f"
                                      % (k, w.dim_vector()))


def definitional_check(f, c, probes=None, count=None, seed=None):
    """Test the definition of right C-determination: every g with
    eta(g) <= eta(f) factors through f.

    Returns the maps g with eta(g) <= eta(f) that do not factor through f, in
    probe order: the caller's probes, or by default basis maps of the V_W
    below.  count and seed are ignored, kept only for the call in
    perfbench/workloads.py until the benchmark drops them (ROADMAP D1b).

    By default the list is empty exactly when f is right C-determined.  For
    each source W, one per content among f.src, C, the P(v), Y and the
    summands of the minimal determiner C(f), V_W = {g in Hom(W, Y) :
    eta(g) <= eta(f)} is the kernel of the eta(f)-residues of the g o h, h
    over the basis of Hom(C, W) (all of Hom(W, Y) when Hom(C, W) or Hom(C, Y)
    is 0).  Its basis maps are the probes of W: some are flagged exactly
    when V_W does not lie in f o Hom(W, f.src).

    The determiner sources find a witness whenever there is one.  Let
    g: W -> Y have eta(g) <= eta(f) and not factor through f.  f is right
    C(f)-determined (Auslander; Auslander-Reiten-Smalo, Representation
    Theory of Artin Algebras, 1995, Ch. XI; Ringel, The Auslander
    bijections, arXiv:1301.1251), so some v: C(f) -> W has g o v outside
    f o Hom(C(f), f.src), and then so does g o v o i for the inclusion i of
    some summand Z of C(f).  eta is functorial, so eta(g o v o i) <= eta(g)
    <= eta(f): g o v o i is a witness with source Z.  The decision rests on
    two premises: C(f) is what minimal_determiner computes, and the computed
    Hom bases are complete (ROADMAP D19 step 1).

    The probes run in one batch per source W.  Each probe g: W -> Y is a
    combination of the basis of Hom(W, Y), and composition is bilinear, so
    one product serves every probe of W on each side:
    - eta(g), the image of Hom(C, g), is spanned by the g o h over the basis
      h of Hom(C, W).  One composition of that basis with every probe, one
      coordinate read in Hom(C, Y) and one residue test against eta(f) decide
      eta(g) <= eta(f) for all of them (an empty Hom(C, W) gives eta(g) = 0);
    - g factors through f when a x = g is solvable, a the columns f o h over
      the basis h of Hom(W, f.src).  One elimination of [a | probes] reads
      solvability column by column.  The solutions are certified by one
      product, and a probe that lands in the list by a Farkas row (_farkas).
    A probe that factors through f with larger eta image contradicts
    functoriality of eta, and raises; only given probes can do so.
    """
    y = f.tgt
    if c.A is not y.A:
        raise VerificationFailure("C and Y are modules over different algebras")
    p = f.p
    hom_cy = rep.hom_space(c, y)
    ef = rep.factor_subspace(f, c, hom_cy)
    if probes is None:
        sources = {}
        for w in [f.src, c, *map(y.A.proj, range(y.A.nv)), y, *minimal_determiner(f)]:
            sources.setdefault(w.key(), w)
        draws = []
        for w in sources.values():
            hom_cw, hom_wy = rep.hom_space(c, w), rep.hom_space(w, y)
            res = ef.residues(hom_cy.coords(rep._compose_rows(hom_cw, hom_wy, True)))
            v_w = kernel(res.reshape(len(hom_wy), len(hom_cw) * len(hom_cy)).T, p)
            draws.extend((w, flat) for flat in v_w @ hom_wy.matrix % p)
    else:
        if any(g.tgt.key() != y.key() for g in probes):
            raise VerificationFailure("eta needs a map ending in Y")
        draws = [(g.src, g.flat()) for g in probes]
    batches = {}
    for i, (w, _) in enumerate(draws):
        batches.setdefault(w.key(), []).append(i)
    bad = []
    for index in batches.values():
        w = draws[index[0]][0]
        flats = np.array([draws[i][1] for i in index], dtype=INT)
        rows = hom_cy.coords(rep._compose_rows(rep.hom_space(c, w), (w, y, flats), True))
        lhs = ~ef.residues(rows).reshape(len(index), -1).any(axis=1)
        a = rep._compose_rows(rep.hom_space(w, f.src), f, True).T
        b = flats.T
        x, rhs = solve_columns(a, b, p)
        if ((a @ x - b)[:, rhs] % p).any():
            raise VerificationFailure("factoring witness does not compose to the probe")
        if (rhs & ~lhs).any():
            raise VerificationFailure("factoring map with larger eta image")
        miss = np.flatnonzero(lhs & ~rhs)
        if len(miss):
            _farkas(a, b[:, miss], [index[j] for j in miss], w, p)
            bad.extend(index[j] for j in miss)
    bad.sort()
    if probes is not None:
        return [probes[i] for i in bad]
    return [rep.morphism_from_flat(draws[i][0], y, draws[i][1]) for i in bad]
