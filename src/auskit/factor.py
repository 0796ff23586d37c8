"""Right factorization classes ending in Y, indexed through eta.

A right equivalence class [f> of morphisms ending in Y is represented by a
right minimal map.  Candidates are built as submodule inclusions composed with
extensions: the kernel of a right minimal map determined by C lies in add of
tau C, so every class arises from a submodule Y' of Y together with a tuple of
extension classes of Y' by copies of the kernel candidates K_i = tau X_i.

A tuple's class depends only on the End(K)-submodule U of
Ext^1(Y', K) = ⊕ Ext^1(Y', K_i) that its cocycles generate, K = ⊕ K_i acting
by pushout (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras,
1995, ch. I and XI): the automorphism [[1, 0], [-psi, 1]] of K ⊕ K carries
(xi, psi o xi) to (xi, 0), which is xi plus a split summand K -> 0.  Every U
is graded, hence a tuple of subspaces, and every tuple gives the class of its
End(K)-closure, so one candidate per U reaches every class.  U is realized by
generators, not a basis, which keeps the sources small (_ext_submodules).

The bijection with the submodule lattice of Hom(C, Y) is certified during the
build: every submodule must be reached (surjectivity), and candidates landing
on the same submodule must be right equivalent (injectivity).  A candidate is
keyed by eta of the map as assembled, and only the first one reaching a
submodule is right minimalized (ibid., ch. XI): f = f_min o s with s a split
epi, so Hom(X, s) is onto for every X.  Hence eta(f) = eta(f_min) and
[f> = [f_min>.  The missing-projective filter drops f when its minimal
determiner holds a P(v) outside add C, that is when some map P(v) -> Y
factors through f on rad P(v) but not itself
(determine.almost_factors_strictly).  It reads Y and Im f, and only where
rad P(v) is not projective also the images of Hom(P(v), f) and
Hom(rad P(v), f), so it gives the same verdict on f and f_min.  Every
candidate over Y' has image Y', and where rad P(v) is projective Im f alone
decides: those vertices are settled once per Y' on its inclusion, and a
rejected Y' is skipped before its Ext groups are built (_candidates).  At
the other vertices the socle test also runs once per Y', and only the
Hom-based test once per candidate.

Optionally the order and the meets are certified from two facts, each checked
at lattice cost rather than on all n^2 pairs: eta(f_k) is node k for every
class k (one eta read per class), and f_i factors through f_j on every cover
i < j (one solve per cover).
  - order, positive: every i <= j is a chain of covers, so the cover
    witnesses compose.
  - order, negative: eta is functorial.  If f_k = f_j o h, then
    f_k o u = f_j o (h o u) for every u: C -> X_k, so eta(f_k) lies in
    eta(f_j), that is node k <= node j.  So f_k does not factor through f_j
    whenever k is not <= j, for every pair, with no solve.  The premise is
    that each computed basis of Hom(C, X_k) is complete, so that the eta read
    is the whole image; a solve per pair would trust the bases of
    Hom(X_k, X_j) instead.
  - meets: eta of the pullback map g = f_i o p_i of f_i and f_j is the meet
    of nodes i and j, for every pair.  Let m = meet(i, j), so node m =
    node i ∩ node j.  First, g factors through f_i and through f_j, so by
    functoriality eta(g) lies in eta(f_i) ∩ eta(f_j) = node m.  Second, m <= i
    and m <= j, so the cover witnesses compose to f_m = f_i o a = f_j o b;
    then (a, b) factors through the pullback, f_m factors through g, and
    node m = eta(f_m) lies in eta(g).  No pullback is built, and the proof
    reads only the eta reads and the cover witnesses, never the negative half
    of the order.
"""

import numpy as np

from . import ar, determine, lattice, rep
from .errors import CapExceeded, VerificationFailure
from .ffmat import INT, Subspace, zeros

CAND_CAP = 20000  # per build: one candidate per End(K)-submodule of each Ext^1(Y', K)


class RightClass:
    """One right equivalence class [f>, held by a right minimal representative."""

    def __init__(self, f, eta):
        self.f = f
        self.eta = eta
        self.source = f.src
        self.kernel = rep.kernel(f)[0]
        self.is_epi = f.is_epi()
        self.is_mono = f.is_mono()

    def __repr__(self):
        return "RightClass(%s -> %s, eta dim %d)" % (
            self.source.dim_vector(),
            self.f.tgt.dim_vector(),
            self.eta.dim,
        )


def _ext_submodules(eds, A):
    """For each End(K)-submodule U of Ext^1(Y', K), a list per kernel class of
    the cocycle rows of generators of U: the seeds g in U (each in one block)
    by (-dim C(g), pivot column, entries), each kept when outside the sum of
    the cyclic submodules of those kept before.  The last two keys are the
    echelon order of lines; the representatives in classes.txt rest on it.
    The search is memoized in the algebra A."""
    off = np.cumsum([0] + [ed.dim for ed in eds])
    lifts = [np.array(ed.class_reps(), dtype=INT) for ed in eds]
    nodes, seeds = lattice.graded_submodules(A, [ed.dim for ed in eds], ar.pushout_action(eds))
    gens = sorted((-cg.dim, int(np.flatnonzero(g)[0]), g.tolist(), cg) for g, cg in seeds)
    rows = np.array([t[2] for t in gens], dtype=INT).reshape(len(gens), off[-1])
    for u in nodes:
        combo, span = [[] for _ in eds], Subspace.zero(off[-1], A.p)
        for t in np.flatnonzero(~u.residues(rows).any(axis=1)).tolist():
            _, lead, g, cg = gens[t]
            if span.dim < u.dim and not span.contains(g):
                span = span.sum(cg)
                i = int(np.searchsorted(off, lead, side="right")) - 1
                combo[i].append(np.array(g[off[i] : off[i + 1]]) @ lifts[i])
        yield combo


def _candidates(gh, y, extensions):
    """(f, extended) for each candidate that passes the missing-projective
    filter: the inclusion of a submodule Y' of Y after the extension of each
    cocycle list of extensions(eds, A), extended if it has a cocycle.

    Every candidate over Y' has image Y', so the missing projectives P(v)
    whose rad P(v) is projective, which almost_factors_strictly decides from
    the image alone, are settled once per Y' on its inclusion: a rejecting
    one skips Y' before any ExtData, and the others are not asked again.  At
    the other missing vertices the socle test, which also reads only the
    image, runs once per Y' on its inclusion, and each candidate is asked
    the Hom-based test only at the vertices that passed it."""
    A = y.A
    reps = [cl[0] for cl in gh.simple_data()[0]]  # one summand of C per iso class
    # the kernel candidates: tau is injective on non-projective indecomposable classes
    kclasses = [ar.tau(s) for s in reps if not ar.is_projective(s)]
    # classes come in order of first appearance: one led by a P(v) holds no summand of C
    projs = [A.proj(v) for v in range(A.nv)]
    missing_proj = [cl[0] - len(reps) for cl in rep.iso_classes(reps + projs) if cl[0] >= len(reps)]
    settled = [v for v in missing_proj if determine._rad_is_projective(A, v)]
    rest = [v for v in missing_proj if v not in settled]
    n_cand = 0
    for vt in lattice.rep_submodule_lattice(y):
        yprime, incl = lattice.sub_rep_of(y, vt)
        if any(determine.almost_factors_strictly(incl, v) for v in settled):
            continue
        live = [v for v in rest if determine._socle_witness(incl, v) is not None]
        eds = [ar.ExtData(yprime, k) for k in kclasses]
        eds = [ed for ed in eds if ed.dim > 0]
        for combo in extensions(eds, A):
            n_cand += 1
            if n_cand > CAND_CAP:
                raise CapExceeded("too many factorization candidates")
            f = _assemble(A, incl, eds, combo)
            if not any(determine._strict_by_hom(f, v) for v in live):
                yield f, any(combo)


class FactorizationLattice:
    """The lattice of right C-determined factorization classes over Y."""

    def __init__(self, c, y, gh, lat, classes):
        self.c, self.y = c, y
        self.gh = gh
        self.lat = lat
        self.classes = classes  # aligned with lat.nodes

    @classmethod
    def build(cls, c, y, certify=True):
        gh = determine.GammaHom(c, y)
        lat = lattice.SubmoduleLattice.build(gh)
        found = {}
        for f, extended in _candidates(gh, y, _ext_submodules):
            sub = gh.eta(f)
            key = sub.key()
            if key in found:
                if not rep.right_equivalent(f, found[key].f):
                    raise VerificationFailure("distinct classes share an eta image")
            else:
                # submodule inclusions (no cocycle) are right minimal
                found[key] = RightClass(rep.right_minimalize(f)[0] if extended else f, sub)

        classes = [found.get(node.key()) for node in lat.nodes]
        if None in classes:
            raise VerificationFailure("no right determined class found for a submodule")
        out = cls(c, y, gh, lat, classes)
        if certify:
            out.check_order_isomorphism()
        return out

    # -- structure -------------------------------------------------------------

    def __len__(self):
        return len(self.classes)

    @property
    def zero_class(self):
        return self.classes[self.lat.zero_i]

    @property
    def top_class(self):
        return self.classes[self.lat.full_i]

    def c_length(self, i):
        """The C-length |f>: length of Hom(C,Y)/eta(f) over End(C)."""
        return self.gh.length_between(self.lat.nodes[i], self.gh.full_sub())

    def length_one_indices(self):
        return [i for i in range(len(self.classes)) if self.c_length(i) == 1]

    def epi_class_indices(self):
        """Classes of epimorphisms; certified against the projective criterion."""
        through = self.gh.through_proj()
        out = []
        for i, rc in enumerate(self.classes):
            criterion = through.leq(self.lat.nodes[i])
            if criterion != rc.is_epi:
                raise VerificationFailure(
                    "epi criterion disagrees with the representative"
                )
            if criterion:
                out.append(i)
        return out

    # -- certificates ----------------------------------------------------------

    def check_order_isomorphism(self):
        """f_i factors through f_j iff i <= j, by the module docstring: first
        check_meets, whose eta reads give the negative half for every pair by
        functoriality (sound as far as the bases of Hom(C, X_k) are complete),
        then one solve per cover for the positive half."""
        self.check_meets()
        fs = [rc.f for rc in self.classes]
        for i, j in self.lat.covers():
            if not rep.right_leq(fs[i], fs[j])[0]:
                raise VerificationFailure(
                    "factorization order differs from eta order: cover %d<%d does not factor" % (i, j))

    def check_meets(self):
        """eta of the pullback map of f_i and f_j is the meet of nodes i and
        j, for every pair: by the module docstring it suffices that eta of
        each representative is its node, given the cover witnesses.
        check_order_isomorphism runs this first and then solves the covers,
        so it certifies both; the meet proof never reads the negative half of
        the order, so the pair is not circular."""
        for k, rc in enumerate(self.classes):
            if self.gh.eta(rc.f).key() != self.lat.nodes[k].key():
                raise VerificationFailure("eta of the representative of class %d is not its node" % k)

    def to_json(self):
        data = self.lat.to_json()
        data["classes"] = [
            {
                "index": i,
                "source": list(rc.source.dim_vector()),
                "kernel": list(rc.kernel.dim_vector()),
                "epi": rc.is_epi,
                "mono": rc.is_mono,
                "c_length": self.c_length(i),
            }
            for i, rc in enumerate(self.classes)
        ]
        return data


def _assemble(A, incl, eds, combo):
    """Compose the submodule inclusion with the extension given by the
    cocycles: xi: Omega -> K_1 ⊕ ... ⊕ K_m stacks their vertex blocks."""
    xis = [ed.cocycle(coords) for ed, rows in zip(eds, combo) for coords in rows]
    if not xis:
        return incl
    ktotal = rep.direct_sum(A, [c.tgt for c in xis])[0]
    xi = rep.Morphism(eds[0].omega, ktotal, [np.concatenate(bs) for bs in zip(*(c.blocks for c in xis))])
    return incl.compose(eds[0].realize(xi)[2])


# -- forks, coforks, and the kernel comparison sequence ------------------------


def is_fork(gs):
    """Whether maps g_i: X -> M_i (M_i indecomposable) form a fork: no g_i lies
    in the span of the phi o g_j, j != i, phi: M_j -> M_i."""
    _check_prongs([g.tgt for g in gs], gs)
    return _no_prong_spanned(gs, lambda h, hom: rep.hom_matrix_precompose(
        rep.hom_space(h.tgt, hom.y), h, hom).T)


def is_cofork(fs):
    """Whether maps f_i: M_i -> Y (M_i indecomposable) form a cofork: no f_i lies
    in the span of the f_j o psi, j != i, psi: M_i -> M_j."""
    _check_prongs([f.src for f in fs], fs)
    return _no_prong_spanned(fs, lambda g, hom: rep.factor_subspace(g, hom.x, hom).B)


def _no_prong_spanned(fs, rows_from):
    """Whether no f_i lies in the span of the coordinate rows rows_from(f_j, Hom_i)
    over j != i, Hom_i the HomSpace of f_i."""
    for i, f in enumerate(fs):
        hom = rep.hom_space(f.src, f.tgt)
        rows = [rows_from(g, hom) for j, g in enumerate(fs) if j != i]
        span = Subspace(np.concatenate([zeros(0, len(hom))] + rows), len(hom), f.p)
        if span.contains(rep.morphism_coords(f, hom)):
            return False
    return True


def _check_prongs(mods, maps):
    for m, f in zip(mods, maps):
        if f.is_zero():
            raise VerificationFailure("fork prongs must be nonzero")
        if len(rep.decompose(m)) != 1:
            raise VerificationFailure("fork prongs must be indecomposable")


def kernel_comparison(f, fp):
    """Exact 0 -> K -> K' + X -> X' -> 0 from [f> <= [f'> with isomorphic kernels.

    Both maps must be epimorphisms onto the same target.  Returns the verified
    pair (left, right) of morphisms.
    """
    if not (f.is_epi() and fp.is_epi()):
        raise VerificationFailure("kernel comparison needs epimorphisms")
    k, u = rep.kernel(f)
    kp, up = rep.kernel(fp)
    if not rep.is_isomorphic(k, kp):
        raise VerificationFailure("kernels are not isomorphic")
    ok, h = rep.right_leq(f, fp)
    if not ok:
        raise VerificationFailure("first map does not factor through the second")
    ok, phi = rep.right_leq(h.compose(u), up)
    if not ok:
        raise VerificationFailure("restricted map does not factor through the kernel")
    A = f.src.A
    d, incls, projs = rep.direct_sum(A, [kp, f.src])
    left = incls[0].compose(phi).add(incls[1].compose(u).scale(f.p - 1))
    right = up.compose(projs[0]).add(h.compose(projs[1]))
    if not right.compose(left).is_zero():
        raise VerificationFailure("comparison maps do not compose to zero")
    if not left.is_mono() or not right.is_epi():
        raise VerificationFailure("comparison sequence is not exact at the ends")
    if d.total_dim != k.total_dim + fp.src.total_dim:
        raise VerificationFailure("comparison sequence has wrong dimensions")
    return left, right
