"""Representations of a quiver algebra, morphisms, and module-level operations.

A Rep assigns to each vertex a column space F_p^d and to each arrow a matrix
acting tgt <- src.  Morphisms are vertexwise matrices intertwining the arrow
actions.  Everything downstream (kernels, direct summands, right
minimalization) reduces to exact linear algebra in ffmat.
"""

import itertools
import random

import numpy as np

from . import ffmat
from .errors import CapExceeded, VerificationFailure
from .ffmat import INT, amod, identity, zeros


class Rep:
    """A finite-dimensional representation of a quiver algebra.

    A Rep is never mutated after construction (its arrow matrices are made
    read-only): its content key is computed once and kept, and the algebra's
    answer memo is keyed by it.
    """

    def __init__(self, algebra, dims, mats, check=True):
        self.A = algebra
        self.dims = [int(d) for d in dims]
        self.mats = {}
        q = algebra.quiver
        for ai, (_, u, v) in enumerate(q.arrows):
            m = mats.get(ai) if isinstance(mats, dict) else mats[ai]
            m = amod(m, algebra.p).reshape(self.dims[v], self.dims[u])
            m.flags.writeable = False
            self.mats[ai] = m
        self._cache = {}
        if check:
            self.check()

    @property
    def p(self):
        return self.A.p

    @property
    def total_dim(self):
        return sum(self.dims)

    def offsets(self):
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return out

    def dim_vector(self):
        return tuple(self.dims)

    def key(self):
        """Content key: the dimension vector and the bytes of every arrow matrix."""
        if "key" not in self._cache:
            self._cache["key"] = (tuple(self.dims),) + tuple(
                ffmat.mat_key(self.mats[ai]) for ai in range(len(self.A.quiver.arrows)))
        return self._cache["key"]

    def is_zero(self):
        return self.total_dim == 0

    def check(self):
        """Verify every relation of the algebra acts as zero."""
        for rel in self.A.relations:
            acc = None
            for coef, path in rel:
                m = self.path_matrix(path)
                acc = (coef * m) % self.p if acc is None else (acc + coef * m) % self.p
            if acc is not None and acc.any():
                raise VerificationFailure("relation not satisfied by representation")

    def path_matrix(self, path):
        """Matrix of a path acting on this representation (composition order),
        cached: each path is its cached tail extended by one arrow."""
        paths = self._cache.setdefault("paths", {})
        if path not in paths:
            src, names = path
            paths[path] = ((self.mats[names[0]] @ self.path_matrix((src, names[1:]))) % self.p
                           if names else identity(self.dims[src]))
        return paths[path]

    def path_stack(self, v, w):
        """The matrices of the basis paths of P(v) ending at w, as one cached
        (paths, dims[w], dims[v]) stack."""
        key = ("path_stack", v, w)
        if key not in self._cache:
            paths = self.A.proj_paths(v)[w]
            self._cache[key] = np.array([self.path_matrix(s) for s in paths], dtype=INT
                                        ).reshape(len(paths), self.dims[w], self.dims[v])
        return self._cache[key]

    def __repr__(self):
        return "Rep%s" % (self.dim_vector(),)


def zero_rep(algebra):
    return direct_sum(algebra, [])[0]


class Morphism:
    def __init__(self, src, tgt, blocks):
        self.src = src
        self.tgt = tgt
        p = src.p
        self.blocks = [
            amod(b, p).reshape(tgt.dims[v], src.dims[v]) for v, b in enumerate(blocks)
        ]

    @property
    def p(self):
        return self.src.p

    def flat(self):
        if not self.blocks:
            return np.array([], dtype=INT)
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def key(self):
        return (self.src.key(), self.tgt.key(), ffmat.mat_key(self.flat().reshape(1, -1)))

    def is_zero(self):
        return not any(b.any() for b in self.blocks)

    def compose(self, other):
        """self after other."""
        if other.tgt is not self.src and other.tgt.key() != self.src.key():
            raise VerificationFailure("composition: target of the first map is not the source of the second")
        return Morphism(
            other.src,
            self.tgt,
            [(a @ b) % self.p for a, b in zip(self.blocks, other.blocks)],
        )

    def add(self, other):
        return Morphism(
            self.src, self.tgt, [(a + b) % self.p for a, b in zip(self.blocks, other.blocks)]
        )

    def scale(self, c):
        return Morphism(self.src, self.tgt, [(c * b) % self.p for b in self.blocks])

    def is_mono(self):
        return all(ffmat.rank(b, self.p) == self.src.dims[v] for v, b in enumerate(self.blocks))

    def is_epi(self):
        return all(ffmat.rank(b, self.p) == self.tgt.dims[v] for v, b in enumerate(self.blocks))

    def is_iso(self):
        return (
            self.src.dim_vector() == self.tgt.dim_vector()
            and self.is_mono()
        )

    def check(self):
        if not _intertwine(self.src, self.tgt, self.blocks):
            raise VerificationFailure("not a morphism")
        return self

    def __repr__(self):
        return "Morphism(%s -> %s)" % (self.src.dim_vector(), self.tgt.dim_vector())


def zero_morphism(x, y):
    return Morphism(x, y, [zeros(y.dims[v], x.dims[v]) for v in range(len(x.dims))])


def identity_morphism(x):
    return Morphism(x, x, [identity(d) for d in x.dims])


def morphism_from_flat(x, y, flat):
    return Morphism(x, y, [b[0] for b in _vertex_blocks(x, y, np.asarray(flat, dtype=INT).reshape(1, -1))])


# --- hom spaces -------------------------------------------------------------
#
# A map X -> Y is fixed by the images of generators of X (Lux-Szoke, Computing
# homomorphism spaces between modules over finite dimensional algebras, Exp.
# Math. 2003): the generators g_i at vertices v_i span a complement of rad X,
# the columns X_s g_i over the basis paths s of P(v_i) span X, and images y_i
# in Y_{v_i} extend to a map exactly when every linear relation among those
# columns holds among the Y_s y_i.  That one system gives the Hom bases (its
# kernel) and the factorizations of right_leq and left_leq (one solve each, no
# basis).  Every coordinate read and every composition over a basis works on
# the canonical rows that hom_space keeps.


MAX_HOM_UNKNOWNS = 1024  # most generator images a Hom system solves for; the catalog needs at most 118


class HomSpace:
    """A basis of Hom(X, Y) as the canonical rows matrix of hom_space, the
    identity on its free columns (the last nonzero entry of each row): the
    coordinates of a map are its entries there, checked by one product for a
    whole stack of maps.  Basis maps are built on request, by indexing.
    """

    def __init__(self, x, y, matrix):
        self.x, self.y, self.matrix = x, y, matrix

    def __len__(self):
        return len(self.matrix)

    def __getitem__(self, i):
        """Basis map i, or the list of basis maps of a slice."""
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        return morphism_from_flat(self.x, self.y, self.matrix[i])

    def coords(self, flats):
        """Coordinate rows of a stack of flattened maps X -> Y, each checked to
        lie in the span (VerificationFailure otherwise)."""
        flats = np.asarray(flats, dtype=INT).reshape(len(flats), self.matrix.shape[1])
        c = flats[:, _last_nonzero(self.matrix)]
        if ((c @ self.matrix) % self.x.p != flats).any():
            raise VerificationFailure("map outside Hom(X, Y)")
        return c

    def element(self, coords):
        """The morphism with the given coordinates."""
        return morphism_from_flat(self.x, self.y, (np.asarray(coords, dtype=INT) @ self.matrix) % self.x.p)


def _last_nonzero(rows):
    """The column of the last nonzero entry of each row (the last column for a zero row)."""
    return rows.shape[1] - 1 - np.argmax(rows[:, ::-1] != 0, axis=1) if len(rows) else np.zeros(0, dtype=INT)


def _vertex_blocks(x, y, flats):
    """Rows of flattened maps X -> Y as per-vertex stacks (rows, dims_Y[v], dims_X[v])."""
    out, pos = [], 0
    for dx, dy in zip(x.dims, y.dims):
        out.append(flats[:, pos : pos + dx * dy].reshape(len(flats), dy, dx))
        pos += dx * dy
    return out


def _flatten(stacks, k):
    """Per-vertex stacks of k maps as k flattened rows (inverse of _vertex_blocks)."""
    return np.concatenate([zeros(k, 0)] + [s.reshape(k, s.shape[1] * s.shape[2]) for s in stacks], axis=1)


def _generators(x):
    """(verts, lifts, blocks, rels): the generators of X and their relations.

    The generators at v are the lifts, with free variables 0, of the unit
    vectors of top X_v along kernel(RREF(rad X_v)); lifts[i] lies at verts[i].
    blocks[w] holds the columns X_s g (generators g, then the basis paths s
    of P(v) ending at w): the cover by the generators at w.  rels[w] = (omega,
    piv, sec): omega spans the relations of those columns, and sec inverts the
    columns piv, so a map sending them to M has f_w = M[:, piv] @ sec.  The
    columns must span X_w, which certifies that the cover is onto.
    """
    A, p = x.A, x.p
    verts, lifts = [], []
    for v, d in enumerate(x.dims):
        into = [x.mats[ai].T for ai, (_, _, w) in enumerate(A.quiver.arrows) if w == v]
        r, piv = ffmat.rref(np.concatenate([zeros(0, d)] + into), p)
        onto = ffmat.kernel_from_rref(r, piv, d, p)
        sol = ffmat.solve_mat(onto, identity(len(onto)), p)
        if sol is None:
            raise VerificationFailure("top vector does not lift to the module")
        verts.extend([v] * len(onto))
        lifts.extend(np.array(c) for c in sol.T)  # each owns its data
    blocks, rels = [], []
    for w, d in enumerate(x.dims):
        g = np.concatenate([zeros(d, 0)] + [(x.path_stack(v, w) @ lift).T for v, lift in zip(verts, lifts)],
                           axis=1) % p
        n = g.shape[1]
        r, piv = ffmat.rref(np.concatenate([g, identity(d)], axis=1), p)
        if piv and piv[-1] >= n:
            raise VerificationFailure("generator columns do not span the module")
        blocks.append(g)
        rels.append((ffmat.kernel_from_rref(r[:, :n], piv, n, p), piv, r[:, n:].copy()))
    return verts, lifts, blocks, rels


def generators(x):
    """The memoized generator data of X (see _generators)."""
    return x.A.memoized(("gens", x.key()), lambda: _generators(x))


def _generator_system(x, z):
    """(eqs, reads): the maps X -> Z as a linear system on the images z_i in
    Z_{v_i} of the generators of X (the unknowns, in generator order).

    Images extend to a map exactly when eqs kills them: sum_c omega_c Z_s z_i
    = 0 for every relation omega (c = (i, s)).  Row u of reads is the map
    that unit vector u gives through the sections, flattened, so a solution z
    is the map z @ reads.  Out of P(v) there is one generator, e_v, and no
    relation.  More than MAX_HOM_UNKNOWNS unknowns (the sum of dim Z_v over
    the generators at v) are refused with CapExceeded before the build.
    """
    p = x.p
    verts, _, _, rels = generators(x)
    starts = list(itertools.accumulate([0] + [z.dims[v] for v in verts]))
    if starts[-1] > MAX_HOM_UNKNOWNS:
        raise CapExceeded("Hom system of %d unknowns exceeds the cap %d" % (starts[-1], MAX_HOM_UNKNOWNS))
    maps = []  # per w, (columns, dims_Z[w], unknowns): the unknowns to Z_s z_i
    for w, dw in enumerate(z.dims):
        stacks = [z.path_stack(v, w) for v in verts]
        cuts = list(itertools.accumulate([0] + [len(s) for s in stacks]))
        maps.append(np.zeros((cuts[-1], dw, starts[-1]), dtype=INT))
        for i, s in enumerate(stacks):
            maps[-1][cuts[i] : cuts[i + 1], :, starts[i] : starts[i + 1]] = s
    eqs = np.concatenate([zeros(0, starts[-1])] + [
        (om @ t.reshape(len(t), t.shape[1] * starts[-1])).reshape(len(om) * t.shape[1], starts[-1])
        for (om, _, _), t in zip(rels, maps) if len(om)]) % p
    reads = _flatten([t[piv].transpose(2, 1, 0) @ sec for (_, piv, sec), t in zip(rels, maps)], starts[-1])
    return eqs, reads % p


def _intertwine(x, y, blocks):
    """Whether the vertex blocks, of one map X -> Y or of stacks of maps (as
    _vertex_blocks gives them), intertwine the arrow actions."""
    return not any(((y.mats[ai] @ blocks[u] - blocks[w] @ x.mats[ai]) % x.p).any()
                   for ai, (_, u, w) in enumerate(x.A.quiver.arrows))


def _hom_rows(x, y):
    """The basis of Hom(X, Y) as flattened rows, in the smallest dtype holding
    p - 1: the identity on its free columns, the last nonzero entry of each
    row (the free-column kernel basis of the intertwiner equations).

    The spanning maps are kernel(eqs) @ reads of the generator system, or
    reads itself when there is no equation (out of P(v), say); one RREF makes
    them the canonical rows, which are certified to be independent and to
    intertwine.
    """
    p = x.p
    eqs, reads = _generator_system(x, y)
    f = (ffmat.kernel(eqs, p) @ reads) % p if len(eqs) else reads
    # the free-column kernel basis: rref of the reversed columns, reversed back
    r, piv = ffmat.rref(f[:, ::-1], p)
    if len(piv) != len(f):
        raise VerificationFailure("generator images do not give independent maps")
    rows = r[::-1, ::-1]
    if not _intertwine(x, y, _vertex_blocks(x, y, rows)):
        raise VerificationFailure("a Hom basis map is not a morphism")
    return rows.astype(np.min_scalar_type(p - 1))


def hom_space(x, y):
    """Basis of Hom(X, Y) as a HomSpace on x and y (deterministic order).

    The canonical basis rows are memoized per algebra by the content of x
    and y; a memo hit does no RREF.
    """
    matrix = x.A.memoized(("hom", x.key(), y.key()), lambda: _hom_rows(x, y)).astype(INT)
    matrix.flags.writeable = False
    return HomSpace(x, y, matrix)


def end_algebra(x):
    return hom_space(x, x)


def morphism_coords(f, basis):
    """Coordinates of f over a HomSpace; VerificationFailure outside its span."""
    return basis.coords([f.flat()])[0]


def _compose_rows(hom, g, after):
    """Flattened rows of g o h (after) or of h o g over the rows h of hom; hom
    is a HomSpace or a triple (X, Y, flats) of a stack of flattened maps X -> Y,
    g a map or either of those, whose maps run g-major over the rows."""
    hx, hy, hflats = (hom.x, hom.y, hom.matrix) if isinstance(hom, HomSpace) else hom
    if isinstance(g, Morphism):
        gx, gy, gs = g.src, g.tgt, [b[None] for b in g.blocks]
    else:
        gx, gy, flats = (g.x, g.y, g.matrix) if isinstance(g, HomSpace) else g
        gs = _vertex_blocks(gx, gy, flats)
    a, b = (hy, gx) if after else (gy, hx)
    if a is not b and a.key() != b.key():
        raise VerificationFailure("composition: target of the first map is not the source of the second")
    k = len(gs[0]) * len(hflats)
    hs = _vertex_blocks(hx, hy, hflats)
    prods = [gv[:, None] @ hv[None] if after else hv[None] @ gv[:, None] for gv, hv in zip(gs, hs)]
    return _flatten([m.reshape(k, m.shape[2], m.shape[3]) for m in prods], k) % hx.p


def hom_matrix_precompose(homxy, g, homzy):
    """Matrix of (- o g): Hom(X,Y) -> Hom(Z,Y) for g: Z -> X (side by side over a HomSpace g)."""
    return homzy.coords(_compose_rows(homxy, g, False)).T


def factor_subspace(f, w, hom_wy):
    """Image of Hom(W, f) = (f o -): the maps W -> Y factoring through f, in
    the coordinates of the HomSpace hom_wy."""
    rows = hom_wy.coords(_compose_rows(hom_space(w, f.src), f, True))
    return ffmat.Subspace(rows, len(hom_wy), f.p)


# --- subobjects and quotients ------------------------------------------------


def _sub_rep(x, subs):
    """The subrepresentation on arrow-closed vertex Subspaces, with its
    inclusion; each arrow's action is read at the pivots of its target span."""
    mats = {ai: subs[v].coords(subs[u].B @ x.mats[ai].T, "vertex spans not closed under arrow action").T
            for ai, (_, u, v) in enumerate(x.A.quiver.arrows)}
    k = Rep(x.A, [s.dim for s in subs], mats, check=False)
    return k, Morphism(k, x, [s.B.T for s in subs]).check()


def kernel(f):
    """(K, incl) with K = Ker f."""
    return _sub_rep(f.src, [ffmat.null_space(b, f.p) for b in f.blocks])


def image(f):
    """(I, incl: I -> tgt, onto: src -> I) with incl o onto = f; onto is f
    read at the pivots of the image spans."""
    subs = [ffmat.Subspace(b.T, d, f.p) for b, d in zip(f.blocks, f.tgt.dims)]
    i, incl = _sub_rep(f.tgt, subs)
    onto = Morphism(f.src, i, [s.coords(b.T, "map does not factor through its image").T
                               for s, b in zip(subs, f.blocks)])
    return i, incl, onto.check()


def quotient_by_subspaces(x, subs):
    """(Q, proj) where Q = X / U for arrow-stable vertexwise subspaces U.

    Quotient coordinates are the free (non-pivot) entries of a residue mod
    U: proj is the annihilator of U's echelon rows, the identity on the free
    columns, and reading those columns is a section of it.
    """
    projs = [s.annihilator() for s in subs]
    mats = {ai: (projs[v] @ x.mats[ai])[:, subs[u].free()] % x.p
            for ai, (_, u, v) in enumerate(x.A.quiver.arrows)}
    q = Rep(x.A, [len(m) for m in projs], mats, check=False)
    return q, Morphism(x, q, projs).check()


def cokernel(f):
    return quotient_by_subspaces(f.tgt, [ffmat.Subspace(b.T, d, f.p) for b, d in zip(f.blocks, f.tgt.dims)])


def total_arrows(x):
    """The arrows as one (arrows, n, n) stack acting on the total space F_p^n,
    the vertex blocks in vertex order; its stable subspaces are the submodules."""
    n, off = x.total_dim, x.offsets()
    out = np.zeros((len(x.mats), n, n), dtype=INT)
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        out[ai, off[v] : off[v + 1], off[u] : off[u + 1]] = x.mats[ai]
    return out


def vertex_spans(x, sub):
    """The vertex parts of a vertex-graded subspace of the total space, as
    Subspaces read off its RREF with no elimination.

    The RREF of a graded subspace is block diagonal, so the rows whose pivot
    lies in a vertex block are that vertex's RREF basis.
    """
    off = x.offsets()
    cuts = np.searchsorted(sub.pivots, off)
    return [ffmat.Subspace.from_rref(sub.B[cuts[v] : cuts[v + 1], off[v] : off[v + 1]],
                                     [q - off[v] for q in sub.pivots[cuts[v] : cuts[v + 1]]], d, x.p)
            for v, d in enumerate(x.dims)]


def rad(x):
    """rad X, memoized by the content of x like decompose, re-based onto x."""
    r, incl = x.A.memoized(("rad", x.key()), lambda: _rad(x))
    return (r, incl) if incl.tgt is x else (r, Morphism(r, x, incl.blocks))


def _rad(x):
    """(R, incl) with R the radical (sum of all arrow images)."""
    rows = [zeros(0, x.dims[v]) for v in range(len(x.dims))]
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        rows[v] = np.concatenate([rows[v], x.mats[ai].T], axis=0)
    return _sub_rep(x, [ffmat.Subspace(r, d, x.p) for r, d in zip(rows, x.dims)])


def soc(x):
    """(S, incl) with S the socle (joint kernel of all arrows)."""
    subs = []
    for v, d in enumerate(x.dims):
        stacked = [x.mats[ai] for ai, (_, u, _w) in enumerate(x.A.quiver.arrows) if u == v]
        subs.append(ffmat.null_space(np.concatenate([zeros(0, d)] + stacked), x.p))
    return _sub_rep(x, subs)


def top(x):
    """(T, proj) with T = X / rad X."""
    return cokernel(rad(x)[1])


def direct_sum(algebra, reps):
    """(D, inclusions, projections)."""
    nv = len(algebra.quiver.vertices)
    dims = [sum(r.dims[v] for r in reps) for v in range(nv)]
    mats = {}
    for ai in range(len(algebra.quiver.arrows)):
        _, u, v = algebra.quiver.arrows[ai]
        m = zeros(dims[v], dims[u])
        ro = co = 0
        for r in reps:
            m[ro : ro + r.dims[v], co : co + r.dims[u]] = r.mats[ai]
            ro += r.dims[v]
            co += r.dims[u]
        mats[ai] = m
    d = Rep(algebra, dims, mats, check=False)
    incls, projs = [], []
    offs = [[0] * nv]
    for r in reps:
        offs.append([offs[-1][v] + r.dims[v] for v in range(nv)])
    for i, r in enumerate(reps):
        ib = [identity(dims[v])[:, offs[i][v] : offs[i + 1][v]] for v in range(nv)]
        incls.append(Morphism(r, d, ib))
        projs.append(Morphism(d, r, [b.T for b in ib]))
    return d, incls, projs


def structure(x):
    """Radical series, socle series and top, as dimension vectors."""
    series = []
    cur = x
    while cur.total_dim:
        series.append(cur.dim_vector())
        cur = rad(cur)[0]
    # ascending socle series: socles of successive quotients
    socs = []
    y = x
    while y.total_dim:
        s, incl = soc(y)
        socs.append(s.dim_vector())
        y = cokernel(incl)[0]
    t, _ = top(x)
    return {
        "radical_series": series,
        "socle_series": socs,
        "top": t.dim_vector(),
    }


# --- endomorphism rings and the splitting engine ------------------------------
#
# Every split comes from Fitting's lemma: an endomorphism b that is neither a
# unit nor nilpotent gives X = Im b^N + Ker b^N.  Every "indecomposable"
# verdict comes with a verified nilpotent ideal J of End(X) such that End/J is
# a field (Lux-Szoke, Computing decompositions of modules over
# finite-dimensional algebras, Exp. Math. 2007).  Each verdict is computed
# once per content, by decompose, whose memo record keeps J beside the
# summands of an indecomposable X; every split of X along an idempotent e into
# the images of e and 1 - e, in decompose and right_minimalize, is one _split.

SPLIT_CANDIDATES = 64  # seeded random a whose F_p[a] is split when End/J is not commutative


class EndData:
    """End(X) with its basis as a stack of total matrices.

    Coordinates are read by the HomSpace of the basis, from the entries of
    the vertex blocks; the entries outside them must be zero.
    """

    def __init__(self, x):
        self.x = x
        self.p = x.p
        self.basis = end_algebra(x)
        self.dim = len(self.basis)
        n, off = x.total_dim, x.offsets()
        inside = np.zeros((n, n), dtype=bool)
        for v in range(len(x.dims)):
            inside[off[v] : off[v + 1], off[v] : off[v + 1]] = True
        self._inside = inside.reshape(-1)  # row-major, so in Morphism.flat order
        self.mats = zeros(self.dim, n * n)
        self.mats[:, self._inside] = self.basis.matrix
        self.mats = self.mats.reshape(self.dim, n, n)

    def coords_of(self, ms):
        """Coordinate rows of a stack of total matrices, each checked to lie in End(X)."""
        flat = np.asarray(ms, dtype=INT).reshape(len(ms), -1)
        if flat[:, ~self._inside].any():
            raise VerificationFailure("matrix outside the endomorphism ring")
        return self.basis.coords(flat[:, self._inside])

    def to_mats(self, coords):
        """Total matrices of a stack of coordinate rows."""
        return np.tensordot(np.asarray(coords, dtype=INT), self.mats, 1) % self.p


def _fitting_projection(b, p):
    """Projection onto Im b^N along Ker b^N, N the size of b (Fitting's lemma).

    Zero when b is nilpotent, the identity when b is a unit, and otherwise a
    nontrivial idempotent that is a polynomial in b without constant term.
    """
    n = b.shape[0]
    bn, k = b % p, 1
    while k < n:
        bn, k = (bn @ bn) % p, 2 * k
    im = ffmat.Subspace(bn.T, n, p)
    if im.dim in (0, n):
        return identity(n) if im.dim else zeros(n, n)
    basis = np.concatenate([im.B, ffmat.kernel(bn, p)]).T
    inv = ffmat.inv(basis, p)
    if inv is None:
        raise VerificationFailure("Fitting: image and kernel of b^N do not span")
    return (basis[:, : im.dim] @ inv[: im.dim]) % p


def _fitting_split(a, p):
    """A nontrivial Fitting projection of a shift a - lambda, lambda in F_p, or
    None.  The search stops at the first nilpotent shift: a then has the one
    eigenvalue lambda, so no other shift splits.
    """
    one = identity(a.shape[0])
    for lam in range(p):
        e = _fitting_projection((a - lam * one) % p, p)
        if not e.any():
            return None
        if (e != one).any():
            return e
    return None


def _frobenius_split(basis, coords, p):
    """(injective, e) for the commutative algebra R that ffmat.frobenius reads
    from basis and coords: e is the nontrivial Fitting projection of a shift of
    the first fixed element outside F_p, or None when R fixes only F_p."""
    injective, fixed, one = ffmat.frobenius(basis, coords, p)
    for s in fixed:
        if ffmat.rank(np.array([one, s]), p) == 2:
            e = _fitting_split(np.tensordot(s, basis, 1) % p, p)
            if e is None:
                raise VerificationFailure("a Frobenius-fixed element outside F_p does not split")
            return injective, e
    return injective, None


def is_nilpotent(mats, p):
    """Whether the span of the square matrices mats is a nilpotent algebra.

    Its power chain S, S^2, ... must shrink strictly down to 0; a span
    closed under products that stops shrinking above 0 is not nil.
    """
    if not len(mats):
        return True
    n = mats[0].shape[0]
    cur = ffmat.Subspace(np.asarray(mats, dtype=INT).reshape(len(mats), n * n), n * n, p)
    gens = cur.B.reshape(cur.dim, n, n)
    while cur.dim:
        prods = np.einsum("dij,ejk->deik", cur.B.reshape(cur.dim, n, n), gens) % p
        nxt = ffmat.Subspace(prods.reshape(-1, n * n), n * n, p)
        if nxt.dim >= cur.dim:
            return False
        cur = nxt
    return True


def _max_nil_ideal(ed):
    """rad End(X) as a Subspace of coordinates, verified nilpotent two-sided ideal.

    The Cohen-Ivanyos-Wales chain: I_-1 = End, I_i = {x in I_i-1 : g_i(yx) = 0
    for all y}, g_i(m) the coefficient of t^(n - p^i) in det(t - m), while
    p^i <= n.  The verification does not rely on the chain being right.
    """
    p, n = ed.p, ed.x.total_dim
    cur = ffmat.Subspace.full(ed.dim, p)
    i = 0
    while p ** i <= n and cur.dim:
        elems = ed.to_mats(cur.B)
        g = ffmat.charpoly(np.einsum("yij,xjk->yxik", ed.mats, elems), p)[..., n - p ** i]
        cur = ffmat.Subspace(ffmat.kernel(g, p) @ cur.B, ed.dim, p)
        i += 1
    if cur.dim:
        jm = ed.to_mats(cur.B)
        prods = np.concatenate([np.einsum("aij,bjk->abik", jm, ed.mats).reshape(-1, n, n),
                                np.einsum("aij,bjk->abik", ed.mats, jm).reshape(-1, n, n)]) % p
        if cur.residues(ed.coords_of(prods)).any():
            raise VerificationFailure("radical candidate is not a two-sided ideal")
        if not is_nilpotent(jm, p):
            raise VerificationFailure("radical candidate is not nilpotent")
    return cur


def _split_or_certify(ed):
    """(e, None) with e a nontrivial idempotent total matrix of End(X), or
    (None, J) with J = rad End(X) certified and End/J a field.

    Candidates a - lambda for the basis elements a are tried first; only when
    none splits is J computed.  A commutative End/J goes to ffmat.frobenius:
    its Frobenius map must be injective (J is the whole radical), End/J is a
    field exactly when only F_p is fixed, and a fixed element outside F_p
    splits after a shift.  A noncommutative End/J is split through the
    commutative subalgebra F_p[a], read the same way, for one of
    SPLIT_CANDIDATES seeded random elements a, or this raises.
    """
    p, n = ed.p, ed.x.total_dim
    if ed.dim == 1:  # End = F_p, a field
        return None, ffmat.Subspace.zero(1, p)
    for a in ed.mats:
        e = _fitting_split(a, p)
        if e is not None:
            return e, None
    rad = _max_nil_ideal(ed)
    free = rad.free()
    qmats = ed.mats[free]  # lifts of a basis of End/J

    def residues(ms):
        return rad.residues(ed.coords_of(ms))[:, free]

    prods = np.einsum("aij,bjk->abik", qmats, qmats)
    if not residues((prods - prods.transpose(1, 0, 2, 3)).reshape(-1, n, n) % p).any():
        injective, e = _frobenius_split(qmats, residues, p)
        if not injective:
            raise VerificationFailure("End/J has nilpotents, so J is not the radical")
        return (None, rad) if e is None else (e, None)
    rng = random.Random(0)
    for _ in range(SPLIT_CANDIDATES):
        a = ed.to_mats([[rng.randrange(p) for _ in range(ed.dim)]])[0]
        _, e = _frobenius_split(*ffmat.polynomial_algebra(a, p), p)
        if e is not None:
            return e, None
    raise VerificationFailure(
        "no split of a noncommutative End/J within %d candidates" % SPLIT_CANDIDATES
    )


def _split(ed, e):
    """(em, (I, incl, onto), (I', incl', onto')): the total-matrix idempotent e
    of End(X) as a morphism, checked idempotent, and the images of e and 1 - e,
    each with onto o incl = 1 certified, their dimensions adding up to dim X."""
    x = ed.x
    em = morphism_from_flat(x, x, np.asarray(e).reshape(-1)[ed._inside]).check()
    if (em.compose(em).flat() != em.flat()).any():
        raise VerificationFailure("claimed idempotent is not idempotent")
    parts = []
    for f in (em, identity_morphism(x).add(em.scale(x.p - 1))):
        i, incl, onto = image(f)
        if (onto.compose(incl).flat() != identity_morphism(i).flat()).any():
            raise VerificationFailure("idempotent image retraction failed")
        parts.append((i, incl, onto))
    if sum(i.total_dim for i, _, _ in parts) != x.total_dim:
        raise VerificationFailure("split dimensions do not add up")
    return em, parts[0], parts[1]


def end_radical(x):
    """(EndData, J) for an indecomposable X, J = rad End(X) as decompose certified it."""
    _, rad = x.A.memoized(("decompose", x.key()), lambda: _decompose(x))
    if rad is None:
        raise VerificationFailure("End(X) is only certified local for indecomposable X")
    return EndData(x), rad


def decompose(x):
    """Indecomposable direct summands as (rep, incl, proj) triples.

    The decomposition is certified: each returned projection/inclusion pair
    composes to the identity of the summand, their images sum to X, and each
    summand refused further splitting.  It is memoized per algebra by the
    content of x; the summands are shared, and the inclusions and
    projections are re-based onto x.
    """
    out, _ = x.A.memoized(("decompose", x.key()), lambda: _decompose(x))
    if not out or out[0][1].tgt is x:
        return out
    return tuple((s, Morphism(s, x, u.blocks), Morphism(x, s, r.blocks)) for s, u, r in out)


def _decompose(x):
    """(summands, J): split x once along its verdict and decompose both
    images; J is the certified rad End(X) when x is indecomposable, else None."""
    if x.total_dim == 0:
        return (), None
    ed = EndData(x)
    e, rad = _split_or_certify(ed)
    if e is None:
        return ((x, identity_morphism(x), identity_morphism(x)),), rad
    _, *parts = _split(ed, e)
    if any(i.total_dim == 0 for i, _, _ in parts):
        raise VerificationFailure("trivial split from claimed nontrivial idempotent")
    out = tuple((s, incl.compose(u), r.compose(onto)) for i, incl, onto in parts for s, u, r in decompose(i))
    # certificate: the idempotents incl o proj sum to the identity
    if (sum(u.compose(r).flat() for _, u, r in out) % x.p != identity_morphism(x).flat()).any():
        raise VerificationFailure("summand idempotents do not sum to identity")
    return out, None


def is_isomorphic(x, y):
    """Whether X and Y are isomorphic: by Krull-Schmidt, whether add X = add Y
    with multiplicities, i.e. each isomorphism class of indecomposable
    summands holds as many summands of X as of Y."""
    return x.dim_vector() == y.dim_vector() and all(
        cl.count(0) == cl.count(1) for cl in summand_classes([x, y]))


def _is_iso_indec(x, y):
    """Isomorphism test for modules already known to be indecomposable: some
    v o u with u: X -> Y, v: Y -> X basis maps is invertible, as End(X) is local."""
    if x.dim_vector() != y.dim_vector():
        return False
    rows = _compose_rows(hom_space(x, y), hom_space(y, x), True)
    return any(morphism_from_flat(x, x, r).is_iso() for r in rows)


def iso_classes(reps):
    """Group indecomposable reps into isomorphism classes: lists of indices
    into reps, in order of first appearance."""
    classes = []
    for k, r in enumerate(reps):
        for cl in classes:
            if _is_iso_indec(reps[cl[0]], r):
                cl.append(k)
                break
        else:
            classes.append([k])
    return classes


def summand_classes(mods):
    """The isomorphism classes of the indecomposable summands of all of mods,
    in order of first appearance; each class lists, per member summand, the
    index into mods of the module it came from."""
    owners = [(k, s) for k, m in enumerate(mods) for s, _, _ in decompose(m)]
    return [[owners[i][0] for i in cl] for cl in iso_classes([s for _, s in owners])]


# --- right minimality and right equivalence ----------------------------------


def right_minimalize(f):
    """(fmin, split) with f = fmin o split, fmin right minimal, split a split epi.

    Each round splits off the image of a nonzero idempotent e with f o e = 0:
    the Fitting projection of a non-nilpotent h in K0 = {h : f o h = 0}, a
    polynomial in h without constant term, so e stays in K0.  A non-nil K0
    always has a non-nilpotent basis element, since nilpotents span only a
    nil algebra; "right minimal" is returned once the power chain of K0
    proves it nil.
    """
    p = f.p
    split_acc = identity_morphism(f.src)
    cur = f
    for _ in range(f.src.total_dim + 1):
        if cur.src.total_dim == 0:
            break
        ed = EndData(cur.src)
        cols = _compose_rows(ed.basis, cur, True).T
        k0_mats = ed.to_mats(ffmat.kernel(cols, p))
        e = next((e for e in (_fitting_projection(h, p) for h in k0_mats) if e.any()), None)
        if e is None:
            if not is_nilpotent(k0_mats, p):
                raise VerificationFailure("K0 is not nil, yet none of its basis elements splits")
            break
        em, _, (_, uk, rk) = _split(ed, e)  # peel off Im e, keep Im(1 - e)
        if cur.compose(em).flat().any():
            raise VerificationFailure("idempotent not killed by the map")
        cur = cur.compose(uk)
        split_acc = rk.compose(split_acc)
    else:
        raise VerificationFailure("right minimalization did not terminate")
    return cur, split_acc


def _factor(x, z, g, f, after):
    """(True, h) for a map h: X -> Z with f = g o h (after) or f = h o g, or
    (False, None), from one solve of [eqs; (g o reads)^T] u = [0; f] on the
    generator system of (X, Z): a solution u is the map u @ reads.  The
    witness is certified to be a morphism that composes back to f."""
    p = f.p
    eqs, reads = _generator_system(x, z)
    comp = _compose_rows((x, z, reads), g, after)
    u = ffmat.solve(np.concatenate([eqs, comp.T]), np.concatenate([np.zeros(len(eqs), dtype=INT), f.flat()]), p)
    if u is None:
        return False, None
    h = morphism_from_flat(x, z, u @ reads % p)
    if not _intertwine(x, z, h.blocks) or ((g.compose(h) if after else h.compose(g)).flat() != f.flat()).any():
        raise VerificationFailure("%s(f, g): the solved h is not a morphism with f = %s, for f = %r and g = %r"
                                  % ("right_leq" if after else "left_leq", "g o h" if after else "h o g", f, g))
    return True, h


def right_leq(f, g):
    """(exists h with f = g o h, h or None), from one solve on the generator
    system of (f.src, g.src); no Hom basis is built."""
    return _factor(f.src, g.src, g, f, True)


def right_equivalent(f, g):
    return right_leq(f, g)[0] and right_leq(g, f)[0]


def left_leq(f, g):
    """(exists h with f = h o g, h or None), f: A->B, g: A->C, from one solve
    on the generator system of (g.tgt, f.tgt); no Hom basis is built."""
    return _factor(g.tgt, f.tgt, g, f, False)


def is_split_epi(g):
    return right_leq(identity_morphism(g.tgt), g)[0]


def is_split_mono(u):
    return left_leq(identity_morphism(u.src), u)[0]


def join_map(f, g):
    algebra = f.src.A
    d, incls, projs = direct_sum(algebra, [f.src, g.src])
    return f.compose(projs[0]).add(g.compose(projs[1]))
