"""Helpers shared by the test modules."""

import functools
import itertools
import random

import numpy as np

from auskit import catalog, determine, factor, ffmat, kronecker, rep
from auskit.errors import CapExceeded, VerificationFailure
from auskit.ffmat import (INT, Subspace, amod, gaussian_binomial, identity, inv, inv_mod, kernel,
                          kernel_from_rref, rank, rref, zeros)


def rand_mat(rng, m, n, p):
    """An m x n matrix over F_p with entries drawn from rng (a random.Random)."""
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=INT)


def rebased(x, rng):
    """x in a random basis at each vertex."""
    p = x.p
    s = []
    for d in x.dims:
        while True:
            m = rand_mat(rng, d, d, p).reshape(d, d)
            if d == 0 or inv(m, p) is not None:
                s.append(m)
                break
    mats = {}
    for ai, (_, u, v) in enumerate(x.A.quiver.arrows):
        su_inv = inv(s[u], p) if x.dims[u] else s[u]
        mats[ai] = (s[v] @ x.mats[ai] @ su_inv) % p
    return rep.Rep(x.A, x.dims, mats)


class BasisHom:
    """Hom(X, Y) on any independent list of maps, read through one RREF of
    [B | 1] = [T B | T]: T B has its identity columns at the pivots of B, so
    T inverts B there, and a pivot in the right half means B is dependent.
    A reference reader for the canonical rows of rep.hom_space, and an
    End(X) basis that tests hand to rep.EndData in place of end_algebra."""

    def __init__(self, x, y, maps):
        self.x, self.y, self.maps = x, y, list(maps)
        n, w = len(self.maps), sum(a * b for a, b in zip(x.dims, y.dims))
        self.matrix = np.array([f.flat() for f in self.maps], dtype=INT).reshape(n, w)
        r, self.piv = rref(np.concatenate([self.matrix, identity(n)], axis=1), x.p)
        if self.piv and self.piv[-1] >= w:
            raise VerificationFailure("hom basis is linearly dependent")
        self.inv = r[:, w:]

    def __len__(self):
        return len(self.maps)

    def coords(self, flats):
        """Coordinate rows of a stack of flattened maps, checked to lie in the span."""
        flats = np.asarray(flats, dtype=INT).reshape(len(flats), self.matrix.shape[1])
        c = (flats[:, self.piv] @ self.inv) % self.x.p
        if ((c @ self.matrix) % self.x.p != flats).any():
            raise VerificationFailure("map outside Hom(X, Y)")
        return c

    def element(self, coords):
        """The morphism with the given coordinates."""
        return rep.morphism_from_flat(self.x, self.y, (np.asarray(coords, dtype=INT) @ self.matrix) % self.x.p)


def _counting(fn, calls):
    """fn, recording its calls: proves that a monkeypatched function was reached
    and not bypassed by a memoized answer."""
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def _twin(x):
    """A distinct Rep with the same content as x."""
    return rep.Rep(x.A, x.dims, x.mats)


def fresh_instance(name):
    """(A, C, Y) of a catalog instance over a newly parsed copy of its
    algebra, whose answer memo is empty: for tests that count the work of a
    cold computation, which earlier tests may have memoized in the shared
    catalog algebra."""
    inst = catalog.get_instance(name)
    A = catalog.load_catalog_algebra.__wrapped__(inst["algebra"])
    return A, catalog.build_module(A, inst["c"]), catalog.build_module(A, inst["y"])


def mul_vec(A, u, v):
    """Product of two elements of the algebra A in basis coordinates."""
    return np.einsum("i,j,ijl->l", amod(u, A.p), amod(v, A.p), A.mul_table) % A.p


def nf(A, path):
    """Normal form of an arbitrary path of the algebra A as a basis vector."""
    src, names = path
    pt = (src, tuple(names))
    if pt in A._nf:
        return A._nf[pt].copy()
    v = zeros(1, A.dim)[0]
    v[A._bindex[(src, ())]] = 1
    for ai in reversed(names):
        v = (A._arrow_left[ai] @ v) % A.p
    return v


def yoneda(A, v, module, vec):
    """Morphism P(v) -> module sending e_v to vec (an element of module at v)."""
    v = A._vertex_of(v)
    vec = amod(vec, A.p).reshape(module.dims[v])
    return rep.Morphism(A.proj(v), module, [(module.path_stack(v, w) @ vec).T for w in range(A.nv)])


def poly_eval_mat(c, a, p):
    """The polynomial with ascending coefficients c at the square matrix a (Horner)."""
    n = a.shape[0]
    out = zeros(n, n)
    for coeff in reversed(list(c)):
        out = (out @ a + int(coeff) * identity(n)) % p
    return out


def rref_reference(a, p):
    """Reduced row echelon form by a numpy elimination, one column at a time;
    a reference oracle for ffmat.rref.  Returns (R, pivot_columns)."""
    r = amod(a, p).copy()
    if r.ndim != 2:
        r = r.reshape(1, -1)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        if r[row, col] != 1:
            r[row] = (r[row] * inv_mod(r[row, col], p)) % p
        colv = r[:, col].copy()
        colv[row] = 0
        others = np.nonzero(colv)[0]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


# --- the solvers of ffmat, each its own elimination of [a | b]: reference oracles


def solve_all_reference(a, b, p):
    """General solution of a @ x = b: (particular, kernel_rows), or None.

    The particular solution is the canonical one with all free variables
    set to zero, so repeated calls are reproducible.  A reference oracle for
    ffmat.solve_all.
    """
    a = np.asarray(a, dtype=INT)
    n = a.shape[1]
    aug = np.concatenate([a, np.reshape(b, (-1, 1))], axis=1)
    r, piv = rref(aug, p)
    if n in piv:
        return None
    x0 = zeros(1, n)[0]
    for i, c in enumerate(piv):
        x0[c] = r[i, n]
    ker = kernel_from_rref(r[:, :n], piv, n, p)
    return x0, ker


def solve_mat_reference(a, b, p):
    """Solve a @ x = b columnwise (b a matrix); None if any column fails.
    A reference oracle for ffmat.solve_mat."""
    a = np.asarray(a, dtype=INT)
    n = a.shape[1]
    k = np.shape(b)[1]
    r, piv = rref(np.concatenate([a, b], axis=1), p)
    if piv and piv[-1] >= n:
        return None
    x = zeros(n, k)
    for i, c in enumerate(piv):
        x[c] = r[i, n:]
    return x


def inv_reference(a, p):
    """Matrix inverse; None if singular.  A reference oracle for ffmat.inv."""
    a = np.asarray(a, dtype=INT)
    n = a.shape[0]
    r, piv = rref(np.concatenate([a, identity(n)], axis=1), p)
    if piv != list(range(n)):
        return None
    return r[:, n:].copy()


def enumerate_subspaces(n, p, dim=None, cap=10 ** 6):
    """All subspaces of F_p^n (optionally of a fixed dimension).

    Enumerated directly by echelon pattern: choice of pivot columns plus the
    free entries to the right of each pivot.  Deterministic order.
    """
    dims = range(n + 1) if dim is None else [dim]
    total = sum(gaussian_binomial(n, d, p) for d in dims)
    if total > cap:
        raise CapExceeded("subspace enumeration: %d > cap %d" % (total, cap))
    out = []
    for d in dims:
        for piv in itertools.combinations(range(n), d):
            free = [
                (i, j)
                for i in range(d)
                for j in range(piv[i] + 1, n)
                if j not in piv
            ]
            for vals in itertools.product(range(p), repeat=len(free)):
                b = zeros(d, n)
                for i in range(d):
                    b[i, piv[i]] = 1
                for (i, j), v in zip(free, vals):
                    b[i, j] = v
                out.append(Subspace.from_rref(b, piv, n, p))
    return out


def vectors(sub):
    """All p^dim member vectors of a Subspace (deterministic order)."""
    for coeffs in itertools.product(range(sub.p), repeat=sub.dim):
        yield (np.array(coeffs, dtype=INT) @ sub.B) % sub.p


def is_submodule(gh, sub):
    """Whether a Subspace of Hom(C, Y) coordinates is closed under the
    End(C)-action of the GammaHom gh."""
    return not sub.residues(np.concatenate([sub.B] + [sub.B @ m.T for m in gh.act])).any()


@functools.lru_cache(maxsize=None)
def catalog_lattice(name):
    """The FactorizationLattice of a catalog instance, built once per session
    without its certificates; callers must not change it."""
    _, c, y = catalog.resolve_instance(name)
    return factor.FactorizationLattice.build(c, y, certify=False)


def _kron2_pair(p, c_parts, y_parts):
    """(C, Y) over the Kronecker algebra with two arrows over F_p, each a direct
    sum of kP, kQ and kR modules given as (family, *arguments)."""
    A = kronecker.kronecker_algebra(2, p)
    build = {"P": kronecker.kP, "Q": kronecker.kQ, "R": kronecker.kR}
    return [rep.direct_sum(A, [build[k](A, *args) for k, *args in parts])[0]
            for parts in (c_parts, y_parts)]


# --- decomposition by a walk over single splits: a reference oracle ----------


def _verified_idempotent(ed, e):
    """The endomorphism with total matrix e, checked to be an idempotent morphism."""
    f = rep.morphism_from_flat(ed.x, ed.x, np.asarray(e).reshape(-1)[ed._inside]).check()
    if (f.compose(f).flat() != f.flat()).any():
        raise VerificationFailure("claimed idempotent is not idempotent")
    return f


def _idempotent_image(e):
    """(I, incl, onto) for the image of an idempotent endomorphism e, with
    onto o incl = 1_I certified, so that I is a direct summand."""
    i, incl, onto = rep.image(e)
    if (onto.compose(incl).flat() != rep.identity_morphism(i).flat()).any():
        raise VerificationFailure("idempotent image retraction failed")
    return i, incl, onto


def decompose_reference(x):
    """rep.decompose as a walk down the tree of splits, carrying each node's
    inclusion into x and projection from x, with no memo: every node asks
    rep._split_or_certify afresh and splits along e and 1 - e by hand."""
    out = []

    def walk(y, incl_to_x, proj_from_x):
        if y.total_dim == 0:
            return
        ed = rep.EndData(y)
        e, _ = rep._split_or_certify(ed)
        if e is None:
            out.append((y, incl_to_x, proj_from_x))
            return
        em = _verified_idempotent(ed, e)
        i1, u1, r1 = _idempotent_image(em)
        i2, u2, r2 = _idempotent_image(rep.identity_morphism(y).add(em.scale(y.p - 1)))
        if i1.total_dim == 0 or i2.total_dim == 0:
            raise VerificationFailure("trivial split from claimed nontrivial idempotent")
        walk(i1, incl_to_x.compose(u1), r1.compose(proj_from_x))
        walk(i2, incl_to_x.compose(u2), r2.compose(proj_from_x))

    walk(x, rep.identity_morphism(x), rep.identity_morphism(x))
    total = rep.zero_morphism(x, x)
    for (_, u, r) in out:
        total = total.add(u.compose(r))
    if (total.flat() != rep.identity_morphism(x).flat()).any():
        raise VerificationFailure("summand idempotents do not sum to identity")
    return tuple(out)


# --- the definitional check one probe at a time: a reference oracle ---------


def default_probes(f, c, count=20, seed=0):
    """A seeded reference probe list for the definitional check: count
    distinct draws, each a basis map of Hom(W, Y), W among f.src, C, the
    projectives and Y, or the sum of two with the same source."""
    y = f.tgt
    A = y.A
    sources = [f.src, c] + [A.proj(v) for v in range(A.nv)] + [y]
    probes = []
    for w in sources:
        probes.extend(rep.hom_space(w, y))
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(20 * count):
        if not probes or len(out) >= count:
            break
        g = probes[rng.randrange(len(probes))]
        if rng.random() < 0.5 and len(probes) > 1:
            h = probes[rng.randrange(len(probes))]
            if g.src.key() == h.src.key():
                g = g.add(h)
        key = (g.src.key(), g.flat().tobytes())
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def definitional_check_reference(f, c, probes=None, count=20, seed=0):
    """determine.definitional_check on given probes, one probe at a time:
    eta(g) as a Subspace of the GammaHom of (C, Y), compared by leq with
    eta(f), and right_leq(g, f) solved per probe.  With no probes it reads
    the seeded draws of default_probes, a sample, not the exact check."""
    gh = determine.GammaHom(c, f.tgt)
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


# --- the factorization certificates on all pairs: reference oracles ----------


def check_order_isomorphism_reference(fl):
    """FactorizationLattice.check_order_isomorphism on all n^2 pairs."""
    n = len(fl.classes)
    for i in range(n):
        for j in range(n):
            ok, _ = rep.right_leq(fl.classes[i].f, fl.classes[j].f)
            if ok != bool(fl.lat.leq[i, j]):
                raise VerificationFailure("factorization order differs from eta order")


def pullback(f, g):
    """(P, to_src_f, to_src_g) universal commutative square over f, g: the
    kernel of (f, -g) on the direct sum of the sources."""
    d, incls, projs = rep.direct_sum(f.src.A, [f.src, g.src])
    h = f.compose(projs[0]).add(g.compose(projs[1]).scale(f.p - 1))
    k, incl = rep.kernel(h)
    px = projs[0].compose(incl)
    pz = projs[1].compose(incl)
    if (f.compose(px).flat() != g.compose(pz).flat()).any():
        raise VerificationFailure("pullback square does not commute")
    return k, px, pz


def meet_map(f, g):
    """The map of the pullback of f and g to their common target."""
    k, px, pz = pullback(f, g)
    return f.compose(px)


def check_meets_reference(fl):
    """FactorizationLattice.check_meets with a pullback for every pair."""
    n = len(fl.classes)
    for i in range(n):
        for j in range(i):
            m = meet_map(fl.classes[i].f, fl.classes[j].f)
            expect = fl.lat.nodes[fl.lat.meet(i, j)]
            if fl.gh.eta(m).key() != expect.key():
                raise VerificationFailure("meet of classes does not match eta meet")


# --- the F_p-subspace candidates: a reference for the End(K)-submodules --------


def ext_choices(ed):
    """All subspaces of Ext^1, each as a list of cocycle coordinate rows."""
    reps_ = np.array(ed.class_reps(), dtype=INT).reshape(-1, len(ed.cocycles))
    return [list((sub.B @ reps_) % ed.p) for sub in enumerate_subspaces(len(reps_), ed.p)]


def subspace_extensions(eds, A):
    """Every tuple of F_p-subspaces of the Ext^1(Y', K_i): the reference
    enumeration of the candidates' extensions, an extensions argument of
    factor._candidates, which the build calls with one per End(K)-submodule."""
    return itertools.product(*map(ext_choices, eds))


def subspace_classes(c, y):
    """{eta key: RightClass} from the F_p-subspace candidates, the first
    candidate of each key right minimalized: the reference classes for
    FactorizationLattice.build."""
    gh = determine.GammaHom(c, y)
    found = {}
    for f, extended in factor._candidates(gh, y, subspace_extensions):
        sub = gh.eta(f)
        if sub.key() not in found:
            found[sub.key()] = factor.RightClass(rep.right_minimalize(f)[0] if extended else f, sub)
    return found


def class_facts(rc):
    """The class facts of a RightClass that classes.txt records, less the
    fingerprints, which depend on the representative."""
    return rc.source.dim_vector(), rc.kernel.dim_vector(), rc.is_epi, rc.is_mono


# --- polynomials mod p by coefficient lists: reference oracles for ffmat -----


def poly_trim(c):
    c = np.asarray(c, dtype=INT)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return np.array([0], dtype=INT)
    return c[: nz[-1] + 1].copy()


def poly_add(a, b, p):
    n = max(len(a), len(b))
    out = zeros(1, n)[0]
    out[: len(a)] += a
    out[: len(b)] += b
    return poly_trim(out % p)


def poly_scale(a, s, p):
    return poly_trim((np.asarray(a, dtype=INT) * (s % p)) % p)


def charpoly_reference(a, p):
    """det(xI - A) over F_p, ascending coefficients, length n+1 (monic): a
    similarity reduction to upper Hessenberg form and its two-term recurrence.
    A reference oracle for ffmat.charpoly, on one square matrix."""
    a = amod(a, p).copy()
    n = a.shape[0]
    if n == 0:
        return np.array([1], dtype=INT)
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if a[i, j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            a[[j + 1, piv]] = a[[piv, j + 1]]
            a[:, [j + 1, piv]] = a[:, [piv, j + 1]]
        s = inv_mod(a[j + 1, j], p)
        for i in range(j + 2, n):
            if a[i, j]:
                t = (a[i, j] * s) % p
                a[i] = (a[i] - t * a[j + 1]) % p
                a[:, j + 1] = (a[:, j + 1] + t * a[:, i]) % p
    # p_k(x) = (x - a_kk) p_{k-1}(x) - sum_i a_{i,k} (prod subdiag) p_{i-1}(x)
    polys = [np.array([1], dtype=INT)]
    for k in range(1, n + 1):
        pk = poly_add(
            np.concatenate([[0], polys[k - 1]]),
            poly_scale(polys[k - 1], -int(a[k - 1, k - 1]), p),
            p,
        )
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = (prod * a[i, i - 1]) % p
            if a[i - 1, k - 1] and prod:
                pk = poly_add(
                    pk, poly_scale(polys[i - 1], -int(a[i - 1, k - 1] * prod), p), p
                )
        polys.append(pk)
    out = zeros(1, n + 1)[0]
    out[: len(polys[n])] = polys[n]
    return out


def minpoly_reference(a, p):
    """Monic minimal polynomial, ascending coefficients: the first power of a
    that solve_all_reference writes in the lower ones.  A reference oracle for
    ffmat.minpoly."""
    a = amod(a, p)
    n = a.shape[0]
    if n == 0:
        return np.array([1], dtype=INT)
    cur = identity(n)
    stack = [cur.reshape(-1)]
    for k in range(1, n + 1):
        cur = (cur @ a) % p
        target = cur.reshape(-1)
        sol = solve_all_reference(np.array(stack, dtype=INT).T, target, p)
        if sol is not None:
            coeffs = zeros(1, k + 1)[0]
            coeffs[:k] = (-sol[0]) % p
            coeffs[k] = 1
            return coeffs
        stack.append(target)
    raise VerificationFailure("minimal polynomial has degree above n")


# --- the Kronecker shape table, one loop nest per family pair -----------------


def frobenius_reference(basis, coords, p):
    """ffmat.frobenius with r^p formed by p - 1 products."""
    powers = basis
    for _ in range(p - 1):
        powers = np.einsum("aij,ajk->aik", powers, basis) % p
    frob = coords(powers)
    fixed = kernel((frob.T - identity(len(frob))) % p, p)
    return rank(frob, p) == len(frob), fixed, coords(identity(basis.shape[-1])[None])[0]


def verify_table_reference(p, max_sum=3, max_t=3):
    """The (C, Y) shape table as seven loop nests, one per family pair; a
    reference oracle for kronecker.verify_table.  Returns (rows, all_ok)."""
    A = kronecker.kronecker_algebra(2, p)
    rows = []
    tubes = list(range(p)) + ["inf"] + list(ffmat.monic_irreducibles(p, 2))[:1]

    for i in range(max_sum + 1):
        for j in range(i, max_sum + 1):
            if i + j > max_sum and (i, j) != (0, max_sum):
                continue
            rows.append(
                kronecker._shape_row(
                    A, kronecker.kP(A, i), kronecker.kP(A, j), "P%d" % i, "P%d" % j,
                    j - i + 1, ("G", j - i + 1, p),
                )
            )
    for i in range(2):
        for lab in tubes:
            d = kronecker.label_degree(lab)
            for t in range(1, max_t + 1):
                if t * d > max_t:
                    continue
                rows.append(
                    kronecker._shape_row(
                        A, kronecker.kP(A, i), kronecker.kR(A, lab, t), "P%d" % i, "R[%s,%d]" % (lab, t),
                        t * d, ("G", t * d, p),
                    )
                )
    for i in range(max_sum + 1):
        for j in range(max_sum + 1):
            if i + j > max_sum:
                continue
            rows.append(
                kronecker._shape_row(
                    A, kronecker.kP(A, i), kronecker.kQ(A, j), "P%d" % i, "Q%d" % j,
                    i + j, ("G", i + j, p),
                )
            )
    for lab in tubes:
        d = kronecker.label_degree(lab)
        for s in range(1, max_t + 1):
            for t in range(1, max_t + 1):
                if s * d > max_t or t * d > max_t:
                    continue
                rows.append(
                    kronecker._shape_row(
                        A, kronecker.kR(A, lab, s), kronecker.kR(A, lab, t),
                        "R[%s,%d]" % (lab, s), "R[%s,%d]" % (lab, t),
                        min(s, t) * d, ("I", min(s, t)),
                    )
                )
    # distinct tubes have no homomorphisms between them
    rows.append(
        kronecker._shape_row(
            A, kronecker.kR(A, tubes[0], 1), kronecker.kR(A, tubes[1], 1),
            "R[%s,1]" % tubes[0], "R[%s,1]" % tubes[1], 0, ("I", 0),
        )
    )
    for lab in tubes:
        d = kronecker.label_degree(lab)
        for s in range(1, max_t + 1):
            if s * d > max_t:
                continue
            for j in range(max_sum + 1):
                rows.append(
                    kronecker._shape_row(
                        A, kronecker.kR(A, lab, s), kronecker.kQ(A, j),
                        "R[%s,%d]" % (lab, s), "Q%d" % j, s * d, ("I", s),
                    )
                )
    for j in range(max_sum + 1):
        for i in range(j, max_sum + 1):
            if i + j > max_sum and (j, i) != (0, max_sum):
                continue
            rows.append(
                kronecker._shape_row(
                    A, kronecker.kQ(A, i), kronecker.kQ(A, j), "Q%d" % i, "Q%d" % j,
                    i - j + 1, ("G", i - j + 1, p),
                )
            )
    return rows, all(r["ok"] for r in rows)
