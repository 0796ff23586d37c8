"""Quiver path algebras with relations over a prime field.

An Algebra is kQ/I for a finite quiver Q and an ideal I presented by signed
sums of parallel paths.  A monomial basis is found by growing path length
until every path of the current maximal length reduces into shorter ones;
products are then tabulated once and checked for associativity.

Paths are pairs (src_vertex, names) where names is a tuple of arrow indices
in composition order: the leftmost arrow is applied last, so the path written
"a*b" acts as "first b, then a".
"""

import inspect
import re

import numpy as np

from . import ar, rep
from .errors import BadRelation, CapExceeded, NotFiniteDimensional, ParseError
from .ffmat import INT, Subspace, is_prime, zeros

MAX_PATH_LEN = 64  # longest path tried before an algebra is refused as infinite
MAX_PATHS = 200000  # most paths enumerated before an algebra is refused
MAX_FIELD = 2 ** 16  # smallest field size refused: below it the int64 arithmetic of ffmat is exact
MAX_MODULE_DIM = 1024  # largest direct sum a module expression builds; the catalog needs at most 28


class Quiver:
    """Finite quiver: named vertices and named arrows (name, src, tgt)."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex name")
        self.arrows = []
        seen = set()
        nv = len(self.vertices)
        for name, u, v in arrows:
            if name in seen:
                raise ParseError("duplicate arrow name %r" % name)
            seen.add(name)
            u, v = int(u), int(v)
            if not (0 <= u < nv and 0 <= v < nv):
                raise ParseError("arrow %r endpoints out of range" % name)
            self.arrows.append((name, u, v))

    def vertex_index(self, name):
        try:
            return self.vertices.index(name)
        except ValueError:
            raise ParseError("unknown vertex %r" % name)

    def arrow_index(self, name):
        for i, (nm, _, _) in enumerate(self.arrows):
            if nm == name:
                return i
        raise ParseError("unknown arrow %r" % name)

    def has_oriented_cycle(self):
        nv = len(self.vertices)
        out = [[] for _ in range(nv)]
        for _, u, v in self.arrows:
            out[u].append(v)
        color = [0] * nv  # 0 unseen, 1 on stack, 2 done

        def visit(v):
            color[v] = 1
            for w in out[v]:
                if color[w] == 1:
                    return True
                if color[w] == 0 and visit(w):
                    return True
            color[v] = 2
            return False

        return any(color[v] == 0 and visit(v) for v in range(nv))

    def __repr__(self):
        return "Quiver(%s; %s)" % (
            " ".join(self.vertices),
            ", ".join("%s:%s->%s" % (n, self.vertices[u], self.vertices[v]) for n, u, v in self.arrows),
        )


def path_target(quiver, path):
    """Target vertex of a path, validating composability along the way."""
    v, names = path
    for ai in reversed(names):
        _, u, w = quiver.arrows[ai]
        if u != v:
            raise BadRelation("path is not composable")
        v = w
    return v


class Algebra:
    """kQ/I with a tabulated monomial basis.

    relations: list of relations, each a list of (coef, path) with all paths
    parallel (same source and target vertex) and of length >= 1.

    Each algebra keeps one answer memo for its modules (see ``memoized``),
    alive as long as the algebra, with no eviction.
    """

    def __init__(self, quiver, p, relations, name=""):
        p = int(p)
        if p >= MAX_FIELD:
            raise ParseError("field size %d is not below %d" % (p, MAX_FIELD))
        if not is_prime(p):
            raise ParseError("field size %d is not prime" % p)
        self.quiver = quiver
        self.p = p
        self.name = name
        self._op = None
        self._memo = {}
        self._memo_counts = {}  # kind -> [hits, misses]
        self.relations = self._normalize_relations(relations)
        self._build_basis()
        self._build_mult()
        self._self_check()

    # -- construction ----------------------------------------------------

    def _normalize_relations(self, relations):
        out = []
        for rel in relations:
            terms = []
            sig = None
            for coef, path in rel:
                coef = int(coef) % self.p
                if coef == 0:
                    continue
                src, names = path
                if len(names) < 1:
                    raise BadRelation("relation terms must have length >= 1")
                tgt = path_target(self.quiver, path)
                if sig is None:
                    sig = (src, tgt)
                elif sig != (src, tgt):
                    raise BadRelation("relation terms are not parallel")
                terms.append((coef, (src, tuple(int(a) for a in names))))
            if terms:
                out.append(terms)
        if self.quiver.has_oriented_cycle():
            for rel in out:
                lens = {len(path[1]) for _, path in rel}
                if len(lens) > 1:
                    raise BadRelation(
                        "relations mixing path lengths are not supported on quivers with oriented cycles"
                    )
        return out

    def _build_basis(self):
        q = self.quiver
        nv = len(q.vertices)
        by_src = [[] for _ in range(nv)]  # arrows grouped by source vertex
        for ai, (_, u, v) in enumerate(q.arrows):
            by_src[u].append((ai, v))

        # paths[l] = list of (path, tgt)
        paths = [[((v, ()), v) for v in range(nv)]]
        maxrel = max((max(len(t[1][1]) for t in rel) for rel in self.relations), default=0)

        L = 0
        while True:
            L += 1
            new = []
            for path, tgt in paths[L - 1]:
                src, names = path
                for ai, w in by_src[tgt]:
                    new.append(((src, (ai,) + names), w))
            paths.append(new)
            allp = [pt for lvl in paths for pt in lvl]
            if len(allp) > MAX_PATHS:
                raise NotFiniteDimensional("path count exceeds cap (%d)" % MAX_PATHS)
            if L < maxrel:
                if L >= MAX_PATH_LEN:
                    raise NotFiniteDimensional("relation terms exceed length cap %d" % MAX_PATH_LEN)
                continue

            # column order: longest paths first, then deterministic tie-break
            order = sorted(range(len(allp)), key=lambda i: (-len(allp[i][0][1]), allp[i][0]))
            pos = {allp[i][0]: k for k, i in enumerate(order)}
            tgt_of = {pt[0]: pt[1] for pt in allp}
            ncols = len(allp)

            rows = []
            for rel in self.relations:
                rsrc = rel[0][1][0]
                rtgt = tgt_of[rel[0][1]]
                m = max(len(t[1][1]) for t in rel)
                lefts = [pt for pt, t in allp if pt[0] == rtgt]
                rights = [pt for pt, t in allp if t == rsrc]
                for u in lefts:
                    for v in rights:
                        if len(u[1]) + len(v[1]) + m > L:
                            continue
                        row = zeros(1, ncols)[0]
                        for coef, t in rel:
                            full = (v[0], u[1] + t[1] + v[1])
                            row[pos[full]] = (row[pos[full]] + coef) % self.p
                        rows.append(row)
            mat = np.array(rows, dtype=INT).reshape(-1, ncols)
            ideal = Subspace(mat, ncols, self.p)
            pivset = set(ideal.pivots)
            if all(pos[pt] in pivset for pt, _ in paths[L]):
                break
            if L >= MAX_PATH_LEN:
                raise NotFiniteDimensional("no basis stabilization up to length %d" % MAX_PATH_LEN)

        basis = sorted((allp[order[k]][0] for k in ideal.free()), key=lambda pt: (len(pt[1]), pt))
        self.basis = basis
        self.dim = len(basis)
        self._bindex = {pt: i for i, pt in enumerate(basis)}
        self.basis_src = [pt[0] for pt in basis]
        self.basis_tgt = [tgt_of[pt] for pt in basis]
        self._proj_paths = [tuple(tuple(pt for pt, s, t in zip(basis, self.basis_src, self.basis_tgt)
                                        if (s, t) == (v, w)) for w in range(nv)) for v in range(nv)]
        self._path_tgt = tgt_of

        # normal form of every enumerated path: the residue of its unit
        # vector mod the ideal, read at the basis columns
        units = np.eye(ncols, dtype=INT)[[pos[pt] for pt, _ in allp]]
        nf = ideal.residues(units)[:, [pos[pt] for pt in basis]]
        self._nf = dict(zip((pt for pt, _ in allp), nf))

    def _build_mult(self):
        d, p = self.dim, self.p
        self._arrow_left = []
        for ai, (_, u, _) in enumerate(self.quiver.arrows):
            cols = [j for j, t in enumerate(self.basis_tgt) if t == u]
            m = zeros(d, d)
            m[:, cols] = self._nf_block([(self.basis[j][0], (ai,) + self.basis[j][1]) for j in cols],
                                        self.basis)
            self._arrow_left.append(m)
        # b_i b_j for every j at once: the diagonal of the basis paths that end
        # where b_i starts, then b_i's arrows applied to it, rightmost first
        tgt = np.array(self.basis_tgt)
        mats = []
        for src, names in self.basis:
            m = np.eye(d, dtype=INT) * (tgt == src)
            for ai in reversed(names):
                m = (self._arrow_left[ai] @ m) % p
            mats.append(m.T)
        self.mul_table = np.array(mats, dtype=INT).reshape(d, d, d)
        self.unit = np.array([not names for _, names in self.basis], dtype=INT)

    def _nf_block(self, paths, rows):
        """The normal forms of paths as columns, read at the basis paths rows.

        The normal form of a path lies in the span of the basis paths parallel
        to it, so rows holding those gives the whole of it."""
        nf = np.array([self._nf[pt] for pt in paths], dtype=INT).reshape(len(paths), self.dim)
        return nf[:, [self._bindex[pt] for pt in rows]].T

    def _self_check(self):
        d, p = self.dim, self.p
        m = self.mul_table
        # (b_i b_j) b_k = b_i (b_j b_k), one i at a time: d^3 entries, not d^4
        for mi in m:
            lhs = np.einsum("jm,mkl->jkl", mi, m) % p
            rhs = np.einsum("jkm,ml->jkl", m, mi) % p
            if (lhs != rhs).any():
                raise BadRelation("multiplication table is not associative")
        left = np.einsum("i,ijl->jl", self.unit, m) % p
        right = np.einsum("j,ijl->il", self.unit, m) % p
        if (left != np.eye(d, dtype=INT)).any() or (right != np.eye(d, dtype=INT)).any():
            raise BadRelation("unit is not a two-sided identity")

    # -- basic queries -----------------------------------------------------

    @property
    def nv(self):
        return len(self.quiver.vertices)

    def _vertex_of(self, v):
        return v if isinstance(v, int) else self.quiver.vertex_index(v)

    # -- the answer memo ---------------------------------------------------

    def memoized(self, key, compute):
        """The answer stored under key, from compute() on the first call.

        Keys start with their kind.  Module answers have content keys
        (kind, Rep.key(), ...), so every module with the same content shares
        one answer; Reps are never mutated, which keeps the keys valid.  The
        projectives and injectives are keyed by vertex.  An exception from
        compute() stores nothing, so only answers that passed their
        certificates are kept.
        """
        counts = self._memo_counts.setdefault(key[0], [0, 0])
        if key in self._memo:
            counts[0] += 1
            return self._memo[key]
        counts[1] += 1
        val = self._memo[key] = compute()
        return val

    def memo_stats(self):
        """{kind: (hits, misses)} of the answer memo."""
        return {kind: tuple(c) for kind, c in self._memo_counts.items()}

    # -- distinguished modules ----------------------------------------------

    def proj_paths(self, v):
        """Per-vertex ordered basis paths of P(v): paths with source v (a
        tuple of tuples, tabulated with the basis)."""
        return self._proj_paths[self._vertex_of(v)]

    def proj(self, v):
        """Indecomposable projective P(v): paths starting at v."""
        v = self._vertex_of(v)
        return self.memoized(("proj", v), lambda: self._proj(v))

    def _proj(self, v):
        pp = self.proj_paths(v)
        return rep.Rep(self, [len(ps) for ps in pp],
                       {ai: self._nf_block([(v, (ai,) + pt[1]) for pt in pp[u]], pp[w])
                        for ai, (_, u, w) in enumerate(self.quiver.arrows)})

    def simple(self, v):
        v = self._vertex_of(v)
        dims = [1 if w == v else 0 for w in range(self.nv)]
        mats = {ai: zeros(dims[w], dims[u]) for ai, (_, u, w) in enumerate(self.quiver.arrows)}
        return rep.Rep(self, dims, mats)

    def inj(self, v):
        """Indecomposable injective Q(v): dual of the opposite projective."""
        v = self._vertex_of(v)
        return self.memoized(("inj", v), lambda: ar.dual(self.opposite().proj(v)))

    def opposite(self):
        if self._op is not None:
            return self._op
        qop = Quiver(self.quiver.vertices, [(n, v, u) for n, u, v in self.quiver.arrows])
        rels = []
        for rel in self.relations:
            terms = []
            for coef, (src, names) in rel:
                tgt = self._path_tgt[(src, names)]
                terms.append((coef, (tgt, tuple(reversed(names)))))
            rels.append(terms)
        op = Algebra(qop, self.p, rels, name=self.name + "^op" if self.name else "")
        op._op = self
        self._op = op
        return op

    def right_mult(self, ai):
        """Right multiplication by arrow ai as a morphism P(tgt) -> P(src)."""
        _, u, w = self.quiver.arrows[ai]
        ppw, ppu = self.proj_paths(w), self.proj_paths(u)
        blocks = [self._nf_block([(u, pt[1] + (ai,)) for pt in ppw[y]], ppu[y]) for y in range(self.nv)]
        return rep.Morphism(self.proj(w), self.proj(u), blocks)

    def __repr__(self):
        return "Algebra(%s, p=%d, dim=%d)" % (self.name or self.quiver, self.p, self.dim)


# -- text formats ------------------------------------------------------------


_TERM = r"[A-Za-z0-9_]+(?:\*[A-Za-z0-9_]+)*"
_RELATION = re.compile(r"[+-]? ?%s(?: ?[+-] ?%s)*" % (_TERM, _TERM))


def parse_algebra_file(text, name=""):
    """Parse an algebra description.

    Line oriented:  `field p`, `vertices a b c`, `arrow name src tgt`,
    `relation [+|-] term [+|- term ...]` with term = arrowname(*arrowname)*,
    a space allowed on either side of each sign.  `#` starts a comment.
    """
    p = None
    vertices = None
    arrows = []
    rel_texts = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "field":
            if p is not None or len(toks) != 2:
                raise ParseError("bad field line: %r" % raw)
            try:
                p = int(toks[1])
            except ValueError:
                raise ParseError("field size %r is not an integer" % toks[1]) from None
        elif kw == "vertices":
            if vertices is not None or len(toks) < 2:
                raise ParseError("bad vertices line: %r" % raw)
            vertices = toks[1:]
        elif kw == "arrow":
            if len(toks) != 4:
                raise ParseError("bad arrow line: %r" % raw)
            arrows.append(toks[1:4])
        elif kw == "relation":
            rel_texts.append(" ".join(toks[1:]))
            if not _RELATION.fullmatch(rel_texts[-1]):
                raise ParseError("bad relation line: %r" % raw)
        else:
            raise ParseError("unknown keyword %r" % kw)
    if p is None or vertices is None:
        raise ParseError("algebra needs `field` and `vertices` lines")

    def vidx(nm):
        if nm not in vertices:
            raise ParseError("unknown vertex %r in arrow line" % nm)
        return vertices.index(nm)

    q = Quiver(vertices, [(n, vidx(s), vidx(t)) for n, s, t in arrows])

    relations = []
    for rt in rel_texts:
        terms = []
        for sign, term in re.findall(r"([+-]?)\s*(%s)" % _TERM, rt):
            names = term.split("*")
            idxs = tuple(q.arrow_index(nm) for nm in names)
            src = q.arrows[idxs[-1]][1]
            path_target(q, (src, idxs))  # validates composability
            terms.append((-1 if sign == "-" else 1, (src, idxs)))
        relations.append(terms)
    return Algebra(q, p, relations, name=name)


_TOKEN = re.compile(r"\+\+|\^|\(|\)|,|[A-Za-z_][A-Za-z0-9_]*|\d+")


def parse_module_expr(algebra, text, env=None):
    """Build a module from an expression.

    Grammar: expr := atom ("++" atom)* ; atom := base ["^" n] ;
    base := P(v) | Q(v) | S(v) | tau(expr) | taum(expr) | rad(expr) |
            soc(expr) | top(expr) | 0 | IDENT | IDENT(scalar, ...).
    IDENTs resolve through env to a module or a callable.  A direct sum
    ("^" or "++") of total dimension above MAX_MODULE_DIM is refused with
    CapExceeded before it is built.
    """
    env = env or {}
    toks = _TOKEN.findall(text)
    if "".join(toks).replace(" ", "") != re.sub(r"\s+", "", text):
        raise ParseError("unexpected characters in module expression %r" % text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(expect=None):
        t = peek()
        if t is None or (expect is not None and t != expect):
            raise ParseError("bad module expression %r (at %r)" % (text, t))
        pos[0] += 1
        return t

    def check_size(total):
        if total > MAX_MODULE_DIM:
            raise CapExceeded("module of total dimension %d in %r is above the cap %d"
                              % (total, text, MAX_MODULE_DIM))

    def parse_expr():
        parts = [parse_atom()]
        while peek() == "++":
            take()
            parts.append(parse_atom())
        if len(parts) == 1:
            return parts[0]
        check_size(sum(m.total_dim for m in parts))
        return rep.direct_sum(algebra, parts)[0]

    def parse_atom():
        base = parse_base()
        if peek() == "^":
            take()
            n = take()
            if not n.isdigit():
                raise ParseError("exponent %r in %r is not an integer" % (n, text))
            # a zero summand counts as one: each summand costs an inclusion and a projection
            check_size(int(n) * max(base.total_dim, 1))
            return rep.direct_sum(algebra, [base] * int(n))[0]
        return base

    def parse_base():
        t = take()
        if t == "0":
            return rep.zero_rep(algebra)
        if t in ("P", "Q", "S"):
            take("(")
            v = take()
            take(")")
            fn = {"P": algebra.proj, "Q": algebra.inj, "S": algebra.simple}[t]
            return fn(v)
        if t in ("tau", "taum", "rad", "soc", "top"):
            take("(")
            m = parse_expr()
            take(")")
            if t in ("tau", "taum"):
                return ar.tau(m) if t == "tau" else ar.tau_minus(m)
            return {"rad": rep.rad, "soc": rep.soc, "top": rep.top}[t](m)[0]
        if t in env:
            val = env[t]
            if callable(val):
                take("(")
                args = []
                while peek() != ")":
                    a = take()
                    args.append(int(a) if a.isdigit() else a)
                    if peek() == ",":
                        take(",")
                take(")")
                try:
                    inspect.signature(val).bind(*args)
                except TypeError:
                    raise ParseError("wrong number of arguments to %s in %r" % (t, text))
                return val(*args)
            return val
        raise ParseError("unknown module name %r" % t)

    out = parse_expr()
    if peek() is not None:
        raise ParseError("trailing tokens in module expression %r" % text)
    return out
