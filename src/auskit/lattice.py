"""Submodule lattices of Hom(C, Y), of representations and of Ext groups.

All three use one search.  Every submodule is the sum of the cyclic
submodules of its elements, so the search closes each seed vector once to its
cyclic submodule and then forms plain subspace sums, with no closure per step;
the inclusion order and the covers are read off the sums it formed.  On the
Gamma side the submodules are the End(C)-stable subspaces of Hom(C, Y) in
its coordinates; on the representation side they are the subspaces of the
total space F_p^{total_dim} stable under the arrows (rep.total_arrows), which
are vertex-graded; factor's are the End(K)-submodules of Ext^1(Y', K).

All sides seed the search by one rule (the local submodules of Lux, Mueller
and Ringe, Peakword condensation and submodule lattices, J. Symbolic Comput.
17, 1994): one vector per line of M e, for e in a complete set of orthogonal
idempotents up to conjugacy.  On the graded sides e runs over the block
idempotents, and M e is a block of coordinates (graded_submodules).  On the Gamma
side e runs over the class idempotents e_i = incl o proj of
GammaHom.simple_data, one per isomorphism class of summands of C, and M e_i
is the row space of the transposed action of e_i.

Why one idempotent per class suffices: take u in a submodule U.  The summand
idempotents e_j of C sum to 1 (simple_data certifies it), so u = sum_j u e_j.
Let X_j be isomorphic to X_i, the summand behind e_i, through phi, and set
a = incl_j phi proj_i and b = incl_i phi^-1 proj_j.  Then e_j = a b, and
u a = u a e_i lies in U e_i, so u e_j = (u a) b lies in the cyclic submodule
of a vector of U e_i, which is a multiple of a seed.  Hence every submodule is
the sum of the cyclic submodules of the seeds it contains.  This uses only the
positive verdicts of rep.iso_classes, each witnessed by an invertible
composite; a missed isomorphism only adds seeds.

The lattice depends only on the module, given by the grading, the action
stack and the seed idempotents, so each search is memoized in the algebra
under exactly that input (_search): on the Kronecker shape table, every
Hom(C, Y) with End(C) = F_p of one dimension is the same search.

Shape certificates:
  ("G", d, q)  -- the full subspace lattice of a d-dimensional space over F_q,
                  certified on the module side: Hom(C, Y) is isotypic of one
                  class i and killed by rad End(X_i) acting through e_i, so
                  semisimple, S_i^d with End(S_i) = F_q; cross-checked against
                  Gaussian binomial counts of the submodules of dimension
                  k dim S_i;
  ("I", s)     -- a chain with s+1 nodes;
  ("other",)   -- anything else.
"""

import heapq
import math
import os

import numpy as np

from . import rep
from .errors import CapExceeded, ParseError, VerificationFailure
from .ffmat import INT, Subspace, closure, gaussian_binomial, inv_mod, mat_key, projective_points, zeros

DEFAULT_DIM_CAPS = {2: 12, 3: 8, 5: 6}
NODE_CAP = 20000


def canonical_shape(shape):
    """Chains of length <= 1 are both G(d) and I(d); prefer the chain form."""
    if shape[0] == "G" and shape[1] <= 1:
        return ("I", shape[1])
    return shape


def dim_cap(p):
    """Largest coordinate dimension we will enumerate over F_p.

    Overridable through AUSKIT_CAPS, either a single integer or a
    comma-separated list like "2:12,3:8".
    """
    env = os.environ.get("AUSKIT_CAPS", "").strip()
    if env:
        try:
            if ":" not in env:
                return int(env)
            caps = dict(map(int, part.split(":")) for part in env.split(","))
        except ValueError:
            raise ParseError("malformed AUSKIT_CAPS %r: want 12 or a list like 2:12,3:8" % env)
        if p in caps:
            return caps[p]
    if p in DEFAULT_DIM_CAPS:
        return DEFAULT_DIM_CAPS[p]
    return max(2, int(round(12 / np.log2(p))))


def _cyclic_search(zero, seeds, order):
    """Every submodule, as a sum of cyclic submodules, with its order read off.

    seeds holds each seed g with its cyclic submodule C(g).  A node u grows
    along an edge u -> u + C(g) for each g not in u, a plain subspace sum, so
    the submodules reached are the sums of the seeds' cyclic submodules.  That
    is all of them, since the seeds follow the rule of the module docstring:
    every submodule is the sum of the cyclic submodules of the seeds it
    contains.  Nodes are expanded in increasing order(u) (dimension first), so
    every edge runs from an expanded node to a later one, and a node's index
    is fixed before anything above it is expanded.

    Every cover a < b is an edge: some seed g lies in b but not in a, so
    a < a + C(g) <= b, and a + C(g) = b.  Hence a <= b iff a chain of edges runs from a up to b,
    and the lower covers of b are the maximal elements among its lower
    edge-neighbours: if a < c < b, the lower cover of b above c is a
    neighbour above a.  Returns (nodes, below, lower_covers): below[j] and
    lower_covers[j] are bitsets over node indices, below[j] including j.

    One sum is formed per residue line, not per generator.  If g - c g' lies
    in u for some c != 0, then g lies in the submodule u + C(g'), so
    u + C(g) <= u + C(g'), and by symmetry the two sums are equal.  Nodes are
    popped by (order(w), key) and below/lower_covers are ORs over edges, so
    the result depends only on the set of sums, not on which generator of a
    line formed each one.
    """
    p = zero.p
    cyclic = {}
    for g, cg in seeds:
        cyclic.setdefault(cg.key(), (g, cg))
    gens = list(cyclic.values())
    gen_rows = np.array([g for g, _ in gens], dtype=INT).reshape(len(gens), zero.n)
    inverse = np.array([0] + [inv_mod(a, p) for a in range(1, p)], dtype=INT)
    # node key -> [node, lower edge-neighbours, everything strictly below them]
    pending = {zero.key(): [zero, 0, 0]}
    heap = [(order(zero), zero.key())]
    nodes, below, lower_covers = [], [], []
    while heap:
        _, k = heapq.heappop(heap)
        u, nbrs, under = pending.pop(k)
        i = len(nodes)
        nodes.append(u)
        below.append(nbrs | under | (1 << i))
        lower_covers.append(nbrs & ~under)
        residues = u.residues(gen_rows)
        outside = np.flatnonzero(residues.any(axis=1))
        if not outside.size:
            continue
        res = residues[outside]
        # scale each residue so its first nonzero entry is 1: one row per line
        lead = res[np.arange(len(res)), (res != 0).argmax(axis=1)]
        lines = {}
        for t, row in zip(outside.tolist(), (res * inverse[lead][:, None]) % p):
            lines.setdefault(row.tobytes(), t)
        for t in lines.values():
            w = u.sum(gens[t][1])
            kw = w.key()
            entry = pending.get(kw)
            if entry is None:
                if len(nodes) + len(pending) >= NODE_CAP:
                    raise CapExceeded("submodule lattice exceeds the node cap")
                entry = pending[kw] = [w, 0, 0]
                heapq.heappush(heap, (order(w), kw))
            entry[1] |= 1 << i
            entry[2] |= below[i] ^ (1 << i)
    return nodes, below, lower_covers


def _seed_lines(spans, p, close):
    """The seeds of _cyclic_search with their cyclic submodules: one vector
    per line of each span M e, given by its rows in the coordinates of M."""
    return [(g, close([g])) for g in ((c @ b) % p for b in spans for c in projective_points(len(b), p))]


def _search(A, dims, mats, idems, close):
    """(nodes, below, lower_covers, seeds) of _cyclic_search on F_p^n,
    n = sum(dims), for the (k, n, n) action stack mats, memoized per algebra
    A under kind "lattice" by the search's whole input: the grading dims,
    mats, and the seed spans, M e for e in the (n, n) matrices idems on the
    Gamma side (dims = (n,)) or the unit blocks of dims when idems is None.

    Nodes are ordered by dimension and then the RREF of their block parts
    (for dims = (n,), by dimension and then key).  The stored arrays are
    read-only and the lists are copied out, so no caller can change an
    answer another one reads; a stored lattice over NODE_CAP nodes is refused
    as the search itself would refuse it.
    """
    p, n = A.p, sum(dims)
    off = np.cumsum([0] + list(dims))

    def order(s):  # the RREF of a graded subspace is block diagonal
        cuts = np.searchsorted(s.pivots, off)
        return s.dim, tuple(mat_key(s.B[cuts[v] : cuts[v + 1], off[v] : off[v + 1]]) for v in range(len(dims)))

    def search():
        if idems is None:
            unit = np.eye(n, dtype=INT)
            spans = [unit[off[v] : off[v + 1]] for v in range(len(dims))]
        else:
            spans = [Subspace(m.T, n, p).B for m in idems]
        seeds = _seed_lines(spans, p, close)
        nodes, below, lower_covers = _cyclic_search(Subspace.zero(n, p), seeds, order)
        for a in [s.B for s in nodes] + [a for g, cg in seeds for a in (g, cg.B)]:
            a.flags.writeable = False
        return tuple(nodes), tuple(below), tuple(lower_covers), tuple(seeds)

    key = ("lattice", tuple(dims), mat_key(mats), None if idems is None else tuple(map(mat_key, idems)))
    nodes, below, lower_covers, seeds = A.memoized(key, search)
    if len(nodes) > NODE_CAP:
        raise CapExceeded("submodule lattice exceeds the node cap")
    return list(nodes), list(below), list(lower_covers), list(seeds)


def graded_submodules(A, dims, mats):
    """(nodes, seeds): the subspaces of F_p^n, n = sum(dims), stable under
    v -> m v for the (k, n, n) stack mats, by dimension and then the RREF of
    their block parts, and the seeds with their cyclic submodules, memoized
    in the algebra A (see _search).  They must be graded by the unit blocks
    of dims (the vertices; the Ext^1(Y', K_i)), so that every member is a
    sum of multiples of seeds inside it."""
    n = sum(dims)
    nodes, _, _, seeds = _search(A, dims, mats, None, lambda rows: closure(rows, mats, n, A.p))
    return nodes, seeds


def _bit_rows(bitsets, n):
    """Boolean matrix whose row r holds bits 0..n-1 of bitsets[r]."""
    width = (n + 7) // 8
    raw = b"".join(b.to_bytes(width, "little") for b in bitsets)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(bitsets), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


class SubmoduleLattice:
    """All End(C)-submodules of Hom(C, Y), ordered by inclusion."""

    def __init__(self, gh, nodes, below, lower_covers):
        self.gh = gh
        self.nodes = nodes
        self._by_key = {s.key(): i for i, s in enumerate(nodes)}
        self.leq = _bit_rows(below, len(nodes)).T
        self._lower_covers = lower_covers
        self._covers = None
        self._labels = None

    @classmethod
    def build(cls, gh):
        if gh.n > dim_cap(gh.p):
            raise CapExceeded(
                "Hom space dimension %d over F_%d exceeds the enumeration cap"
                % (gh.n, gh.p)
            )
        # simple_data certifies that the summand idempotents sum to 1 (once per content of C) before any closure
        eps_mats = gh.simple_data()[1]
        return cls(gh, *_search(gh.c.A, (gh.n,), gh.act, eps_mats, gh.close)[:3])

    def __len__(self):
        return len(self.nodes)

    @property
    def zero_i(self):
        return 0

    @property
    def full_i(self):
        return len(self.nodes) - 1

    def index_of(self, sub):
        i = self._by_key.get(sub.key())
        if i is None:
            raise VerificationFailure("subspace is not a submodule of the lattice")
        return i

    def covers(self):
        if self._covers is None:
            lower = _bit_rows(self._lower_covers, len(self.nodes)).T
            self._covers = [tuple(ij) for ij in np.argwhere(lower).tolist()]
        return self._covers

    def cover_labels(self):
        if self._labels is None:
            self._labels = {
                (i, j): self.gh.cover_label(self.nodes[i], self.nodes[j])
                for i, j in self.covers()
            }
        return self._labels

    def meet(self, i, j):
        return self.index_of(self.nodes[i].intersect(self.nodes[j]))

    def join(self, i, j):
        # a sum of submodules is a submodule
        return self.index_of(self.nodes[i].sum(self.nodes[j]))

    def height(self):
        """Longest cover chain from bottom to top."""
        n = len(self.nodes)
        order = sorted(range(n), key=lambda i: self.nodes[i].dim)
        best = {i: 0 for i in range(n)}
        ups = {}
        for i, j in self.covers():
            ups.setdefault(i, []).append(j)
        for i in order:
            for j in ups.get(i, ()):
                best[j] = max(best[j], best[i] + 1)
        return best[self.full_i]

    def counts_by_dim(self):
        out = {}
        for s in self.nodes:
            out[s.dim] = out.get(s.dim, 0) + 1
        return out

    def is_chain(self):
        return bool((self.leq | self.leq.T).all())

    def check_modular(self, max_nodes=60):
        """Verify a v (b ^ c) == (a v b) ^ c whenever a <= c."""
        n = len(self.nodes)
        if n > max_nodes:
            raise CapExceeded("modular law check limited to %d nodes" % max_nodes)
        meets = [[self.meet(i, j) for j in range(n)] for i in range(n)]
        joins = [[self.join(i, j) for j in range(n)] for i in range(n)]
        for a in range(n):
            for c in range(n):
                if not self.leq[a, c]:
                    continue
                for b in range(n):
                    if joins[a][meets[b][c]] != meets[joins[a][b]][c]:
                        return False
        return True

    def classify(self):
        gh = self.gh
        full, zero = gh.full_sub(), gh.zero_sub()
        if gh.n == 0:
            return ("G", 0, gh.p)
        classes, _, rad_mats, residue = gh.simple_data()
        jh = gh.jh_between(zero, full)
        if len(jh) == 1 and all(not m.any() for m in rad_mats):
            (i, d), = jh.items()
            q = gh.p ** residue[i]
            step = len(classes[i]) * residue[i]  # the dimension of S_i
            counts = self.counts_by_dim()
            for k in range(d + 1):
                if counts.get(k * step, 0) != gaussian_binomial(d, k, q):
                    raise VerificationFailure(
                        "semisimple module with non-Gaussian stratum counts"
                    )
            if sum(counts.values()) != sum(
                gaussian_binomial(d, k, q) for k in range(d + 1)
            ):
                raise VerificationFailure("unexpected extra lattice nodes")
            return ("G", d, q)
        if self.is_chain():
            return ("I", len(self.nodes) - 1)
        return ("other",)

    def to_json(self):
        labels = self.cover_labels()
        class_dims = self.gh.labels()
        return {
            "p": self.gh.p,
            "hom_dim": self.gh.n,
            "shape": list(self.classify()),
            "node_count": len(self.nodes),
            "nodes": [{"index": i, "dim": s.dim} for i, s in enumerate(self.nodes)],
            "covers": [
                {"lower": i, "upper": j, "label": list(class_dims[labels[(i, j)]])}
                for i, j in self.covers()
            ],
            "height": self.height(),
        }

    def to_dot(self):
        lines = ["digraph lattice {", "  rankdir=BT;"]
        for i, s in enumerate(self.nodes):
            lines.append('  n%d [label="%d:%d"];' % (i, i, s.dim))
        labels = self.cover_labels()
        class_dims = self.gh.labels()
        for i, j in self.covers():
            lines.append(
                '  n%d -> n%d [label="%s"];'
                % (i, j, "x".join(str(t) for t in class_dims[labels[(i, j)]]))
            )
        lines.append("}")
        return "\n".join(lines)


# -- representation-side enumeration ------------------------------------------


def _submodule_lower_bound(x):
    """A lower bound on the number of submodules of X: every graded subspace of
    soc X is one, and so is the preimage of every graded subspace of top X,
    whose dimension at v is the number of generators of X there."""
    p, verts = x.p, rep.generators(x)[0]
    top = [verts.count(v) for v in range(len(x.dims))]
    return max(math.prod(sum(gaussian_binomial(d, k, p) for k in range(d + 1)) for d in dims)
               for dims in (rep.soc(x)[0].dims, top))


def rep_submodule_lattice(x):
    """All submodules of a representation, as vertex-graded subspaces of the
    total space (see rep.total_arrows), ordered by dimension and then by the
    keys of their vertex parts."""
    p = x.p
    for d in x.dims:
        if d > dim_cap(p):
            raise CapExceeded("vertex dimension exceeds the enumeration cap")
    if _submodule_lower_bound(x) > NODE_CAP:
        raise CapExceeded("submodule lattice exceeds the node cap")
    return graded_submodules(x.A, x.dims, rep.total_arrows(x))[0]


def sub_rep_of(x, sub):
    """Realize a submodule of the total space as a representation with inclusion."""
    return rep._sub_rep(x, rep.vertex_spans(x, sub))


def maximal_submodules(x):
    """The maximal submodules: the kernels of the maps X -> top X -> S(v),
    one per line of functionals a on top X at v."""
    t, proj = rep.top(x)
    out = []
    for v in range(len(x.dims)):
        s = x.A.simple(v)
        for a in projective_points(t.dims[v], x.p):
            f = rep.Morphism(t, s, [a.reshape(1, -1) if w == v else zeros(s.dims[w], d)
                                    for w, d in enumerate(t.dims)])
            out.append(rep.kernel(f.compose(proj)))
    return out
