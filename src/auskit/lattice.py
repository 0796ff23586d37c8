"""Submodule lattices of Hom(C, Y) and of representations.

The Gamma-side lattice enumerates every End(C)-submodule of Hom(C,Y) by a
closure search: starting from zero, adjoin one vector at a time and close
under the action.  Every submodule arises this way, since any submodule can be
grown from any of its proper submodules by adjoining a single element.  The
representation-side enumeration works per vertex with arrow closure.

Shape certificates:
  ("G", d, q)  -- the full subspace lattice of a d-dimensional space over F_q,
                  certified on the module side (semisimple isotypic) and
                  cross-checked against Gaussian binomial stratum counts;
  ("I", s)     -- a chain with s+1 nodes;
  ("other",)   -- anything else.
"""

import json
import os

import numpy as np

from . import rep
from .errors import CapExceeded, ParseError, VerificationFailure
from .ffmat import INT, Subspace, all_vectors, gaussian_binomial, kernel

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


def _closure_bfs(zero, seeds, close_fn, node_cap=NODE_CAP):
    seen = {zero.key(): zero}
    frontier = [zero]
    while frontier:
        u = frontier.pop()
        tried = set()
        for v in seeds:
            # adjoining v only depends on its residue mod u
            r = u.reduce(v)
            if not r.any():
                continue
            rk = r.tobytes()
            if rk in tried:
                continue
            tried.add(rk)
            w = close_fn(list(u.B) + [r])
            k = w.key()
            if k not in seen:
                if len(seen) >= node_cap:
                    raise CapExceeded("submodule lattice exceeds the node cap")
                seen[k] = w
                frontier.append(w)
    return sorted(seen.values(), key=lambda s: (s.dim, s.key()))


class SubmoduleLattice:
    """All End(C)-submodules of Hom(C, Y), ordered by inclusion."""

    def __init__(self, gh, nodes):
        self.gh = gh
        self.nodes = nodes
        self._by_key = {s.key(): i for i, s in enumerate(nodes)}
        n = len(nodes)
        self.leq = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                self.leq[i, j] = a.leq(b)
        self._covers = None
        self._labels = None

    @classmethod
    def build(cls, gh, node_cap=NODE_CAP):
        if gh.n > dim_cap(gh.p):
            raise CapExceeded(
                "Hom space dimension %d over F_%d exceeds the enumeration cap"
                % (gh.n, gh.p)
            )
        seeds = [v for v in all_vectors(gh.n, gh.p) if v.any()]
        nodes = _closure_bfs(gh.zero_sub(), seeds, gh.close, node_cap)
        return cls(gh, nodes)

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
            out = []
            n = len(self.nodes)
            for i in range(n):
                for j in range(n):
                    if i == j or not self.leq[i, j]:
                        continue
                    if any(
                        self.leq[i, k] and self.leq[k, j] and k != i and k != j
                        for k in range(n)
                    ):
                        continue
                    out.append((i, j))
            self._covers = out
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
        rows = list(self.nodes[i].B) + list(self.nodes[j].B)
        return self.index_of(self.gh.close(rows))

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
        n = len(self.nodes)
        return all(
            self.leq[i, j] or self.leq[j, i] for i in range(n) for j in range(i)
        )

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
        _, _, rad_mats, residue = gh.simple_data()
        jh = gh.jh_between(zero, full)
        if len(jh) == 1 and all(not m.any() for m in rad_mats):
            (i, d), = jh.items()
            q = gh.p ** residue[i]
            counts = self.counts_by_dim()
            for k in range(d + 1):
                if counts.get(k * residue[i], 0) != gaussian_binomial(d, k, q):
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


class VertexTuple:
    """A vertex-graded subspace closed under the arrow action."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def key(self):
        return tuple(s.key() for s in self.parts)

    @property
    def dim(self):
        return sum(s.dim for s in self.parts)

    def dims(self):
        return tuple(s.dim for s in self.parts)

    def leq(self, other):
        return all(a.leq(b) for a, b in zip(self.parts, other.parts))


def rep_submodule_lattice(x, node_cap=NODE_CAP):
    """All submodules of a representation, as vertex-graded subspaces."""
    p = x.p
    for d in x.dims:
        if d > dim_cap(p):
            raise CapExceeded("vertex dimension exceeds the enumeration cap")
    zero = VertexTuple([Subspace.zero(d, p) for d in x.dims])
    seeds = []
    for v, d in enumerate(x.dims):
        for vec in all_vectors(d, p):
            if vec.any():
                seeds.append((v, vec))
    seen = {zero.key(): zero}
    frontier = [zero]
    while frontier:
        u = frontier.pop()
        tried = set()
        for v, vec in seeds:
            # adjoining vec only depends on its residue mod the part at v
            r = u.parts[v].reduce(vec)
            if not r.any():
                continue
            rk = (v, r.tobytes())
            if rk in tried:
                continue
            tried.add(rk)
            parts = list(u.parts)
            grown = Subspace(
                np.vstack([parts[v].B, r.reshape(1, -1)]), x.dims[v], p
            )
            parts[v] = grown
            w = VertexTuple(rep.sub_closure(x, parts))
            k = w.key()
            if k not in seen:
                if len(seen) >= node_cap:
                    raise CapExceeded("submodule lattice exceeds the node cap")
                seen[k] = w
                frontier.append(w)
    return sorted(seen.values(), key=lambda t: (t.dim, t.key()))


def sub_rep_of(x, vt):
    """Realize a vertex-graded submodule as a representation with inclusion."""
    return rep.sub_from_vectors(x, [s.B for s in vt.parts])


def hyperplanes(n, p):
    """All codimension-one subspaces of F_p^n."""
    out = []
    for a in all_vectors(n, p):
        if not a.any():
            continue
        # normalize the first nonzero entry to 1 so each hyperplane appears once
        first = next(i for i in range(n) if a[i])
        if a[first] != 1:
            continue
        out.append(Subspace(kernel(a.reshape(1, -1), p), n, p))
    return out


def maximal_submodules(x):
    """The maximal submodules: preimages of hyperplanes in the top."""
    p = x.p
    t, proj = rep.top(x)
    out = []
    for v in range(len(x.dims)):
        dv = t.dims[v]
        if dv == 0:
            continue
        for h in hyperplanes(dv, p):
            rows = []
            for u in range(len(x.dims)):
                if u == v:
                    rows.append(np.array(_preimage_rows(proj.blocks[v], h, p), dtype=INT))
                else:
                    rows.append(np.eye(x.dims[u], dtype=INT))
            out.append(rep.sub_from_vectors(x, rows))
    return out


def _preimage_rows(pm, h, p):
    """Rows spanning the preimage of a subspace under a linear map."""
    return list(kernel((kernel(h.B, p) @ pm) % p, p))
