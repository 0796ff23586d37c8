"""Both lattice searches against brute force on small seeded modules.

Over F_2 and F_3, for the Kronecker, loop-b and k[x]/x^3 algebras, modules
are direct sums of one or two indecomposables (projectives, injectives,
simples, tau-minus of simples), put in a random basis at each vertex.  The
Gamma side is checked against every subspace of Hom(C, Y) that is closed
under End(C), the representation side against every vertex-graded
arrow-closed subspace, and the order, covers, meets and joins against
pairwise inclusion.
"""

import itertools
import random

import numpy as np
import pytest

from auskit import algebra, ar, determine, lattice, rep
from auskit.ffmat import Subspace
from helpers import enumerate_subspaces, is_submodule, rebased

ALGEBRAS = {
    "kron2": "vertices a b\narrow x b a\narrow y b a\n",
    "loop-b": "vertices a b\narrow alpha a a\narrow beta b a\nrelation alpha*alpha\n",
    "kx-x3": "vertices a\narrow x a a\nrelation x*x*x\n",
}
CASES = [(name, p) for name in ALGEBRAS for p in (2, 3)]
MAX_HOM = {2: 5, 3: 4}  # brute force walks every subspace of Hom(C, Y)
MAX_REP = {2: 5, 3: 4}  # and every graded subspace of the module


def _pool(A):
    out = []
    for v in range(A.nv):
        out += [A.proj(v), A.inj(v), A.simple(v), ar.tau_minus(A.simple(v))]
    return [m for m in out if 0 < m.total_dim <= 4]


def _modules(name, p, count, cap, seed):
    A = algebra.parse_algebra_file("field %d\n%s" % (p, ALGEBRAS[name]), name=name)
    pool = _pool(A)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        parts = rng.sample(pool, rng.choice((1, 2)))
        x = parts[0] if len(parts) == 1 else rep.direct_sum(A, parts)[0]
        if x.total_dim <= cap:
            out.append(rebased(x, rng))
    return A, out


def _covers_reference(leq):
    n = len(leq)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i, j]:
                continue
            if any(leq[i, k] and leq[k, j] and k != i and k != j for k in range(n)):
                continue
            out.append((i, j))
    return out


def _graded_submodules(x):
    """Every tuple of vertex subspaces closed under the arrows, by brute force."""
    p = x.p
    per_vertex = [enumerate_subspaces(d, p) for d in x.dims]
    out = []
    for parts in itertools.product(*per_vertex):
        if all(
            all(parts[v].contains((x.mats[ai] @ row) % p) for row in parts[u].B)
            for ai, (_, u, v) in enumerate(x.A.quiver.arrows)
        ):
            out.append(parts)
    return out


@pytest.mark.parametrize("name,p", CASES)
def test_gamma_lattice_matches_brute_force(name, p):
    A, mods = _modules(name, p, 8, 4, seed=p)
    # C = X + X^g with X^g a random rebasing of X: conjugate summand idempotents,
    # of which the search seeds from one per class
    rng = random.Random(20 + p)
    doubled = [rep.direct_sum(A, [x, rebased(x, rng)])[0] for x in mods]
    checked = repeated = 0
    for c, y in itertools.chain(itertools.product(mods, repeat=2), itertools.product(doubled, mods)):
        gh = determine.GammaHom(c, y)
        if not 0 < gh.n <= MAX_HOM[p]:
            continue
        repeated += any(c is x for x in doubled)
        lat = lattice.SubmoduleLattice.build(gh)
        want = sorted((s for s in enumerate_subspaces(gh.n, p) if is_submodule(gh, s)),
                      key=lambda s: (s.dim, s.key()))
        assert [s.key() for s in lat.nodes] == [s.key() for s in want]
        n = len(want)
        leq = np.array([[a.leq(b) for b in want] for a in want], dtype=bool)
        assert lat.leq.shape == (n, n) and (lat.leq == leq).all()
        assert lat.covers() == _covers_reference(leq)
        chain = all(leq[i, j] or leq[j, i] for i in range(n) for j in range(i))
        assert lat.is_chain() == chain
        for i, j in itertools.product(range(n), repeat=2):
            ups = np.flatnonzero(leq[i] & leq[j])
            downs = np.flatnonzero(leq[:, i] & leq[:, j])
            assert [lat.join(i, j)] == list(ups[leq[np.ix_(ups, ups)].all(axis=1)])
            assert [lat.meet(i, j)] == list(downs[leq[np.ix_(downs, downs)].all(axis=0)])
        checked += 1
    assert checked - repeated >= 10 and repeated >= 3


@pytest.mark.parametrize("name,p", CASES)
def test_rep_lattice_matches_brute_force(name, p):
    _, mods = _modules(name, p, 6, MAX_REP[p], seed=10 + p)
    for x in mods:
        nodes = lattice.rep_submodule_lattice(x)
        got = []
        for s in nodes:
            spans = rep.vertex_spans(x, s)
            parts = [Subspace(t.B, t.n, p) for t in spans]
            assert [t.key() for t in spans] == [t.key() for t in parts]  # read off in echelon form
            assert sum(t.dim for t in parts) == s.dim  # graded
            got.append(tuple(t.key() for t in parts))
        want = sorted(_graded_submodules(x),
                      key=lambda parts: (sum(t.dim for t in parts), tuple(t.key() for t in parts)))
        assert got == [tuple(t.key() for t in parts) for parts in want]
        for s in nodes:
            sub, incl = lattice.sub_rep_of(x, s)
            assert sub.total_dim == s.dim and incl.is_mono()


@pytest.mark.parametrize("name,p", CASES)
def test_node_lower_bound_never_exceeds_the_count(name, p):
    A, mods = _modules(name, p, 6, MAX_REP[p], seed=10 + p)
    for x in mods:
        assert lattice._submodule_lower_bound(x) <= len(_graded_submodules(x))
    # on a semisimple module every graded subspace is a submodule: the bound is exact
    s = rep.direct_sum(A, [A.simple(v) for v in range(A.nv)] * 2)[0]
    assert lattice._submodule_lower_bound(s) == len(_graded_submodules(s)) > 2
