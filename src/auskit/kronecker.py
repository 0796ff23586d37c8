"""Kronecker algebras: standard modules, regular classification, shape table.

For the 2-Kronecker algebra the indecomposables split into preprojectives P_i,
preinjectives Q_j and tubes of regular modules indexed by the projective line:
one tube per monic irreducible polynomial plus the tube at infinity.  The
shape table records, for each family pair (C, Y), the expected dimension of
Hom(C,Y) and the expected shape of its submodule lattice, and verify_table
recomputes both from scratch.
"""

import numpy as np

from . import ar, determine, factor, ffmat, lattice, rep
from .algebra import MAX_MODULE_DIM, parse_algebra_file
from .errors import CapExceeded, ParseError, VerificationFailure
from .ffmat import identity, zeros

ARROW_NAMES = ["x", "y", "z"]


def kronecker_algebra(n, p, name=None):
    """The n-Kronecker algebra over F_p (arrows b -> a)."""
    if n <= 3:
        names = ARROW_NAMES[:n]
    else:
        names = ["x%d" % (i + 1) for i in range(n)]
    text = "field %d\nvertices a b\n" % p
    text += "".join("arrow %s b a\n" % nm for nm in names)
    return parse_algebra_file(text, name=name or ("kron%d" % n))


def _check_size(A, name, k):
    """Refuse P_k = (s_{k+1}, s_k) or Q_k = (s_k, s_{k+1}) above MAX_MODULE_DIM
    before any tau step: s_0 = 0, s_1 = 1, s_{j+1} = n s_j - s_{j-1} for n
    arrows, nondecreasing for n >= 2, so the first total above the cap stops it."""
    n, s, t = len(A.quiver.arrows), 0, 1
    for _ in range(k):
        s, t = t, n * t - s
        if s + t > MAX_MODULE_DIM:
            raise CapExceeded("%s(%d) has total dimension above the cap %d" % (name, k, MAX_MODULE_DIM))


def kP(A, i):
    """Preprojective P_i (P_0 = S(a), P_1 = P(b), tau^- shifts by two)."""
    if i < 0:
        raise ParseError("preprojective index must be nonnegative")
    _check_size(A, "kP", i)
    m = A.proj(0) if i % 2 == 0 else A.proj(1)
    for _ in range(i // 2):
        m = ar.tau_minus(m)
    return m


def kQ(A, j):
    """Preinjective Q_j (Q_0 = S(b), Q_1 = Q(a), tau shifts by two)."""
    if j < 0:
        raise ParseError("preinjective index must be nonnegative")
    _check_size(A, "kQ", j)
    m = A.inj(1) if j % 2 == 0 else A.inj(0)
    for _ in range(j // 2):
        m = ar.tau(m)
    return m


def _poly_jordan(coeffs, t, p):
    """Block Jordan matrix with t companion blocks of the polynomial."""
    d = len(coeffs) - 1
    m = zeros(t * d, t * d)
    c = ffmat.companion(coeffs, p)
    for b in range(t):
        m[b * d : (b + 1) * d, b * d : (b + 1) * d] = c
        if b + 1 < t:
            m[b * d : (b + 1) * d, (b + 1) * d : (b + 2) * d] = identity(d)
    return m


def kR(A, label, t=1):
    """Regular module of quasi-length t in the tube with the given label.

    Labels: an integer lam in 0..p-1 for the tube of t - lam, the string "inf"
    for the tube at infinity, or a highest-first tuple of coefficients in
    0..p-1 of a monic irreducible polynomial of degree at least 2.  Every tube
    is the block Jordan matrix of its polynomial, x - lam for lam, and x with
    the two arrows swapped at infinity.  The module is memoized per algebra
    under kind "kR" by (label, t), an integer label of any type read as int
    and a coefficient list as a tuple; an invalid label raises on every call.
    """
    if len(A.quiver.arrows) != 2:
        raise ValueError("regular tubes are classified only for two arrows")
    p = A.p
    at_inf = isinstance(label, str) and label == "inf"
    if at_inf:
        key, coeffs = label, (1, 0)
    elif isinstance(label, (int, np.integer)):
        if label not in range(p):
            raise ParseError("tube label %d is not an element of F_%d" % (label, p))
        key, coeffs = int(label), (1, -int(label) % p)
    else:
        key = coeffs = tuple(label) if isinstance(label, (tuple, list)) else ()
        if not (len(key) >= 3 and key[0] == 1 and all(c in range(p) for c in key)):
            key = None  # refused by build, before any irreducibility test

    def build():
        if key is None or len(coeffs) > 2 and not ffmat.poly_is_irreducible(coeffs[::-1], p):
            raise ParseError("tube label %r is not a monic irreducible of degree >= 2 over F_%d" % (label, p))
        d = len(coeffs) - 1
        jm, one = _poly_jordan(coeffs, t, p), identity(t * d)
        return rep.Rep(A, [t * d, t * d], {0: jm, 1: one} if at_inf else {0: one, 1: jm})

    return A.memoized(("kR", key, t), build)


def defect(m):
    """dim at the source vertex minus dim at the sink; negative on P_i."""
    return m.dims[1] - m.dims[0]


def tube_labels(p, max_deg):
    """All tube labels of degree up to max_deg: "inf", then linear, then higher."""
    labels = ["inf"] + list(range(p))
    for d in range(2, max_deg + 1):
        labels.extend(ffmat.monic_irreducibles(p, d))
    return labels


def label_degree(label):
    if label == "inf" or isinstance(label, (int, np.integer)):
        return 1
    return len(label) - 1


def tube_of(A, m):
    """The tube label of a regular indecomposable (nonzero hom to its tube)."""
    half = m.total_dim // 2
    for label in tube_labels(A.p, max(1, half)):
        if label_degree(label) > half:
            continue
        if rep.hom_space(kR(A, label, 1), m):
            return label
    raise VerificationFailure("module does not lie in any tube")


def enumerate_strongly_regular(A, total_dim):
    """Strongly regular modules of a given size: direct sums of regular
    indecomposables with at most one from each tube.

    Returns (module, labels) pairs where labels lists the (tube, quasi-length)
    pairs; each pair has 2 * t * deg(tube) dimensions.
    """
    labels = tube_labels(A.p, max(1, total_dim // 2))
    out = []

    def rec(start, left, chosen):
        if left == 0:
            m, _, _ = rep.direct_sum(A, [kR(A, lab, t) for lab, t in chosen])
            out.append((m, chosen))
            return
        for k in range(start, len(labels)):
            d = label_degree(labels[k])
            for t in range(1, left // (2 * d) + 1):
                rec(k + 1, left - 2 * t * d, chosen + [(labels[k], t)])

    rec(0, total_dim, [])
    return out


# -- the shape table -----------------------------------------------------------


def _shape_row(A, c, y, cdesc, ydesc, want_dim, want_shape):
    gh = determine.GammaHom(c, y)
    lat = lattice.SubmoduleLattice.build(gh)
    got = lattice.canonical_shape(lat.classify())
    want = lattice.canonical_shape(want_shape)
    return {
        "c": cdesc,
        "y": ydesc,
        "hom_dim": gh.n,
        "want_dim": want_dim,
        "shape": got,
        "want_shape": want,
        "nodes": len(lat),
        "ok": gh.n == want_dim and got == want,
    }


def verify_table(p, max_sum=3, max_t=3):
    """Recompute the whole (C, Y) shape table; returns (rows, all_ok)."""
    A = kronecker_algebra(2, p)
    tubes = [*range(p), "inf", next(ffmat.iter_monic_irreducibles(p, 2))]
    # (label, t, t * deg label) for the regular members of quasi-length cap max_t
    regs = [(lab, t, t * label_degree(lab)) for lab in tubes for t in range(1, max_t + 1)
            if t * label_degree(lab) <= max_t]
    # the index cap: pairs (i, j) with i + j <= max_sum, (0, max_sum) among them
    pairs = [(i, j) for i in range(max_sum + 1) for j in range(max_sum + 1) if i + j <= max_sum]

    def P(i):
        return kP(A, i), "P%d" % i

    def Q(j):
        return kQ(A, j), "Q%d" % j

    def R(lab, t):
        return kR(A, lab, t), "R[%s,%d]" % (lab, t)

    def family_pairs():
        """(C, Y, want_dim, want_shape), each pair asked for just before its
        row; kP, kQ and kR read the algebra's memo, so a module that many rows
        share is built once, and so is the C side of its simple_data."""
        yield from ((P(i), P(j), j - i + 1, ("G", j - i + 1, p)) for i, j in pairs if i <= j)
        yield from ((P(i), R(lab, t), d, ("G", d, p)) for i in range(2) for lab, t, d in regs)
        yield from ((P(i), Q(j), i + j, ("G", i + j, p)) for i, j in pairs)
        yield from ((R(lab, s), R(lab, t), min(ds, dt), ("I", min(s, t)))
                    for lab, s, ds in regs for lab2, t, dt in regs if lab2 == lab)
        # distinct tubes have no homomorphisms between them
        yield R(tubes[0], 1), R(tubes[1], 1), 0, ("I", 0)
        yield from ((R(lab, s), Q(j), d, ("I", s)) for lab, s, d in regs for j in range(max_sum + 1))
        yield from ((Q(i), Q(j), i - j + 1, ("G", i - j + 1, p)) for j, i in pairs if j <= i)

    rows = [_shape_row(A, c, y, cn, yn, dim, shape) for (c, cn), (y, yn), dim, shape in family_pairs()]
    return rows, all(r["ok"] for r in rows)


def sigma_check(A, i, j):
    """Length-one classes from P_i to Q_j against the strongly regular family.

    The sources of the C-length-one factorization classes should realize, up
    to isomorphism, exactly the strongly regular modules of total dimension
    |P_i| + |Q_j| - 4, each exactly once.
    """
    c, y = kP(A, i), kQ(A, j)
    fl = factor.FactorizationLattice.build(c, y)
    ones = fl.length_one_indices()
    want_dim = c.total_dim + y.total_dim - 4
    family = enumerate_strongly_regular(A, want_dim) if want_dim > 0 else []
    sources = [fl.classes[k].f.src for k in ones]
    report = {
        "classes": len(ones),
        "family": len(family),
        "dim": want_dim,
        "ok": True,
    }
    if want_dim == 0:
        # the unique length-one class must be the zero class [0 -> Y>
        report["ok"] = ones == [fl.lat.zero_i] and sources[0].total_dim == 0
        return report
    # a module's signature: how many of its summands lie in each isomorphism class
    classes = rep.summand_classes(sources + [m for m, _ in family])
    sigs = [tuple(cl.count(k) for cl in classes) for k in range(len(sources) + len(family))]
    src_sigs, fam_sigs = sigs[:len(sources)], sigs[len(sources):]
    report["ok"] = len(set(src_sigs)) == len(src_sigs) and sorted(src_sigs) == sorted(fam_sigs)
    return report
