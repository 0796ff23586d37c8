"""Transpose, tau translates, Ext^1 realization, almost split maps."""

import numpy as np
import pytest

from auskit import ar, rep
from auskit.errors import VerificationFailure


def dv(m):
    return m.dim_vector()


def test_proj_cover(a3lin):
    qa = a3lin.inj("a")
    p0, cover, verts = ar.proj_cover(qa)
    assert dv(p0) == (1, 1, 1)
    assert sorted(verts) == [2]
    assert cover.is_epi()
    om, _ = rep.kernel(cover)
    assert om.is_zero()  # Q(a) = P(c) here


def test_proj_cover_semisimple(kron2):
    m, _, _ = rep.direct_sum(kron2, [kron2.simple("a"), kron2.simple("b")])
    p0, cover, verts = ar.proj_cover(m)
    assert dv(p0) == (3, 1)
    assert sorted(verts) == [0, 1]


def test_tau_a2(a2):
    sb, sa = a2.simple("b"), a2.simple("a")
    assert dv(ar.tau(sb)) == (1, 0)
    assert ar.tau(a2.proj("b")).is_zero()
    assert ar.tau_minus(a2.inj("a")).is_zero()
    assert dv(ar.tau_minus(sa)) == (0, 1)
    assert rep.is_isomorphic(ar.tau(ar.tau_minus(sa)), sa)


def test_tau_kron2(kron2):
    pa = kron2.proj("a")
    t = ar.tau_minus(pa)
    assert dv(t) == (3, 2)
    assert rep.is_isomorphic(ar.tau(t), pa)
    assert dv(ar.tau_minus(kron2.proj("b"))) == (4, 3)
    assert dv(ar.tau(kron2.inj("b"))) == (2, 3)
    # homogeneous tubes: tau fixes the regular length-1 modules
    r = rep.Rep(kron2, [1, 1], {0: [[1]], 1: [[0]]})
    assert rep.is_isomorphic(ar.tau(r), r)


def test_tau_loopb(loopb):
    c = ar.tau_minus(loopb.proj("a"))
    assert dv(c) == (2, 2)
    st = rep.structure(c)
    assert st["socle_series"][0] == (1, 0)
    assert st["top"] == (0, 2)


def test_tau_subspace3(sub3):
    m = ar.tau(sub3.inj("a"))
    assert dv(m) == (2, 1, 1, 1)
    n1 = ar.tau(sub3.inj("b1"))
    assert dv(n1) == (1, 0, 1, 1)
    assert rep.is_isomorphic(ar.tau_minus(n1), sub3.inj("b1"))


def test_transpose_involution(kron2):
    r = rep.Rep(kron2, [1, 1], {0: [[1]], 1: [[1]]})
    assert rep.is_isomorphic(ar.transpose(ar.transpose(r)), r)


def test_dual_swaps_proj_inj(a3rad):
    d = ar.dual(a3rad.proj("c"))
    assert rep.is_isomorphic(d, a3rad.opposite().inj("c"))


def test_ext_dims(a2, kron2, loopb):
    assert ar.ext1(a2.simple("b"), a2.simple("a")) == 1
    assert ar.ext1(a2.simple("a"), a2.simple("b")) == 0
    assert ar.ext1(kron2.simple("b"), kron2.simple("a")) == 2
    assert ar.ext1(kron2.proj("a"), kron2.simple("b")) == 0
    assert ar.ext1(loopb.simple("b"), loopb.proj("a")) == 2


def test_ext_realize_and_split(kron2):
    ed = ar.ExtData(kron2.simple("b"), kron2.simple("a"))
    assert ed.dim == 2
    reps_ = ed.class_reps()
    x, u, g = ed.realize(ed.cocycle(reps_[0]))
    assert dv(x) == (1, 1)
    assert not rep.is_split_epi(g)
    assert rep.is_split_mono(u) is False
    # the zero class gives the split extension
    z, uz, gz = ed.realize(ed.cocycle(np.zeros(len(ed.cocycles), dtype=int)))
    assert rep.is_split_epi(gz) and rep.is_split_mono(uz)
    # realized classes with independent cocycles are non-isomorphic middles
    x2, _, _ = ed.realize(ed.cocycle(reps_[1]))
    assert not rep.is_isomorphic(x, x2)


def test_hom_through_proj(a2, loopb):
    # everything into a projective factors through a projective
    sub, hom = ar.hom_through_proj(a2.proj("b"), a2.proj("b"))
    assert len(hom) == 1 and sub.dim == 1
    c = ar.tau_minus(loopb.proj("a"))
    sub, hom = ar.hom_through_proj(c, loopb.simple("b"))
    assert len(hom) == 2 and sub.dim == 0


def test_ar_formula(a2, a3rad, kron2, loopb):
    pairs = [
        (a2.simple("b"), a2.simple("a")),
        (a2.simple("b"), a2.proj("b")),
        (a3rad.simple("b"), a3rad.simple("a")),
        (a3rad.proj("c"), a3rad.simple("b")),
        (kron2.simple("b"), kron2.simple("a")),
        (kron2.inj("a"), kron2.proj("b")),
        (loopb.simple("b"), loopb.proj("a")),
        (loopb.simple("a"), loopb.simple("a")),
    ]
    for y, k in pairs:
        lhs, rhs = ar.ar_formula_check(y, k)
        assert lhs == rhs


def test_projectivity_tests(a2, kron2):
    assert ar.is_projective(a2.proj("b"))
    assert not ar.is_projective(a2.simple("b"))
    assert ar.is_injective(kron2.inj("a"))
    assert not ar.is_injective(kron2.proj("b"))
    assert ar.is_injective(a2.proj("b"))  # projective-injective here


def test_min_right_almost_split_projective(a2):
    g, extra = ar.min_right_almost_split(a2.proj("b"))
    assert extra is None
    assert dv(g.src) == (1, 0)
    assert g.is_mono()


def test_min_right_almost_split_a2(a2):
    g, (x, u) = ar.min_right_almost_split(a2.simple("b"))
    assert dv(g.src) == (1, 1)
    assert g.is_epi() and not rep.is_split_epi(g)
    assert rep.is_isomorphic(u.src, a2.simple("a"))


def test_min_right_almost_split_kron2(kron2):
    g, (x, u) = ar.min_right_almost_split(kron2.simple("b"))
    assert dv(g.src) == (2, 4)
    parts = rep.decompose(g.src)
    assert sorted(dv(s) for s, _, _ in parts) == [(1, 2), (1, 2)]


def test_min_right_almost_split_uniserial(uni4):
    y = uni4.proj("a")
    r2 = rep.rad(rep.rad(y)[0])[0]
    g, (x, u) = ar.min_right_almost_split(r2)
    assert dv(g.src) == (4,)
    parts = rep.decompose(g.src)
    assert sorted(dv(s) for s, _, _ in parts) == [(1,), (3,)]
