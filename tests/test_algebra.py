"""Algebra construction: bases, projectives/injectives, parsing, module exprs."""

import tracemalloc

import numpy as np
import pytest

from auskit import algebra, catalog, rep
from auskit.errors import BadRelation, NotFiniteDimensional, ParseError
from helpers import mul_vec, nf, yoneda


def dv(m):
    return m.dim_vector()


def test_a2_basis_and_modules(a2):
    assert a2.dim == 3
    assert dv(a2.proj("a")) == (1, 0)
    assert dv(a2.proj("b")) == (1, 1)
    assert dv(a2.inj("a")) == (1, 1)
    assert dv(a2.inj("b")) == (0, 1)
    assert dv(a2.simple("a")) == (1, 0)


def test_a3_linear_modules(a3lin):
    assert a3lin.dim == 6
    assert dv(a3lin.proj("a")) == (1, 0, 0)
    assert dv(a3lin.proj("b")) == (1, 1, 0)
    assert dv(a3lin.proj("c")) == (1, 1, 1)
    assert dv(a3lin.inj("a")) == (1, 1, 1)
    assert dv(a3lin.inj("b")) == (0, 1, 1)
    assert dv(a3lin.inj("c")) == (0, 0, 1)


def test_a3_radical_square_zero(a3rad):
    # alpha*beta = 0 kills the unique length-2 path
    assert a3rad.dim == 5
    assert dv(a3rad.proj("c")) == (0, 1, 1)
    assert dv(a3rad.inj("a")) == (1, 1, 0)
    ia = a3rad.quiver.arrow_index("alpha")
    ib = a3rad.quiver.arrow_index("beta")
    c = a3rad.quiver.vertex_index("c")
    assert not nf(a3rad, (c, (ia, ib))).any()


def test_loop_b(loopb):
    assert loopb.dim == 5
    assert dv(loopb.proj("a")) == (2, 0)
    assert dv(loopb.proj("b")) == (2, 1)
    assert dv(loopb.inj("a")) == (2, 2)
    assert dv(loopb.inj("b")) == (0, 1)
    ia = loopb.quiver.arrow_index("alpha")
    a = loopb.quiver.vertex_index("a")
    assert not nf(loopb, (a, (ia, ia))).any()
    assert nf(loopb, (a, (ia,))).any()


def test_uniserial(uni4):
    assert uni4.dim == 4
    pa = uni4.proj("a")
    assert dv(pa) == (4,)
    st = rep.structure(pa)
    assert st["radical_series"] == [(4,), (3,), (2,), (1,)]
    assert st["socle_series"] == [(1,), (1,), (1,), (1,)]
    assert st["top"] == (1,)


def test_kron2_modules(kron2):
    assert kron2.dim == 4
    assert dv(kron2.proj("a")) == (1, 0)
    assert dv(kron2.proj("b")) == (2, 1)
    assert dv(kron2.inj("a")) == (1, 2)
    assert dv(kron2.inj("b")) == (0, 1)


def test_subspace3_modules(sub3):
    assert sub3.dim == 7
    assert dv(sub3.proj("a")) == (1, 0, 0, 0)
    assert dv(sub3.proj("b1")) == (1, 1, 0, 0)
    assert dv(sub3.inj("a")) == (1, 1, 1, 1)
    assert dv(sub3.inj("b2")) == (0, 0, 1, 0)


def test_commutativity_relation():
    text = """
    field 3
    vertices s x y t
    arrow a s x
    arrow b s y
    arrow c x t
    arrow d y t
    relation c*a - d*b
    """
    A = algebra.parse_algebra_file(text, name="square")
    assert A.dim == 9
    q = A.quiver
    s = q.vertex_index("s")
    ca = (s, (q.arrow_index("c"), q.arrow_index("a")))
    db = (s, (q.arrow_index("d"), q.arrow_index("b")))
    assert (nf(A, ca) == nf(A, db)).all()
    assert dv(A.proj("s")) == (1, 1, 1, 1)


def test_unit_and_products(a2):
    q = a2.quiver
    b = q.vertex_index("b")
    al = (b, (q.arrow_index("alpha"),))
    ea = nf(a2, (q.vertex_index("a"), ()))
    eb = nf(a2, (b, ()))
    v = nf(a2, al)
    assert (mul_vec(a2, a2.unit, v) == v).all()
    assert (mul_vec(a2, v, eb) == v).all()
    assert not mul_vec(a2, v, ea).any()
    assert not mul_vec(a2, v, v).any()


def test_self_check_compares_every_triple():
    # linear A_9 over F_2 has dimension 45; one corrupted product in its
    # table must break associativity, whichever triple shows it
    names = ["v%d" % i for i in range(9)]
    text = "field 2\nvertices %s\n" % " ".join(names)
    text += "".join("arrow a%d %s %s\n" % (i, names[i + 1], names[i]) for i in range(8))
    A = algebra.parse_algebra_file(text)
    assert A.dim == 45
    for i, j, l in ((30, 36, 1), (36, 21, 23), (28, 12, 44), (12, 19, 11)):
        A.mul_table[i, j, l] ^= 1
        with pytest.raises(BadRelation, match="not associative"):
            A._self_check()
        A.mul_table[i, j, l] ^= 1
    A._self_check()


def test_self_check_memory_is_cubic_in_the_dimension():
    # both sides of associativity for all d = 45 indices at once take
    # 2 d^4 int64 entries (62 MiB); one index at a time takes 2 d^3 (1.4 MiB)
    names = ["v%d" % i for i in range(9)]
    text = "field 2\nvertices %s\n" % " ".join(names)
    text += "".join("arrow a%d %s %s\n" % (i, names[i + 1], names[i]) for i in range(8))
    tracemalloc.start()
    try:
        algebra.parse_algebra_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("name", catalog.algebra_names())
def test_normal_forms_stay_parallel(name):
    # a path's normal form lies in the span of the basis paths with its source
    # and target, so _nf_block reads all of it at the basis paths of P(v)_w
    a = catalog.load_catalog_algebra(name)
    for A in (a, a.opposite()):
        nonzero = 0
        for path, nf in A._nf.items():
            ends = (path[0], A._path_tgt[path])
            outside = [i for i in range(A.dim) if (A.basis_src[i], A.basis_tgt[i]) != ends]
            assert not nf[outside].any(), path
            nonzero += bool(nf.any())
        assert nonzero >= A.dim


def test_opposite_involution(a3rad):
    op = a3rad.opposite()
    assert op.dim == a3rad.dim
    assert op.opposite() is a3rad
    # injectives of A are transposed projectives of A^op
    assert a3rad.inj("b").dims == op.proj("b").dims


def test_yoneda_and_right_mult(a2):
    qa = a2.inj("a")
    f = yoneda(a2, "b", qa, [1])
    assert f.is_iso()
    r = a2.right_mult(a2.quiver.arrow_index("alpha"))
    assert dv(r.src) == (1, 0) and dv(r.tgt) == (1, 1)
    assert r.is_mono() and not r.is_epi()
    assert dv(rep.cokernel(r)[0]) == (0, 1)


def test_infinite_dimensional_detected():
    text = """
    field 2
    vertices a
    arrow x a a
    """
    with pytest.raises(NotFiniteDimensional):
        algebra.parse_algebra_file(text)


def test_parse_errors():
    with pytest.raises(ParseError):
        algebra.parse_algebra_file("field 2\nvertices a a\n")
    with pytest.raises(ParseError):
        algebra.parse_algebra_file("field 2\nvertices a\nfoo bar\n")
    with pytest.raises(ParseError):
        algebra.parse_algebra_file("field 2\nvertices a b\narrow x a q\n")
    for field in (0, 1, 4, 9, "x"):
        with pytest.raises(ParseError):
            algebra.parse_algebra_file("field %s\nvertices a\n" % field)
    with pytest.raises(ParseError):
        algebra.parse_algebra_file("vertices a\n")
    # a relation line is [+|-] term [+|- term ...] and nothing else
    kron2 = "field 2\nvertices a b\narrow x a b\narrow y a b\n"
    for rel in ("x $ y", "x y", "x + + y", "+", ""):
        with pytest.raises(ParseError):
            algebra.parse_algebra_file(kron2 + "relation %s\n" % rel)
    # beta after alpha is not composable in the linear A3 quiver
    with pytest.raises(BadRelation):
        algebra.parse_algebra_file(
            "field 2\nvertices a b c\narrow alpha b a\narrow beta c b\nrelation beta*alpha\n"
        )
    # mixing path lengths around an oriented cycle is rejected
    with pytest.raises(BadRelation):
        algebra.parse_algebra_file(
            "field 2\nvertices a\narrow x a a\nrelation x*x - x\n"
        )


def test_module_expr(a3lin):
    m = algebra.parse_module_expr(a3lin, "P(a) ++ S(b)^2")
    assert dv(m) == (1, 2, 0)
    assert dv(algebra.parse_module_expr(a3lin, "rad(P(c))")) == (1, 1, 0)
    assert dv(algebra.parse_module_expr(a3lin, "soc(P(c))")) == (1, 0, 0)
    assert dv(algebra.parse_module_expr(a3lin, "top(P(c))")) == (0, 0, 1)
    assert algebra.parse_module_expr(a3lin, "0").is_zero()
    assert dv(algebra.parse_module_expr(a3lin, "Q(b)^0")) == (0, 0, 0)
    env = {"M": a3lin.proj("b")}
    assert dv(algebra.parse_module_expr(a3lin, "M ++ M", env)) == (2, 2, 0)
    env2 = {"kP": lambda i: a3lin.proj("a" if i == 0 else "b")}
    assert dv(algebra.parse_module_expr(a3lin, "kP(1)", env2)) == (1, 1, 0)
    with pytest.raises(ParseError):
        algebra.parse_module_expr(a3lin, "X(a)")
    with pytest.raises(ParseError):
        algebra.parse_module_expr(a3lin, "P(a) extra")
    with pytest.raises(ParseError):
        algebra.parse_module_expr(a3lin, "P(a) + P(b)")
