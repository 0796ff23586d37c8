import json
import os
import subprocess
import sys
import time

import pytest

import auskit
from auskit import catalog, cli, factor, ffmat, lattice, rep
from auskit.errors import VerificationFailure
from helpers import _counting

A2_TEXT = """
field 3
vertices u v
arrow f v u
"""


def test_examples_lists(capsys):
    assert cli.main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "kron2" in out and "loop-b-ex8" in out


def test_check_algebra_catalog(capsys):
    assert cli.main(["check-algebra", "loop-b"]) == 0
    out = capsys.readouterr().out
    assert "over F_2" in out and "alpha: a -> a" in out


def test_check_algebra_file(tmp_path, capsys):
    path = tmp_path / "tiny.alg"
    path.write_text(A2_TEXT)
    assert cli.main(["check-algebra", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tiny over F_3" in out


def test_check_algebra_bad_field_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("field x\nvertices a\n")
    assert cli.main(["check-algebra", str(path)]) == 2
    assert "field size 'x' is not an integer" in capsys.readouterr().err


def test_check_algebra_field_too_large_exit_code(tmp_path, capsys):
    # int64 products of entries below p are exact only for p below 2^16
    path = tmp_path / "big.alg"
    path.write_text("field 2147483647\nvertices a b\narrow x a b\n")
    assert cli.main(["check-algebra", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_algebra_file_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"field 2\nvertices a\n# \xff\n")
    assert cli.main(["check-algebra", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_algebra_unknown(capsys):
    assert cli.main(["check-algebra", "no-such-thing"]) == 2
    assert "no catalog algebra" in capsys.readouterr().err


def test_hom_json(capsys):
    rc = cli.main(["hom", "--algebra", "subspace3", "-c", "tau(Q(a))",
                   "-y", "Q(a)", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hom_dim"] == 2 and data["length"] == 2


def _a2_into_qa(capsys, cmd, c):
    rc = cli.main([cmd, "--algebra", "a2", "-c", c, "-y", "Q(a)"])
    return rc, capsys.readouterr().out


def test_repeated_summand(capsys):
    # add C = add P(a): End(C) grows to M_2(F_2), the answers do not change
    rc, out = _a2_into_qa(capsys, "hom", "P(a)^2")
    assert rc == 0
    assert out.splitlines()[1:] == ["length 1 with factors:", "  [1, 0] x1"]
    rc, out = _a2_into_qa(capsys, "lattice", "P(a)^2")
    assert rc == 0
    assert "2 submodules, shape ('G', 1, 2), height 1" in out and "1 cover relations" in out
    # only the node dimensions double
    assert out.replace("{0: 1, 2: 1}", "{0: 1, 1: 1}") == _a2_into_qa(capsys, "lattice", "P(a)")[1]
    rc, out = _a2_into_qa(capsys, "classes", "P(a)^2")
    assert rc == 0
    assert out == _a2_into_qa(capsys, "classes", "P(a)")[1]


def test_lattice_text_and_dot(capsys):
    assert cli.main(["lattice", "--algebra", "kron3", "-c", "kP(2)", "-y", "kQ(0)"]) == 0
    out = capsys.readouterr().out
    assert "16 submodules" in out
    assert cli.main(["lattice", "--algebra", "a2", "-c", "P(b)", "-y", "P(b)", "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_classes_text(capsys):
    rc = cli.main(["classes", "--algebra", "loop-b", "-c", "taum(P(a))", "-y", "S(b)"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 classes" in out and "epi,mono" in out


def test_determiner(capsys):
    rc = cli.main(["determiner", "--algebra", "a3-radsq", "-c", "S(b)", "-y", "P(c)",
                   "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 2
    assert all(r["determined_by_c"] for r in data["classes"])


def test_verify_subset(capsys):
    assert cli.main(["verify", "a2-epi", "a3-linear-ex12"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 2


def test_verify_failure(monkeypatch, capsys):
    bad = dict(catalog.get_instance("a2-epi"), name="a2-bad")
    bad["expect"] = dict(bad["expect"], node_count=9)
    monkeypatch.setitem(catalog.instances(), "a2-bad", bad)
    assert cli.main(["verify", "a2-bad"]) == 4
    assert "FAIL(node_count)" in capsys.readouterr().out


def test_verify_goes_on_past_a_failing_certificate(monkeypatch, capsys):
    real, calls = factor.FactorizationLattice.check_meets, []

    def third_fails(self):
        calls.append(self)
        if len(calls) == 3:
            raise VerificationFailure("meet of classes does not match eta meet")
        return real(self)

    monkeypatch.setattr(factor.FactorizationLattice, "check_meets", third_fails)
    assert cli.main(["verify"]) == 4
    out = capsys.readouterr()
    names = catalog.instance_names()
    lines = out.out.splitlines()
    assert len(lines) == len(names) == 19
    assert lines[2] == "%-24s FAIL(meet of classes does not match eta meet)" % names[2]
    assert [line.split() for k, line in enumerate(lines) if k != 2] == \
        [[name, "ok"] for k, name in enumerate(names) if k != 2]
    assert "verification failed" in out.err


def test_max_dim_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("AUSKIT_CAPS", "12")  # registers restoration of the env
    assert cli.main(["--max-dim", "1", "lattice", "--algebra", "kron3",
                     "-c", "kP(2)", "-y", "kQ(0)"]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_out_of_memory_exit_code(monkeypatch, capsys):
    # an allocation that fails ends like a cap, not in a traceback
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(rep, "direct_sum", out_of_memory)
    assert cli.main(["hom", "--algebra", "kron2", "-c", "P(a)^2", "-y", "S(a)"]) == 3
    assert "cap exceeded: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("c, total", [("P(a)^2000", 2000), ("P(a)^99999999999", 99999999999),
                                      ("0^5000", 5000), ("P(b)^200 ++ P(b)^200", 1200)])
def test_oversized_module_expression_is_refused_before_it_is_built(monkeypatch, capsys, c, total):
    # P(a) and P(b) of kron2 have dimensions 1 and 3; a zero summand counts as one
    direct_sum = rep.direct_sum
    sums = []
    monkeypatch.setattr(rep, "direct_sum", lambda A, parts: sums.append(len(parts)) or direct_sum(A, parts))
    assert cli.main(["hom", "--algebra", "kron2", "-c", c, "-y", "S(a)"]) == 3
    assert "cap exceeded: module of total dimension %d in %r is above the cap 1024" % (total, c) \
        in capsys.readouterr().err
    assert max(sums, default=0) <= 200  # only the parts below the cap were built


@pytest.mark.parametrize("c", ["kP(99999)", "kQ(99999)"])
def test_oversized_kronecker_index_exit_code(capsys, c):
    # P_i and Q_i of kron2 have total dimension 2i + 1, read off before the
    # i // 2 tau steps that would build them
    t0 = time.perf_counter()
    assert cli.main(["hom", "--algebra", "kron2", "-c", c, "-y", "P(a)"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "cap exceeded: %s has total dimension above the cap 1024" % c in capsys.readouterr().err


def test_direct_sums_below_the_module_cap_answer(capsys):
    for k in (20, 25):
        assert cli.main(["hom", "--algebra", "kron2", "-c", "P(a)^%d" % k, "-y", "S(a)"]) == 0
        assert "dim Hom(C,Y) = %d, dim End(C) = %d" % (k, k * k) in capsys.readouterr().out


def test_oversized_hom_system_exit_code(capsys):
    # End(P(a)^50) solves for 50 x 50 generator images, above the Hom system
    # cap; P(a)^20 (400 unknowns) still answers
    assert cli.main(["hom", "--algebra", "kron2", "-c", "P(a)^50", "-y", "S(a)"]) == 3
    assert "cap exceeded: Hom system of 2500 unknowns" in capsys.readouterr().err
    assert cli.main(["hom", "--algebra", "kron2", "-c", "P(a)^20", "-y", "S(a)"]) == 0
    assert "dim Hom(C,Y) = 20, dim End(C) = 400" in capsys.readouterr().out


def test_max_dim_leaves_environment(monkeypatch, capsys):
    monkeypatch.delenv("AUSKIT_CAPS", raising=False)
    assert cli.main(["--max-dim", "1", "lattice", "--algebra", "kron3",
                     "-c", "kP(2)", "-y", "kQ(0)"]) == 3
    assert "AUSKIT_CAPS" not in os.environ
    assert lattice.dim_cap(2) == 12


def test_kronecker_sigma(capsys):
    assert cli.main(["kronecker", "sigma", "-p", "2", "-i", "2", "-j", "0"]) == 0
    assert "match" in capsys.readouterr().out


@pytest.mark.parametrize("flag,index", [("-i", "-1"), ("-j", "-2")])
def test_kronecker_sigma_negative_index_exit_code(capsys, flag, index):
    assert cli.main(["kronecker", "sigma", flag, index]) == 2
    assert capsys.readouterr().err.startswith("error: pre")


def test_kronecker_strongreg(capsys):
    assert cli.main(["kronecker", "strongreg", "-p", "2", "4"]) == 0
    assert "7 strongly regular" in capsys.readouterr().out


def test_kronecker_table_small(capsys):
    assert cli.main(["kronecker", "table", "-p", "2", "--max-sum", "1",
                     "--max-t", "1"]) == 0
    assert "table verified" in capsys.readouterr().out


def test_kronecker_table_over_a_large_field(monkeypatch, capsys):
    # the one irreducible quadratic tube label is the first one drawn: over
    # F_101, x^2 + 2 after x^2 and x^2 + 1, not all 101^2 monic quadratics.
    # The call count pins this; the time bound is loose enough for a loaded
    # machine and still fails when all quadratics are tested (6-8 s)
    calls = []
    monkeypatch.setattr(ffmat, "poly_is_irreducible", _counting(ffmat.poly_is_irreducible, calls))
    t0 = time.perf_counter()
    assert cli.main(["kronecker", "table", "-p", "101", "--max-sum", "0", "--max-t", "0"]) == 0
    assert time.perf_counter() - t0 < 4.0
    assert len(calls) == 3
    assert "table verified" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "auskit.cli", "examples"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "instances:" in proc.stdout


@pytest.mark.parametrize("caps", ["abc", "2:x"])
def test_malformed_caps_exit_code(monkeypatch, capsys, caps):
    monkeypatch.setenv("AUSKIT_CAPS", caps)
    assert cli.main(["lattice", "--algebra", "kron2", "-c", "kP(1)", "-y", "kQ(1)"]) == 2
    assert "error: malformed AUSKIT_CAPS" in capsys.readouterr().err


@pytest.mark.parametrize("c,message", [
    pytest.param("kR(%s, 1)" % label, "error: tube label", id=label) for label in ("7", "2", "x")
] + [
    pytest.param("P(a)^x", "error: exponent 'x'", id="P(a)^x"),
    pytest.param("kP(x)", "error: expected a nonnegative integer", id="kP(x)"),
    pytest.param("kR(1,x)", "error: expected a nonnegative integer", id="kR(1,x)"),
    pytest.param("kP(1,2)", "error: wrong number of arguments to kP", id="kP(1,2)"),
])
def test_bad_tube_label_exit_code(capsys, c, message):
    # malformed -c expressions: bad tube labels, exponents and arguments
    assert cli.main(["hom", "--algebra", "kron2", "-c", c, "-y", "kQ(1)"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("c", ["0", "S(a)^0", "kR(inf,0)"])
def test_zero_c(capsys, c):
    base = ["--algebra", "kron2", "-c", c, "-y", "kQ(1)", "--format", "json"]
    assert cli.main(["hom"] + base) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["hom_dim"], data["length"]) == (0, 0)
    assert cli.main(["lattice"] + base) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["node_count"], data["covers"], data["height"]) == (1, [], 0)
    assert cli.main(["classes"] + base) == 0
    assert json.loads(capsys.readouterr().out)["node_count"] == 1


def test_cli_does_not_import_sympy():
    src = os.path.dirname(os.path.dirname(auskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import auskit.cli, sys; assert 'sympy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
