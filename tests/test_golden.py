"""Golden CLI outputs: every recorded command must print the same bytes.

The files under tests/data/golden/ hold the stdout of `auskit hom --format
json`, `classes --format json` and `determiner` for each catalog instance
other than subspace3-ex21 (the slowest), of `auskit verify`, and of the
F_3 `kronecker table --format json`.  lattices.sha256 holds one digest per
lattice: the node keys in order, `leq` and `covers()` of every Gamma-lattice
`kronecker.verify_table(p, 3, 3)` builds for p = 2, 3, and the node keys in
order of `lattice.rep_submodule_lattice` on each catalog instance's Y and C.
random-basis.txt holds one digest per module and per map over seeded
random-basis modules of kron2, loop-b and k[x]/x^3 over F_2 and F_3: the
module's tau, tau-minus, projective cover and top, and the kernel, image and
cokernel (with their structure maps) of basis maps of Hom between them.  On
those modules the generators, the sub-representation bases and the
quotient coordinates are not unit vectors, so the file pins those choices
where the catalog outputs cannot.  algebras.txt holds one digest per catalog
algebra and per opposite: its multiplication table, its unit, and the
content keys of every projective P(v), injective Q(v) and right
multiplication by an arrow.  classes.txt holds one line per factorization
class of every catalog instance, subspace3-ex21 included: the dimension
vectors and content keys of its source and kernel, whether it is epi or
mono, and its C-length.  After a deliberate output change,
rewrite them all with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

import numpy as np
import pytest

from auskit import ar, catalog, cli, kronecker, lattice, rep
from auskit.errors import CapExceeded
from helpers import catalog_lattice
from test_lattice_oracle import CASES as RANDOM_CASES, _modules

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
SKIPPED = ("subspace3-ex21",)


def _module_cases():
    for name in catalog.instance_names():
        if name in SKIPPED:
            continue
        inst = catalog.get_instance(name)
        base = ["--algebra", inst["algebra"], "-c", inst["c"], "-y", inst["y"]]
        yield name + ".hom.json", ["hom"] + base + ["--format", "json"]
        yield name + ".classes.json", ["classes"] + base + ["--format", "json"]
        yield name + ".determiner.txt", ["determiner"] + base


CASES = list(_module_cases()) + [
    ("verify.txt", ["verify"]),
    ("kronecker-table-p3.json", ["kronecker", "table", "-p", "3", "--format", "json"]),
]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


LATTICE_DIGEST = "lattices.sha256"


def _node_lines(nodes):
    for s in nodes:
        shape, raw = s.key()[1]
        yield "%d %d %s %s" % (s.n, s.p, shape, raw.hex())


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _kronecker_lattices():
    """(label, lattice) for every Gamma-lattice verify_table(p, 3, 3) builds."""
    real = lattice.SubmoduleLattice.build.__func__
    out = []
    for p in (2, 3):
        built = []

        def recording(cls, gh):
            built.append(real(cls, gh))
            return built[-1]

        with mock.patch.object(lattice.SubmoduleLattice, "build", classmethod(recording)):
            rows, _ = kronecker.verify_table(p, 3, 3)
        if len(built) != len(rows):
            raise RuntimeError("expected one lattice per table row")
        out += [("F_%d %s -> %s" % (p, r["c"], r["y"]), lat) for r, lat in zip(rows, built)]
    return out


def lattice_digest_text():
    lines = []
    for label, lat in _kronecker_lattices():
        body = list(_node_lines(lat.nodes))
        body.append(np.packbits(lat.leq).tobytes().hex())
        body.append(repr(lat.covers()))
        lines.append("gamma %s nodes=%d covers=%d %s"
                     % (label, len(lat), len(lat.covers()), _digest(body)))
    for name in catalog.instance_names():
        _, c, y = catalog.resolve_instance(name)
        for side, x in (("Y", y), ("C", c)):
            try:
                nodes = lattice.rep_submodule_lattice(x)
            except CapExceeded:
                lines.append("rep %s %s cap" % (name, side))
                continue
            lines.append("rep %s %s nodes=%d %s"
                         % (name, side, len(nodes), _digest(_node_lines(nodes))))
    return "".join(line + "\n" for line in lines)


RANDOM_BASIS = "random-basis.txt"


def _fingerprint(*objs):
    """Short digest of the content keys of Reps and Morphisms."""
    return hashlib.sha256(repr([o.key() for o in objs]).encode()).hexdigest()[:16]


def random_basis_text():
    lines = []
    for name, p in RANDOM_CASES:
        _, mods = _modules(name, p, 6, 4, seed=40 + p)
        for i, x in enumerate(mods):
            p0, cover, _ = ar.proj_cover(x)
            lines.append("%s F_%d m%d %s tau=%s tau_minus=%s cover=%s top=%s" % (
                name, p, i, x.dim_vector(), _fingerprint(ar.tau(x)), _fingerprint(ar.tau_minus(x)),
                _fingerprint(p0, cover), _fingerprint(*rep.top(x))))
        for i, x in enumerate(mods):
            for j in (i, (i + 1) % len(mods)):
                hom = rep.hom_space(x, mods[j])
                maps = list(hom)[:3]
                if len(hom) > 1:
                    maps.append(hom.element([1] * len(hom)))
                for k, f in enumerate(maps):
                    lines.append("%s F_%d m%d->m%d f%d ker=%s im=%s coker=%s" % (
                        name, p, i, j, k, _fingerprint(*rep.kernel(f)), _fingerprint(*rep.image(f)),
                        _fingerprint(*rep.cokernel(f))))
    return "".join(line + "\n" for line in lines)


ALGEBRAS = "algebras.txt"


def algebras_text():
    lines = []
    for name in catalog.algebra_names():
        a = catalog.load_catalog_algebra(name)
        for alg in (a, a.opposite()):
            mods = [alg.proj(v) for v in range(alg.nv)] + [alg.inj(v) for v in range(alg.nv)]
            maps = [alg.right_mult(ai) for ai in range(len(alg.quiver.arrows))]
            body = [repr(alg.mul_table.tolist()), repr(alg.unit.tolist()), _fingerprint(*mods, *maps)]
            lines.append("%s dim=%d %s" % (alg.name, alg.dim, _digest(body)))
    return "".join(line + "\n" for line in lines)


CLASS_FACTS = "classes.txt"


def class_facts_text():
    lines = []
    for name in catalog.instance_names():
        fl = catalog_lattice(name)
        for i, rc in enumerate(fl.classes):
            lines.append("%s %d source=%s %s kernel=%s %s epi=%d mono=%d c_length=%d" % (
                name, i, rc.source.dim_vector(), _fingerprint(rc.source), rc.kernel.dim_vector(),
                _fingerprint(rc.kernel), rc.is_epi, rc.is_mono, fl.c_length(i)))
    return "".join(line.replace(", ", ",") + "\n" for line in lines)


def test_class_facts():
    with open(os.path.join(GOLDEN, CLASS_FACTS)) as fh:
        want = fh.read()
    assert class_facts_text() == want


def test_algebras_digest():
    with open(os.path.join(GOLDEN, ALGEBRAS)) as fh:
        want = fh.read()
    assert algebras_text() == want


def test_random_basis_digest():
    with open(os.path.join(GOLDEN, RANDOM_BASIS)) as fh:
        want = fh.read()
    assert random_basis_text() == want


def test_lattice_digest():
    with open(os.path.join(GOLDEN, LATTICE_DIGEST)) as fh:
        want = fh.read()
    assert lattice_digest_text() == want


@pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(fname, argv):
    code, out = _run(argv)
    assert code == 0
    with open(os.path.join(GOLDEN, fname)) as fh:
        want = fh.read()
    assert out == want


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    for fname, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), code))
        with open(os.path.join(GOLDEN, fname), "w") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, LATTICE_DIGEST), "w") as fh:
        fh.write(lattice_digest_text())
    with open(os.path.join(GOLDEN, RANDOM_BASIS), "w") as fh:
        fh.write(random_basis_text())
    with open(os.path.join(GOLDEN, ALGEBRAS), "w") as fh:
        fh.write(algebras_text())
    with open(os.path.join(GOLDEN, CLASS_FACTS), "w") as fh:
        fh.write(class_facts_text())
    print("wrote %d files to %s" % (len(CASES) + 4, GOLDEN))


if __name__ == "__main__":
    sys.exit(main())
