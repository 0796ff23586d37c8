"""No module of src/auskit reads another module's private name (one with a
leading underscore, dunders aside) outside the explicit list ALLOWED, so
that new coupling between modules shows up in review: a read through an
imported sibling module (rep._sub_rep) and an import of the name itself
(from .rep import _sub_rep) both count."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "auskit"

# reader module -> the private names of other modules it reads
ALLOWED = {
    "ar": {"rep._compose_rows", "rep._generator_system", "rep._last_nonzero", "rep._vertex_blocks"},
    "determine": {"rep._compose_rows"},
    "factor": {"determine._rad_is_projective", "determine._socle_witness", "determine._strict_by_hom"},
    "lattice": {"rep._sub_rep"},
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """The names "module._name" that a source text reads from the sibling
    modules it imports (by `from . import m [as n]` or `from .m import _name`)."""
    tree = ast.parse(source)
    siblings, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    out.add("%s.%s" % (node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            out.add("%s.%s" % (siblings[node.value.id], node.attr))
    return out


def test_private_reads_across_modules_are_listed():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        reads = private_reads(path.read_text())
        if reads:
            found[path.stem] = reads
    assert found == ALLOWED


def test_the_guard_sees_both_forms_of_read():
    source = ("from . import rep as r, ffmat\nfrom .lattice import _search, dim_cap\n"
              "r._sub_rep(x)\nffmat.rref(a)\nr.__name__\nx._private\n")
    assert private_reads(source) == {"rep._sub_rep", "lattice._search"}
