"""One Hom constructor: inside the library a HomSpace is built only by
rep.hom_space, so its canonical rows are the only coordinate reader."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "auskit"


def _builders(tree, name):
    """The top-level definitions of a module that call name(...), directly or
    as an attribute."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name):
                    out.append(getattr(top, "name", "<module>"))
    return out


def test_homspace_is_built_only_by_hom_space():
    found = [(f.name, d) for f in sorted(SRC.glob("*.py"))
             for d in _builders(ast.parse(f.read_text(), str(f)), "HomSpace")]
    assert found == [("rep.py", "hom_space")]
    # the guard sees the calls it forbids
    assert _builders(ast.parse("def f(x):\n    return rep.HomSpace(x, x, m)"), "HomSpace") == ["f"]
    assert _builders(ast.parse("class E:\n    def g(self):\n        HomSpace(1)"), "HomSpace") == ["E"]
    assert _builders(ast.parse("h = HomSpace(1)"), "HomSpace") == ["<module>"]
