"""No assert statement in the library: `python -O` strips them, so every
internal invariant raises VerificationFailure instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "auskit"


def test_no_assert_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = ["%s:%d" % (f.name, node.lineno)
             for f in files for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Assert)]
    assert not found, found
