"""numpy is the only runtime dependency: every import in the library is
relative, numpy, or a module of the standard library.  Every import sits at
module level, so a module's dependencies are read from its head."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "auskit"


def _outside(node):
    """The absolute top-level module names an import statement reads."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="sys.stdlib_module_names is new in Python 3.10")
def test_imports_are_relative_numpy_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = ["%s:%d %s" % (f.name, node.lineno, name)
             for f in files for node in ast.walk(ast.parse(f.read_text(), str(f)))
             for name in _outside(node) if name not in allowed]
    assert not found, found
    # the guard sees the imports it allows
    assert _outside(ast.parse("import numpy as np").body[0]) == ["numpy"]
    assert _outside(ast.parse("from . import rep").body[0]) == []
    assert _outside(ast.parse("from scipy.linalg import lu").body[0]) == ["scipy"]


def _nested_imports(tree):
    """The line numbers of the import statements inside a function body."""
    return sorted({node.lineno for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_import_inside_a_function():
    found = ["%s:%d" % (f.name, line) for f in sorted(SRC.glob("*.py"))
             for line in _nested_imports(ast.parse(f.read_text(), str(f)))]
    assert not found, found
    # the guard sees a nested import at any depth, and only there
    assert _nested_imports(ast.parse("def f():\n    if x:\n        from . import ar\n")) == [3]
    assert _nested_imports(ast.parse("def f():\n    def g():\n        import random\n")) == [3]
    assert _nested_imports(ast.parse("import random\nclass C:\n    def f(self):\n        pass\n")) == []
