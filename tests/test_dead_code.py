"""No dead code in src/auskit: every module-level function is named somewhere
in the library outside its own body, is a TARGETS entry of
perfbench/tracing.py, which wraps it by name, or is public API listed in
PUBLIC (and in the README's library layout).  Every method of a class, dunder
methods aside, is read as an attribute somewhere in the library outside its
own body, or is public API listed in PUBLIC_METHODS (and in the README).  A
function or method only its tests read belongs in tests/helpers.py."""

import ast
import functools
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "auskit"
TRACING = ROOT / "perfbench" / "tracing.py"

# public API that no pipeline path calls: checks and constructions offered to
# library users, each with its own tests
PUBLIC = {
    "ar": ["ar_formula_check", "is_injective", "min_right_almost_split"],
    "factor": ["is_fork", "is_cofork", "kernel_comparison"],
    "kronecker": ["defect", "tube_of"],
    "lattice": ["maximal_submodules"],
    "rep": ["structure", "is_split_mono", "join_map"],
}

# public methods that the library never reads, each with its own tests
PUBLIC_METHODS = {
    "algebra": ["Algebra.memo_stats"],
    "factor": ["FactorizationLattice.top_class"],
    "lattice": ["SubmoduleLattice.check_modular"],
}


def _traced(modname):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {qual for m, qual in mod.TARGETS if m == modname}


def _names(tree, skip=None):
    """Every identifier a tree reads (names, attributes, imported names),
    except inside the node skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


@functools.lru_cache(maxsize=None)
def _named(source):
    """The identifiers a source text reads, parsed once per text."""
    return _names(ast.parse(source))


def _attributes(tree, skip=None):
    """Every attribute name a tree reads, except inside the node skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and id(n) not in inside}


@functools.lru_cache(maxsize=None)
def _read_attributes(source):
    """The attribute names a source text reads, parsed once per text."""
    return _attributes(ast.parse(source))


def unread_methods(module, sources):
    """The methods "Class.name" of the classes of module (a source text),
    dunder methods aside, whose name no text of sources reads as an attribute
    and module reads as one only inside their own body."""
    tree = ast.parse(module)
    read = set().union(*map(_read_attributes, sources))
    return [cls.name + "." + fn.name for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in read | _attributes(tree, fn)]


def unreached(module, sources, traced):
    """The module-level functions of module (a source text) that no text of
    sources names, that module names only inside their own body, and that
    are not traced."""
    tree = ast.parse(module)
    named = set().union(*map(_named, sources))
    return [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name not in named | traced and fn.name not in _names(tree, fn)]


def test_every_function_is_reached_or_public():
    modules = sorted(SRC.glob("*.py"))
    assert {f.stem for f in modules} >= set(PUBLIC)
    for f in modules:
        others = [g.read_text() for g in modules if g != f]
        # exact, so that a PUBLIC entry the library starts to call is dropped
        assert unreached(f.read_text(), others, _traced(f.stem)) == PUBLIC.get(f.stem, []), f.stem
    # the guard sees a function named only in its own body, and only that one
    text = "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h()\n\ndef h():\n    pass\n"
    assert unreached(text, [], set()) == ["f", "g"]
    assert unreached(text, ["from .m import g"], set()) == ["f"]
    assert unreached(text, ["m.f(1)"], {"g"}) == []


def test_every_method_is_read_or_public():
    modules = sorted(SRC.glob("*.py"))
    assert {f.stem for f in modules} >= set(PUBLIC_METHODS)
    for f in modules:
        others = [g.read_text() for g in modules if g != f]
        # exact, so that a PUBLIC_METHODS entry the library starts to read is dropped
        assert unread_methods(f.read_text(), others) == PUBLIC_METHODS.get(f.stem, []), f.stem
    # the guard sees a method read only in its own body, or not as an attribute
    text = ("class C:\n    def __init__(self):\n        self.g()\n\n"
            "    def f(self):\n        return self.f()\n\n    def g(self):\n        pass\n\n"
            "    @property\n    def h(self):\n        return 1\n")
    assert unread_methods(text, []) == ["C.f", "C.h"]
    assert unread_methods(text, ["x.h"]) == ["C.f"]
    assert unread_methods(text, ["h = f"]) == ["C.f", "C.h"]
