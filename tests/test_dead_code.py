"""No dead code in src/auskit: every module-level function is named somewhere
in the library outside its own body, is a TARGETS entry of
perfbench/tracing.py, which wraps it by name, or is public API listed in
PUBLIC (and in the README's library layout).  A function only its tests read
belongs in tests/helpers.py."""

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
