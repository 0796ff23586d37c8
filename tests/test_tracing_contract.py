"""The names perfbench/tracing.py wraps must keep resolving in the library.

The tracer wraps every TARGETS entry by attribute and refuses to install if
one is missing, and its hooks read some arguments by name.  The module is
loaded by path, without installing anything.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves():
    for modname, qual in _tracing().TARGETS:
        mod = importlib.import_module("auskit." + modname)
        owner, _, attr = qual.rpartition(".")
        if owner:  # Class.method: wrapped in the class's own namespace
            assert attr in vars(getattr(mod, owner)), qual
            continue
        obj = getattr(mod, attr)
        assert callable(obj), qual
        if isinstance(obj, type):  # classes: their own __init__ is wrapped
            assert "__init__" in vars(obj), qual


def test_hooked_arguments_keep_their_names():
    from auskit import ar, ffmat, rep

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(rep.hom_space)[:2] == ["x", "y"]
    assert params(rep.decompose)[:1] == ["x"]
    assert params(ar.tau_minus)[:1] == ["m"]
    assert params(ffmat.rref)[:2] == ["a", "p"]
