"""Bundled algebra files and worked instances.

Each catalog algebra lives in data/catalog/<name>.alg; instances.json records
(C, Y) pairs with expected lattice facts.  An instance's "source" says where
the expectation comes from: "reference" facts restate the worked account the
toolkit is checked against, "computed" facts were derived here and frozen.
"""

import functools
import json
from importlib import resources

from . import factor, kronecker, lattice, rep
from .algebra import parse_algebra_file, parse_module_expr
from .errors import AuskitError, ParseError

_DATA = resources.files(__package__).joinpath("data/catalog")


def algebra_names():
    return sorted(p.name[: -len(".alg")] for p in _DATA.iterdir() if p.name.endswith(".alg"))


@functools.lru_cache(maxsize=None)
def load_catalog_algebra(name):
    path = _DATA.joinpath(name + ".alg")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise AuskitError("no catalog algebra named %r (have: %s)" % (name, ", ".join(algebra_names())))
    return parse_algebra_file(text, name=name)


def _count(a):
    """An index argument of a module expression name: a nonnegative integer."""
    if not isinstance(a, int):
        raise ParseError("expected a nonnegative integer, got %r" % (a,))
    return a


def module_env(algebra):
    """Names usable in module expressions for this algebra."""
    env = {}
    arrows = algebra.quiver.arrows
    if len(algebra.quiver.vertices) == 2 and arrows and all(a[1:] == (1, 0) for a in arrows):
        env["kP"] = lambda i: kronecker.kP(algebra, _count(i))
        env["kQ"] = lambda j: kronecker.kQ(algebra, _count(j))
        if len(arrows) == 2:
            env["kR"] = lambda lab, t=1: kronecker.kR(algebra, lab, _count(t))
    return env


def build_module(algebra, expr):
    return parse_module_expr(algebra, expr, module_env(algebra))


@functools.lru_cache(maxsize=None)
def instances():
    text = _DATA.joinpath("instances.json").read_text()
    data = json.loads(text)
    return {inst["name"]: inst for inst in data}


def instance_names():
    return list(instances())


def get_instance(name):
    try:
        return instances()[name]
    except KeyError:
        raise AuskitError("no catalog instance named %r" % name)


def resolve_instance(name):
    """Returns (algebra, C, Y) for a named instance."""
    inst = get_instance(name)
    algebra = load_catalog_algebra(inst["algebra"])
    c = build_module(algebra, inst["c"])
    y = build_module(algebra, inst["y"])
    return algebra, c, y


def check_instance(name, certify=True):
    """Build an instance's factorization lattice and compare expected facts.

    Returns a report with the computed facts and a list of failed keys
    (empty when everything matched).
    """
    inst = get_instance(name)
    algebra, c, y = resolve_instance(name)
    fl = factor.FactorizationLattice.build(c, y, certify=certify)
    zero = fl.zero_class
    facts = {
        "node_count": len(fl.lat),
        "shape": list(lattice.canonical_shape(fl.lat.classify())),
        "epi_classes": fl.epi_class_indices(),
        "mono_classes": [i for i, rc in enumerate(fl.classes) if rc.is_mono],
        "length_one_count": len(fl.length_one_indices()),
        "covers_count": len(fl.lat.covers()),
        "gamma_length": fl.c_length(0),
        "label_count": len(fl.gh.jh_between(fl.lat.nodes[fl.lat.zero_i],
                                            fl.lat.nodes[fl.lat.full_i])),
    }
    failures = []
    for key, want in inst.get("expect", {}).items():
        if key in ("zero_source", "zero_kernel"):
            target = zero.source if key == "zero_source" else zero.kernel
            if not rep.is_isomorphic(target, build_module(algebra, want)):
                failures.append(key)
        elif facts.get(key) != want:
            failures.append(key)
    return {"name": name, "ok": not failures, "failures": failures, "facts": facts}
