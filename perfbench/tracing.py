"""Per-layer tracing installed from outside the library.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` in every
``auskit`` module namespace that binds them (``determine`` and ``lattice``
do ``from .ffmat import kernel``, for instance), and wraps ``__init__`` for
classes and the method itself for ``Class.method``.  No file under ``src/``
changes.  Each call becomes a span with a name, start, end, parent and the
index of the benchmark item it ran under.  Spans stay in memory and are
written once, by ``Tracer.write``, when the pass ends.

A layer's ``total_s`` sums its outermost spans (a span nested in a span of
the same name is not counted again); ``self_s`` is its span time minus the
time its child spans cover.  Hooks that read ``Rep.key()`` run before the
span opens, so their cost lands in the caller's self time; the whole cost
of tracing is reported as ``trace.overhead_s``.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

TARGETS = (
    ("ffmat", "rref"),
    ("ffmat", "solve_all"),
    ("ffmat", "kernel"),
    ("ffmat", "Subspace"),
    ("ffmat", "minpoly"),
    ("rep", "hom_space"),
    ("rep", "end_algebra"),
    ("rep", "morphism_coords"),
    ("rep", "hom_matrix_precompose"),
    ("rep", "decompose"),
    ("rep", "is_isomorphic"),
    ("rep", "right_minimalize"),
    ("rep", "right_leq"),
    ("ar", "tau"),
    ("ar", "tau_minus"),
    ("ar", "ExtData"),
    ("ar", "proj_cover"),
    ("determine", "GammaHom"),
    ("determine", "GammaHom.eta"),
    ("determine", "GammaHom.close"),
    ("determine", "GammaHom.simple_data"),
    ("determine", "minimal_determiner"),
    ("determine", "definitional_check"),
    ("lattice", "SubmoduleLattice.build"),
    ("lattice", "rep_submodule_lattice"),
    ("lattice", "SubmoduleLattice.classify"),
    ("factor", "FactorizationLattice.build"),
    ("factor", "FactorizationLattice.check_order_isomorphism"),
    ("factor", "FactorizationLattice.check_meets"),
    ("kronecker", "kP"),
    ("kronecker", "kQ"),
    ("kronecker", "kR"),
    ("catalog", "resolve_instance"),
)

LAYERS = tuple("%s.%s" % t for t in TARGETS)

# The ratio metrics, each with the metric that is its base.
RATIOS = (
    ("rep.hom_space.repeat_ratio", "rep.hom_space.calls"),
    ("rep.decompose.repeat_ratio", "rep.decompose.calls"),
    ("ar.tau_minus.repeat_ratio", "ar.tau_minus.calls"),
    ("lattice.close_yield", "lattice.build.close_calls"),
    ("factor.candidate_yield", "factor.build.eta_calls"),
)

# name -> (unit, better), in the order they are reported.
METRICS = {}
for _layer in LAYERS:
    METRICS[_layer + ".calls"] = ("count", "lower")
    METRICS[_layer + ".total_s"] = ("s", "lower")
    METRICS[_layer + ".self_s"] = ("s", "lower")
METRICS["ffmat.rref.p3_calls"] = ("count", "lower")
for _ratio, _base in RATIOS:
    METRICS[_ratio] = ("ratio", "higher" if _ratio.endswith("yield") else "lower")
    METRICS.setdefault(_base, ("count", "lower"))
METRICS["trace.overhead_s"] = ("s", "lower")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Records a span per call of each wrapped function, plus a few counters."""

    def __init__(self):
        self.names = list(LAYERS) + ["bench.item"]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.nested = array("b")
        self.span_item = array("i")
        self.item = -1
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self.counts = {"ffmat.rref.p3_calls": 0, "lattice.build.close_calls": 0,
                       "lattice.build.new_nodes": 0, "factor.build.eta_calls": 0,
                       "factor.build.classes": 0}
        self._seen = {}
        self.repeats = {}

    # -- recording -------------------------------------------------------------

    def wrap(self, layer, fn, pre=None, post=None):
        nid = self._id[layer]
        start, end, parent, name, nested, items = (
            self.start, self.end, self.parent, self.name, self.nested, self.span_item)
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            nested.append(active[nid] > 0)
            items.append(self.item)
            end.append(0.0)
            active[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                active[nid] -= 1
            if post is not None:
                post(out)
            return out

        return functools.wraps(fn)(traced)

    def _repeat(self, layer, key):
        seen = self._seen.setdefault(layer, set())
        if key in seen:
            self.repeats[layer] = self.repeats.get(layer, 0) + 1
        else:
            seen.add(key)

    def _hooks(self):
        counts, active, ids = self.counts, self._active, self._id
        lat_build = ids["lattice.SubmoduleLattice.build"]
        fl_build = ids["factor.FactorizationLattice.build"]

        def rref(args, kwargs):
            if _arg(args, kwargs, 1, "p") == 3:
                counts["ffmat.rref.p3_calls"] += 1

        def hom_space(args, kwargs):
            x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
            self._repeat("rep.hom_space", (x.key(), y.key()))

        def decompose(args, kwargs):
            self._repeat("rep.decompose", _arg(args, kwargs, 0, "x").key())

        def tau_minus(args, kwargs):
            self._repeat("ar.tau_minus", _arg(args, kwargs, 0, "m").key())

        def close(args, kwargs):
            if active[lat_build]:
                counts["lattice.build.close_calls"] += 1

        def eta(args, kwargs):
            if active[fl_build]:
                counts["factor.build.eta_calls"] += 1

        def lattice_built(lat):
            counts["lattice.build.new_nodes"] += len(lat.nodes) - 1  # the zero node is the seed

        def factor_built(fl):
            counts["factor.build.classes"] += len(fl.classes)

        return {
            "ffmat.rref": (rref, None),
            "rep.hom_space": (hom_space, None),
            "rep.decompose": (decompose, None),
            "ar.tau_minus": (tau_minus, None),
            "determine.GammaHom.close": (close, None),
            "determine.GammaHom.eta": (eta, None),
            "lattice.SubmoduleLattice.build": (None, lattice_built),
            "factor.FactorizationLattice.build": (None, factor_built),
        }

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wraps every target in place; raises if a binding is left unwrapped."""
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "auskit" or n.startswith("auskit.")]
        originals = []
        for (modname, qual), layer in zip(TARGETS, LAYERS):
            mod = importlib.import_module("auskit." + modname)
            pre, post = hooks.get(layer, (None, None))
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__, pre, post)))
                else:
                    setattr(cls, attr, self.wrap(layer, raw, pre, post))
                continue
            obj = getattr(mod, attr)
            if isinstance(obj, type):
                obj.__init__ = self.wrap(layer, obj.__dict__["__init__"], pre, post)
                continue
            wrapped = self.wrap(layer, obj, pre, post)
            originals.append(obj)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is obj:
                        setattr(m, key, wrapped)
        for m in modules:
            for key, val in vars(m).items():
                if any(val is o for o in originals):
                    raise RuntimeError("auskit.%s still binds an unwrapped %s" % (m.__name__, key))

    # -- results ---------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        name = np.frombuffer(self.name, dtype=np.intc)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        return start, end, parent, name, nested

    def metrics(self):
        """Per-layer calls, total_s and self_s, the counters and the ratios."""
        start, end, parent, name, nested = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        out = {}
        for i, layer in enumerate(LAYERS):
            out[layer + ".calls"] = int(calls[i])
            out[layer + ".total_s"] = float(total[i])
            out[layer + ".self_s"] = float(self_s[i])
        c = self.counts
        out["ffmat.rref.p3_calls"] = c["ffmat.rref.p3_calls"]
        out["lattice.build.close_calls"] = c["lattice.build.close_calls"]
        out["factor.build.eta_calls"] = c["factor.build.eta_calls"]
        for layer in ("rep.hom_space", "rep.decompose", "ar.tau_minus"):
            n = out[layer + ".calls"]
            out[layer + ".repeat_ratio"] = self.repeats.get(layer, 0) / n if n else 0.0
        n = c["lattice.build.close_calls"]
        out["lattice.close_yield"] = c["lattice.build.new_nodes"] / n if n else 0.0
        n = c["factor.build.eta_calls"]
        out["factor.candidate_yield"] = c["factor.build.classes"] / n if n else 0.0
        return out

    def write(self, path):
        """Writes every span: name table, name id, start, end, parent span, item."""
        start, end, parent, name, _ = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, item=np.frombuffer(self.span_item, dtype=np.intc))
