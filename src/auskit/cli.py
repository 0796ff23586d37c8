"""Command-line front end.

Subcommands:
  check-algebra   parse an algebra file or catalog name and summarize it
  hom             dimension and composition structure of Hom(C, Y)
  lattice         the submodule lattice of Hom(C, Y)
  classes         the factorization classes ending in Y, one per submodule
  determiner      minimal determiners of every factorization class
  verify          re-check bundled instances against their recorded facts
  kronecker       shape table, strongly regular families, bijection checks
  examples        list bundled algebras and instances

Exit codes: 0 success, 2 bad input, 3 enumeration cap exceeded,
4 a verification certificate failed.
"""

import argparse
import json
import os
import sys

from . import catalog, determine, factor, kronecker, lattice
from .algebra import parse_algebra_file, parse_module_expr
from .errors import AuskitError, CapExceeded, ParseError, VerificationFailure


def _load_algebra(spec):
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise ParseError("algebra file %s is not UTF-8 text" % spec) from None
        name = os.path.splitext(os.path.basename(spec))[0]
        return parse_algebra_file(text, name=name)
    return catalog.load_catalog_algebra(spec)


def _modules(args):
    algebra = _load_algebra(args.algebra)
    env = catalog.module_env(algebra)
    c = parse_module_expr(algebra, args.c, env)
    y = parse_module_expr(algebra, args.y, env)
    return algebra, c, y


def _emit(args, payload, text_fn):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn(payload)


def cmd_check_algebra(args):
    algebra = _load_algebra(args.algebra)
    q = algebra.quiver
    print("algebra %s over F_%d" % (algebra.name, algebra.p))
    print("vertices: %s" % " ".join(q.vertices))
    for name, u, w in q.arrows:
        print("arrow %s: %s -> %s" % (name, q.vertices[u], q.vertices[w]))
    print("dimension %d" % len(algebra.basis))
    for v, vn in enumerate(q.vertices):
        print("P(%s) dims %s   Q(%s) dims %s"
              % (vn, algebra.proj(v).dim_vector(), vn, algebra.inj(v).dim_vector()))
    return 0


def cmd_hom(args):
    _, c, y = _modules(args)
    gh = determine.GammaHom(c, y)
    jh = gh.jh_between(gh.zero_sub(), gh.full_sub())
    labels = gh.labels()
    payload = {
        "hom_dim": gh.n,
        "end_dim": len(gh.end),
        "length": sum(jh.values()),
        "composition": {str(list(labels[k])): int(v) for k, v in sorted(jh.items())},
    }

    def show(d):
        print("dim Hom(C,Y) = %d, dim End(C) = %d" % (d["hom_dim"], d["end_dim"]))
        print("length %d with factors:" % d["length"])
        for lab, mult in d["composition"].items():
            print("  %s x%d" % (lab, mult))

    _emit(args, payload, show)
    return 0


def _build_lattice(args):
    _, c, y = _modules(args)
    gh = determine.GammaHom(c, y)
    return lattice.SubmoduleLattice.build(gh)


def cmd_lattice(args):
    lat = _build_lattice(args)
    if args.format == "dot":
        print(lat.to_dot())
        return 0
    payload = lat.to_json()

    def show(d):
        print("%d submodules, shape %s, height %d"
              % (d["node_count"], tuple(d["shape"]), d["height"]))
        counts = {}
        for nd in d["nodes"]:
            counts[nd["dim"]] = counts.get(nd["dim"], 0) + 1
        print("nodes by dimension: %s" % counts)
        print("%d cover relations" % len(d["covers"]))

    _emit(args, payload, show)
    return 0


def cmd_classes(args):
    _, c, y = _modules(args)
    fl = factor.FactorizationLattice.build(c, y, certify=not args.no_certify)
    payload = fl.to_json()

    def show(d):
        print("%d classes (shape %s)" % (d["node_count"], tuple(d["shape"])))
        for cl in d["classes"]:
            tags = [t for t in ("epi", "mono") if cl[t]]
            print("  [%d] source %s  kernel %s  |f|_C=%d  %s"
                  % (cl["index"], cl["source"], cl["kernel"], cl["c_length"],
                     ",".join(tags)))

    _emit(args, payload, show)
    return 0


def cmd_determiner(args):
    _, c, y = _modules(args)
    fl = factor.FactorizationLattice.build(c, y, certify=not args.no_certify)
    rows = []
    for i, rc in enumerate(fl.classes):
        parts = determine.minimal_determiner(rc.f)
        rows.append({
            "class": i,
            "source": list(rc.source.dim_vector()),
            "determiner_parts": [list(s.dim_vector()) for s in parts],
            "determined_by_c": determine.is_right_determined(rc.f, c),
        })
    payload = {"classes": rows}

    def show(d):
        for r in d["classes"]:
            print("  [%d] source %s  C(f) parts %s  within add C: %s"
                  % (r["class"], r["source"],
                     r["determiner_parts"], r["determined_by_c"]))

    _emit(args, payload, show)
    return 0


def cmd_verify(args):
    names = args.instance or catalog.instance_names()
    ok = True
    for name in names:
        try:
            rpt = catalog.check_instance(name, certify=not args.no_certify)
            failures = rpt["failures"]
        except VerificationFailure as exc:  # a broken certificate fails this instance only
            failures = [str(exc)]
        print("%-24s %s" % (name, "FAIL(%s)" % ",".join(failures) if failures else "ok"))
        ok = ok and not failures
    if not ok:
        raise VerificationFailure("some instances disagreed with their recorded facts")
    return 0


def cmd_kronecker(args):
    if args.what == "table":
        rows, ok = kronecker.verify_table(args.p, max_sum=args.max_sum, max_t=args.max_t)
        payload = {"rows": rows, "ok": ok}

        def show(d):
            for r in d["rows"]:
                mark = "" if r["ok"] else "  <-- MISMATCH"
                print("Hom(%s, %s): dim %d, shape %s%s"
                      % (r["c"], r["y"], r["hom_dim"], tuple(r["shape"]), mark))
            print("table %s" % ("verified" if d["ok"] else "BROKEN"))

        _emit(args, payload, show)
        if not ok:
            raise VerificationFailure("shape table mismatch")
        return 0
    if args.what == "strongreg":
        A = kronecker.kronecker_algebra(2, args.p)
        fam = kronecker.enumerate_strongly_regular(A, args.total_dim)
        payload = {"count": len(fam),
                   "members": [[[str(lab), t] for lab, t in labs] for _, labs in fam]}

        def show(d):
            print("%d strongly regular modules of total dimension %d"
                  % (d["count"], args.total_dim))
            for labs in d["members"]:
                print("  " + " + ".join("R[%s,%s]" % (l, t) for l, t in labs))

        _emit(args, payload, show)
        return 0
    A = kronecker.kronecker_algebra(2, args.p)
    rpt = kronecker.sigma_check(A, args.i, args.j)
    print("P_%d -> Q_%d: %d length-one classes, %d strongly regular modules "
          "of dimension %d: %s"
          % (args.i, args.j, rpt["classes"], rpt["family"], rpt["dim"],
             "match" if rpt["ok"] else "MISMATCH"))
    if not rpt["ok"]:
        raise VerificationFailure("length-one classes do not match the regular family")
    return 0


def cmd_examples(args):
    print("algebras:")
    for name in catalog.algebra_names():
        print("  " + name)
    print("instances:")
    for name in catalog.instance_names():
        inst = catalog.get_instance(name)
        print("  %-24s %s: C = %s, Y = %s" % (name, inst["algebra"], inst["c"], inst["y"]))
    return 0


def _add_module_args(sp):
    sp.add_argument("--algebra", required=True, help="catalog name or .alg file path")
    sp.add_argument("-c", "--C", dest="c", required=True,
                    help="module expression for C")
    sp.add_argument("-y", "--Y", dest="y", required=True,
                    help="module expression for Y")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    ap = argparse.ArgumentParser(prog="auskit", description=__doc__.splitlines()[0])
    ap.add_argument("--max-dim", type=int, default=None,
                    help="override the per-prime Hom dimension cap")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-algebra", help="parse and summarize an algebra")
    sp.add_argument("algebra")
    sp.set_defaults(fn=cmd_check_algebra)

    sp = sub.add_parser("hom", help="composition structure of Hom(C, Y)")
    _add_module_args(sp)
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("lattice", help="submodule lattice of Hom(C, Y)")
    _add_module_args(sp)
    sp.add_argument("--dot", dest="format", action="store_const", const="dot",
                    help="emit graphviz instead of text")
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("classes", help="factorization classes ending in Y")
    _add_module_args(sp)
    sp.add_argument("--no-certify", action="store_true",
                    help="skip the pairwise order and meet certificates")
    sp.set_defaults(fn=cmd_classes)

    sp = sub.add_parser("determiner", help="minimal determiners per class")
    _add_module_args(sp)
    sp.add_argument("--no-certify", action="store_true")
    sp.set_defaults(fn=cmd_determiner)

    sp = sub.add_parser("verify", help="re-check bundled instances")
    sp.add_argument("instance", nargs="*", help="instance names (default: all)")
    sp.add_argument("--no-certify", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("kronecker", help="two-arrow family checks")
    ksub = sp.add_subparsers(dest="what", required=True)
    kt = ksub.add_parser("table", help="recompute the shape table")
    kt.add_argument("-p", type=int, default=2)
    kt.add_argument("--max-sum", type=int, default=3)
    kt.add_argument("--max-t", type=int, default=3)
    kt.add_argument("--format", choices=("text", "json"), default="text")
    ks = ksub.add_parser("sigma", help="length-one classes vs regular modules")
    ks.add_argument("-p", type=int, default=2)
    ks.add_argument("-i", type=int, default=2)
    ks.add_argument("-j", type=int, default=0)
    kr = ksub.add_parser("strongreg", help="list strongly regular modules")
    kr.add_argument("-p", type=int, default=2)
    kr.add_argument("total_dim", type=int)
    kr.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_kronecker)

    sp = sub.add_parser("examples", help="list bundled algebras and instances")
    sp.set_defaults(fn=cmd_examples)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    saved_caps = os.environ.get("AUSKIT_CAPS")
    if args.max_dim is not None:
        os.environ["AUSKIT_CAPS"] = str(args.max_dim)
    try:
        return args.fn(args)
    except (ParseError, AuskitError) as exc:
        if isinstance(exc, CapExceeded):
            print("cap exceeded: %s" % exc, file=sys.stderr)
            return 3
        if isinstance(exc, VerificationFailure):
            print("verification failed: %s" % exc, file=sys.stderr)
            return 4
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("cap exceeded: out of memory", file=sys.stderr)
        return 3
    finally:
        if saved_caps is None:
            os.environ.pop("AUSKIT_CAPS", None)
        else:
            os.environ["AUSKIT_CAPS"] = saved_caps


if __name__ == "__main__":
    sys.exit(main())
