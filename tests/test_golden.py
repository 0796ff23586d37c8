"""Golden CLI outputs: every recorded command must print the same bytes.

The files under tests/data/golden/ hold the stdout of `auskit hom --format
json`, `classes --format json` and `determiner` for each catalog instance
other than subspace3-ex21 (the slowest), of `auskit verify`, and of the
F_3 `kronecker table --format json`.  After a deliberate output change,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from auskit import catalog, cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
SKIPPED = ("subspace3-ex21",)


def _module_cases():
    for name in catalog.instance_names():
        if name in SKIPPED:
            continue
        inst = catalog.get_instance(name)
        base = ["--algebra", inst["algebra"], "-c", inst["c"], "-y", inst["y"]]
        yield name + ".hom.json", ["hom"] + base + ["--format", "json"]
        yield name + ".classes.json", ["classes"] + base + ["--format", "json"]
        yield name + ".determiner.txt", ["determiner"] + base


CASES = list(_module_cases()) + [
    ("verify.txt", ["verify"]),
    ("kronecker-table-p3.json", ["kronecker", "table", "-p", "3", "--format", "json"]),
]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(fname, argv):
    code, out = _run(argv)
    assert code == 0
    with open(os.path.join(GOLDEN, fname)) as fh:
        want = fh.read()
    assert out == want


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    for fname, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), code))
        with open(os.path.join(GOLDEN, fname), "w") as fh:
            fh.write(out)
    print("wrote %d files to %s" % (len(CASES), GOLDEN))


if __name__ == "__main__":
    sys.exit(main())
