"""The auskit benchmark: three workloads timed from cold passes, plus a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-verify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each pass is a fresh interpreter (worker.py) that imports the library from
``src/``, loads the catalog and runs every item of the workload once, so no
memo survives from one pass to the next.  Passes run one at a time, one
worker process, BLAS threads pinned to 1.  With ``--trace 0`` a run first
starts the interpreter ``SETUP_RUNS`` times for set-up alone, then runs
passes back to back while the next one is expected to end within
``--seconds``.  Every time a worker reports is multiplied by
``REFERENCE_MS / median(its probe times)`` (see probe.py), which cancels the
drift of a shared machine's speed; the raw medians and the speed factor are
printed on standard error.
With ``--trace 1`` it runs one plain pass and one traced pass with the same
seed, reports the per-layer metrics of the traced one and writes its spans
to ``perfbench/out/trace-<workload>.npz``.

Every answer is checked (see workloads.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the metrics and the environment are also printed, by name and
unit, on standard error.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
from probe import REFERENCE_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("catalog-verify", "determiner-sweep", "kronecker-table")

# name -> unit, in the order they are reported.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "item_gmean_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

SETUP_RUNS = 3
# Every run must end within 180 s; a pass still going at this point is killed.
DEADLINE_S = 170

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # set and dict orders must not vary between runs, so that call counts repeat
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def spawn(workload, seed, deadline, setup_only=False, trace_path=None, only=()):
    """Runs worker.py once and returns its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if only:
        cmd += ["--only", ",".join(only)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **WORKER_ENV),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass did not end in time" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with code %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s worker printed no result line" % workload)


def digest(items):
    """An order-independent digest of every item's answer."""
    text = json.dumps(sorted((i["id"], i["answer"]) for i in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tally(passes):
    """(attempted, failed, problems); every pass of a run must give the same answers."""
    items = [i for p in passes for i in p["items"]]
    if not items:
        raise BenchError("the workload has no items")
    problems = ["%s: %s" % (i["id"], "; ".join(i["problems"])) for i in items if i["problems"]]
    failed = sum(1 for i in items if i["problems"])
    digests = {digest(p["items"]) for p in passes}
    if len(digests) > 1:
        problems.append("answers differ between passes: %s" % sorted(digests))
    return len(items), failed, problems


def speed(p):
    """The factor that rescales a worker's times to the reference speed."""
    return REFERENCE_MS / statistics.median(p["probes_ms"])


def summarize(passes, setups, scale=speed):
    """The end-to-end metrics of a run; ``scale(p)`` rescales the times of worker p."""
    median = statistics.median
    # An item's time is its median over the passes, which repeat the same work.
    item_ms = {}
    for p in passes:
        for i in p["items"]:
            item_ms.setdefault(i["id"], []).append(i["ms"] * scale(p))
    item_ms = sorted(median(v) for v in item_ms.values())
    return {
        "wall_s": median(p["wall_s"] * scale(p) for p in passes),
        "setup_s": median(p["setup_s"] * scale(p) for p in setups + passes),
        "item_gmean_ms": math.exp(statistics.fmean(math.log(t) for t in item_ms)),
        "item_p90_ms": statistics.quantiles(item_ms, n=10, method="inclusive")[-1]
        if len(item_ms) > 1 else item_ms[0],
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def timed_run(workload, seed, seconds, deadline):
    t0 = time.monotonic()
    setups = [spawn(workload, seed, deadline, setup_only=True) for _ in range(SETUP_RUNS)]
    passes, lengths = [], []
    while True:
        t = time.monotonic()
        passes.append(spawn(workload, seed, deadline))
        lengths.append(time.monotonic() - t)
        expect_end = time.monotonic() + statistics.median(lengths)
        if expect_end - t0 > seconds or expect_end > deadline:
            break
    metrics = summarize(passes, setups)
    raw = summarize(passes, setups, scale=lambda p: 1.0)
    attempted, failed, problems = tally(passes)
    note = "%d passes, %d set-ups, answers %s, speed factor %.4g\n  raw: %s" % (
        len(passes), len(setups) + len(passes), digest(passes[0]["items"]),
        statistics.median(speed(p) for p in passes),
        " ".join("%s=%.6g" % kv for kv in raw.items()))
    return attempted, failed, problems, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, note


def traced_run(workload, seed, deadline):
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, trace_path=OUT / ("trace-%s.npz" % workload))
    overhead = traced["wall_s"] * speed(traced) - plain["wall_s"] * speed(plain)
    layers = dict(traced["layers"], **{"trace.overhead_s": overhead})
    attempted, failed, problems = tally([plain, traced])
    metrics = {k: (layers[k], unit) for k, (unit, _) in tracing.METRICS.items()}
    note = "spans in %s, answers %s" % (
        (OUT / ("trace-%s.npz" % workload)).relative_to(ROOT), digest(traced["items"]))
    return attempted, failed, problems, metrics, note


def environment():
    versions = []
    for pkg in ("numpy", "sympy"):
        try:
            versions.append("%s %s" % (pkg, metadata.version(pkg)))
        except metadata.PackageNotFoundError:
            versions.append("%s missing" % pkg)
    return "python %s, %s, %d CPUs usable" % (
        platform.python_version(), ", ".join(versions), len(os.sched_getaffinity(0)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "auskit" / "__init__.py").is_file():
        print("run.py: no src/auskit next to perfbench/; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    print("environment: %s" % environment(), file=sys.stderr)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                result = traced_run(workload, args.seed, deadline)
            else:
                result = timed_run(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print("run.py: %s" % exc, file=sys.stderr)
            return 1
        attempted, failed, problems, metrics, note = result
        print("%s (seed %d): %s, %d items, %d failed" % (
            workload, args.seed, note, attempted, failed), file=sys.stderr)
        for p in problems:
            print("  FAIL %s" % p, file=sys.stderr)
        for name, (value, unit) in metrics.items():
            print("  %-58s %14.6g %s" % (name, value, unit), file=sys.stderr)
            key = name if len(workloads) == 1 else "%s.%s" % (workload, name)
            total["metrics"][key] = {"value": value, "unit": unit}
        total["correct"] = total["correct"] and not problems
        total["attempted"] += attempted
        total["failed"] += failed
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
