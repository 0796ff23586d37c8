"""One benchmark pass in a fresh interpreter.

Spawned by run.py.  It imports the library from the checkout's ``src``,
loads the catalog, runs every item of the workload once and prints one JSON
line: set-up time, pass wall time, each item's time, problems and answer
digest, the times of the reference kernel of probe.py (three right after
the set-up, then those the pass ran) and the peak resident memory of this
process.  ``--setup-only`` stops after the set-up and its three probes;
``--trace FILE`` wraps the layers first, adds the per-layer metrics to the
line and writes the spans to FILE.
"""

import time

SPAWNED = time.monotonic()

import argparse  # noqa: E402 - the imports below are part of the timed set-up
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, default=SPAWNED,
                    help="time.monotonic() in the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default="", help="file to write the spans to")
    ap.add_argument("--only", default="", help="comma-separated item names (self-test)")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import auskit
    import workloads
    from probe import probe_ms

    if Path(auskit.__file__).resolve().parent != ROOT / "src" / "auskit":
        sys.exit("worker: imported auskit from %s, not from this checkout" % auskit.__file__)
    workloads.setup()
    out = {"setup_s": time.monotonic() - args.spawned_at}
    out["probes_ms"] = [probe_ms() for _ in range(3)]
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        only = [s for s in args.only.split(",") if s]
        items, wall, probes = workloads.run_pass(args.workload, args.seed, only, tracer)
        out.update(wall_s=wall, items=items)
        out["probes_ms"] += probes
        if tracer is not None:
            out["layers"] = tracer.metrics()
            tracer.write(Path(args.trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
