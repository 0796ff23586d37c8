"""Fast self-test of the benchmark at its smallest size (about 30 s).

    python3 perfbench/selftest.py

It checks that
  1. the correctness gate counts a wrong answer and a raising item as failed,
     and that a pass goes on after either;
  2. small passes in fresh workers give the same answers on two seeds, the
     traced answers equal the untraced ones, and two traced runs repeat
     their call counts and ratios exactly;
  3. the full command at ``--seconds 1`` prints, as its last line, the JSON
     object of the contract with every end-to-end metric in its unit;
  4. BENCHMARK.json names exactly the workloads and metrics reported here;
  5. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     with a non-zero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
import time

import run
import tracing

ROOT = run.ROOT
SMALL = ("a2-epi", "kron2-ex4", "loop-b-ex8", "subspace3-ex18")
FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
        print("FAIL %s" % msg, file=sys.stderr)


def gate():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = workloads.Pass()
    expect = workloads.frozen_expectations()["a2-epi"]
    bench.run("a2-epi", workloads.verify_instance, "a2-epi", expect)
    tampered = dict(expect, node_count=expect["node_count"] + 1)
    bench.run("a2-epi tampered", workloads.verify_instance, "a2-epi", tampered)
    bench.run("no-such-instance", workloads.verify_instance, "no-such-instance", {})
    bench.run("a2-mono", workloads.verify_instance, "a2-mono",
              workloads.frozen_expectations()["a2-mono"])
    failed = [i["id"] for i in bench.items if i["problems"]]
    check(failed == ["a2-epi tampered", "no-such-instance"],
          "gate flags %s, want the tampered and the raising item" % failed)
    check(len(bench.items) == 4, "the pass stopped after a failing item")

    ok = {"id": "x", "ms": 1.0, "problems": [], "answer": "a"}
    _, nfail, problems = run.tally([{"items": [ok]}, {"items": [dict(ok, answer="b")]}])
    check(nfail == 0 and problems, "answers that differ between passes are not flagged")


def workers():
    deadline = time.monotonic() + 120
    for workload in ("catalog-verify", "determiner-sweep"):
        a, b = (run.spawn(workload, seed, deadline, only=SMALL) for seed in (1, 2))
        check(run.digest(a["items"]) == run.digest(b["items"]),
              "%s answers differ between seeds 1 and 2" % workload)
        check(not any(i["problems"] for i in a["items"] + b["items"]),
              "%s small pass has failures" % workload)
        if workload == "catalog-verify":
            check([i["id"] for i in a["items"]] != [i["id"] for i in b["items"]],
                  "seeds 1 and 2 give the same item order")
    trace_path = run.OUT / "selftest-trace.npz"
    plain = run.spawn("determiner-sweep", 1, deadline, only=SMALL)
    t1, t2 = (run.spawn("determiner-sweep", 1, deadline, trace_path=trace_path, only=SMALL)
              for _ in range(2))
    check(run.digest(t1["items"]) == run.digest(plain["items"]),
          "traced answers differ from untraced")
    counts = [{k: v for k, v in t["layers"].items() if tracing.METRICS[k][0] != "s"}
              for t in (t1, t2)]
    check(counts[0] == counts[1], "call counts differ between two traced runs")
    check(counts[0]["rep.hom_space.calls"] > 0, "hom_space was not traced")
    trace_path.unlink()


def command():
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "kronecker-table", "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    check(proc.returncode == 0, "run.py exited with code %d" % proc.returncode)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
          "result keys are %s" % sorted(last))
    check(last["correct"] is True and last["failed"] == 0, "kronecker-table is not correct")
    check(isinstance(last["attempted"], int) and last["attempted"] >= 2,
          "attempted is %r" % last["attempted"])
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    check(got == run.END_TO_END, "end-to-end metrics are %s" % got)
    check(all(v["value"] > 0 for v in last["metrics"].values()), "an end-to-end metric is 0")


def manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.py")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS,
          "BENCHMARK.json per_layer differs from tracing.py")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    check(all(m["bound"] <= setup["bound"] for m in spec["end_to_end"]),
          "setup_s does not have the largest bound")


def bare_directory():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kronecker-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    check(proc.returncode != 0, "run.py exited with 0 without a checkout")
    check("correct" not in proc.stdout, "run.py printed a result without a checkout")
    shutil.rmtree(bare)


def main():
    for step in (gate, workers, command, manifest, bare_directory):
        t = time.monotonic()
        step()
        print("%-15s %5.1f s" % (step.__name__, time.monotonic() - t), file=sys.stderr)
    print("selftest: %s" % ("FAILED" if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
