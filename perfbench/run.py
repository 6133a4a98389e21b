#!/usr/bin/env python3
"""Build and run the layer-attributed benchmark.

    python3 perfbench/run.py --workload report|adhoc|wire_churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/perfbench.exe
with dune into .bench_build, runs it, and checks its result line against
BENCHMARK.json: with --trace 0 the metrics must be exactly the declared
end_to_end metrics, with --trace 1 exactly the declared per_layer metrics,
each with its declared unit.  The per-statement rows the traced run prints
may use only declared per_layer names.  The result line is printed last; on
any failure the script exits non-zero without printing one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared(benchmark, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def source_revision():
    """The git commit when run in a work tree, else a digest of the sources
    (a plain checkout has no .git)."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in SOURCE_DIRS + ("dune-project",):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def check_metrics(metrics, names, where, exact):
    got = set(metrics)
    if exact and got != set(names):
        fail("%s: metrics %s differ from BENCHMARK.json %s"
             % (where, sorted(got), sorted(names)), 3)
    for name, m in metrics.items():
        if name not in names:
            fail("%s: undeclared metric %s" % (where, name), 3)
        if m.get("unit") != names[name]:
            fail("%s: %s has unit %r, BENCHMARK.json says %r"
                 % (where, name, m.get("unit"), names[name]), 3)


def check_sequence(lines, args):
    """The operation sequence must be a function of the workload, seed and
    length alone: its digest is remembered across runs in the build
    directory and must never change."""
    digests = [l.split()[-1] for l in lines if l.startswith("ops ")]
    if len(digests) != 1:
        fail("no operation-sequence digest in the output", 3)
    path = os.path.join(BUILD_DIR, "op_digests.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = "%s/%d/%d" % (args.workload, args.seed, args.seconds)
    if seen.get(key, digests[0]) != digests[0]:
        fail("operation sequence for %s changed: %s, before %s"
             % (key, digests[0], seen[key]), 3)
    seen[key] = digests[0]
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        fail("run from the root of a source checkout (dune-project, lib/, "
             "BENCHMARK.json)")
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail("unknown workload " + args.workload)
    names = declared(benchmark, args.trace)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    spans = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans, exist_ok=True)
    # One CPU for the whole run: the wire client and the server's worker
    # domain then hand each query over on that CPU instead of waking each
    # other across CPUs, which made wire timings depend on what else the
    # host ran on the second CPU.
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[0]
    print("pin " + json.dumps({"cpu": cpu, "allowed": allowed}))
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--commit", source_revision(), "--spans", spans],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("exited with code %d" % run.returncode)
    lines = run.stdout.splitlines()
    if not lines:
        fail("no output")
    check_sequence(lines, args)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    check_metrics(result["metrics"], names, "result", exact=True)
    for line in lines[:-1]:
        if line.startswith("stmt "):
            row = json.loads(line[len("stmt "):])
            check_metrics(row["metrics"], names, row["statement"], exact=False)
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
