#!/usr/bin/env python3
"""Repository benchmark: builds the workload program from source and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
workload program (CMake, RelWithDebInfo) under $CARGO_TARGET_DIR or .bench_build; later
runs only check that the build is current.

Output: a "context" line (machine, build, sample counts, operation counts);
with --trace 0 an "ungated" line (the latency percentiles, which BENCHMARK.json
does not bound); and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list (including
the tracing overhead); spans go to <build dir>/traces/.  Exits nonzero without
a result line when the build fails or a declared metric is missing, and with
the workload program's nonzero code when a correctness gate fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build():
    """Configures (once) and builds the workload program; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(os.cpu_count() or 2)
        cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    declared = declared_metrics(args.trace)
    binary = build()
    if binary is None:
        log("build failed")
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir(), "traces")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 5
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("workload program printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    metrics = {}
    for m in declared:
        got = result["metrics"].pop(m["name"], None)
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or not in %s: %r" % (m["name"], m["unit"], got))
            return 4
        metrics[m["name"]] = got
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        # Measured but not gated: BENCHMARK.json has no bound for them.
        print("ungated " + json.dumps(result["metrics"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
