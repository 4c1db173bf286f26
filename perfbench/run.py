#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload sweep-kernel --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's own
libraries from source) into .bench_build/ — or $CARGO_TARGET_DIR when set —
and later runs rebuild only what changed. Build output goes to stderr; the
benchmark's report goes to stdout and ends with one JSON line. The metric
names in that line are checked against BENCHMARK.json before it is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    tree = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(tree, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep-kernel", "sweep-supervised", "serve-traversal"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found beside perfbench/; run inside the repository")
    os.chdir(ROOT)
    # Relative to the checkout, so the serve workload's Unix socket path
    # stays short whatever directory the checkout sits in.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    trace_out = os.path.join(build_dir, "traces",
                             f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "run"),
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        die(f"benchmark exited {proc.returncode} without a result line", 1)
    names = set(result.get("metrics", {}))
    want = set(expected_metrics(args.trace))
    if set(result) != {"correct", "attempted", "failed", "metrics"} or names != want:
        sys.stderr.write(proc.stdout)
        die("result does not match BENCHMARK.json: missing "
            f"{sorted(want - names)}, unexpected {sorted(names - want)}", 3)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
