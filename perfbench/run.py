#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/CMakeLists.txt (the
simulator's libraries from src/ plus the harness, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. The program's report is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list, and this script checks
that the names agree. A traced run also writes the benchmark's wall-clock
spans as Chrome trace JSON under the build directory.

Exits nonzero when the build fails, a correctness check fails, or the output
does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "campaign_builtin.xml")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# One run must finish within 180 s; the build has its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def print_host_stamp(args):
    threads = os.cpu_count() or 0
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else threads
    print("# host hardware_threads=%d nproc=%d machine=%s system=%s" %
          (threads, usable, platform.machine(), platform.system()))
    print("# run workload=%s seed=%s seconds=%s trace=%s build=Release "
          "commit=%s source_sha256=%s" %
          (args.workload, args.seed, args.seconds, args.trace, commit(),
           source_digest()))


def benchmark_spec():
    if not os.path.isfile(BENCHMARK_JSON):
        return None
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    # The bounds in BENCHMARK.json hold for runs of its run_seconds.
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all four workloads at tiny sizes, every check")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    out_dir = build_dir()
    binary = build(out_dir)
    print_host_stamp(args)
    command = [binary, "--manifest", MANIFEST]
    if args.smoke:
        command.append("--smoke")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace",
                    str(args.trace)]
        if args.trace:
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result (exit code %d)" %
             run.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    want = None if args.smoke else expected_metrics(spec, args.trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (missing, extra))
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
