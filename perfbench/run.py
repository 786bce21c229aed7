#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
driver (perfbench/CMakeLists.txt, which compiles the library sources under
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only re-run the incremental build. The driver's last output line is the JSON
result; this script checks that it names exactly the metrics BENCHMARK.json
lists for the mode and exits non-zero, without printing a result, when the
build fails or the result is malformed. See perfbench/BENCHMARK.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_noncontig", "msg_storm", "pyobj_rpc", "coll_2level")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    driver = os.path.join(build_dir, "perfbench_driver")
    if not os.path.isfile(driver):
        fail("driver binary missing after build")
    return driver


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    driver = build(build_dir)
    expected = expected_metrics(args.trace)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        fail(f"driver exited {proc.returncode} without a result line")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        fail(f"result metrics {sorted(got)} differ from BENCHMARK.json {sorted(expected)}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
