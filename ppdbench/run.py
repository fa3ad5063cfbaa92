#!/usr/bin/env python3
"""Builds and runs the PPD end-to-end benchmark.

Run from the repository root:

  python3 ppdbench/run.py --workload prep_large --seed 1 --seconds 10 --trace 0
  python3 ppdbench/run.py --smoke

The first form builds ppdbench (CMake, into .bench_build/) if needed, runs
one workload in its own process and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0 and the per-layer ones with --trace 1, exactly the
names BENCHMARK.json lists. Lines before it are sample details. The result
is also written, with the host and build it ran on, to .bench_out/.

--smoke runs a tiny size of every workload, traced and untraced, and checks
that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "ppdbench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("ppdbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the benchmark; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PPD sources beside ppdbench/ (expected src/CMakeLists.txt)",
             2)
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    with open(os.path.join(ROOT, BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(ROOT, BUILD_DIR,
                                           "CMakeCache.txt")):
            steps.append(["cmake", "-S", "ppdbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "ppdbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step), 3)


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the binary once; returns (exit code, result dict, detail lines)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", OUT_DIR, "--commit", commit()]
    if smoke:
        args.append("--smoke")
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 5)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("%s exited %d without a result" % (workload, proc.returncode),
             proc.returncode or 6)
    details = lines[:-1]
    if echo:
        sys.stdout.write("".join(line + "\n" for line in details))
    result = json.loads(lines[-1])

    declared = declared_metrics(trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            missing = sorted(set(declared) - set(got))
            extra = sorted(set(got) - set(declared))
            units = sorted(n for n in set(got) & set(declared)
                           if got[n] != declared[n])
            fail("%s metrics do not match BENCHMARK.json: missing %s, "
                 "undeclared %s, unit mismatch %s"
                 % (workload, missing, extra, units), 4)

    host = next((json.loads(line[5:]) for line in details
                 if line.startswith("host ")), {})
    record = os.path.join(ROOT, OUT_DIR, "%s-seed%d-trace%d.json"
                          % (workload, seed, int(trace)))
    with open(record, "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "host": host, "result": result,
                   "details": details}, f, indent=1)
    return proc.returncode, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            code, result = run_workload(workload, 1, 1, trace, smoke=True,
                                        echo=False)
            if code != 0 or not result["correct"]:
                fail("smoke %s trace %d: incorrect result" % (workload, trace),
                     1)
            print("smoke %s trace %d: %d metrics, %d operations checked"
                  % (workload, trace, len(result["metrics"]),
                     result["attempted"]))
    print("smoke ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    if opts.smoke:
        return smoke()
    if not opts.workload:
        parser.error("--workload is required")
    code, result = run_workload(opts.workload, opts.seed, opts.seconds,
                                opts.trace)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
