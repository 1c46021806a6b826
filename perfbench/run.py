#!/usr/bin/env python3
"""Build and run one DistScroll benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the repository's src/ libraries plus the perfbench binary) into
.bench_build/perfbench; later runs reuse that build. With --trace 0 the
end-to-end metrics are printed, set-up time being the median over three
fresh processes; with --trace 1 the per-layer metrics of the traced run,
whose spans land in .bench_build/work/<workload>.spans.tsv (each traced
run of a workload overwrites the last). The last stdout line is the result
JSON, the line before it a stamp naming host, compiler and build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SETUP_PROCESSES = 3
RUN_DEADLINE_S = 170.0


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Run cmd to completion (killed and reaped on timeout); stdout is
    captured, stderr passes through."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no DistScroll sources under src/ (run from the repository root)")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300, check=False).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=800, check=False).returncode != 0:
        fail("build failed")


def last_json(stdout, what):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(what + " printed nothing")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        fail(what + " printed no JSON result")


def declared_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    started = time.monotonic()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--out-dir", WORK_DIR]

    setup_samples = []
    if args.trace == "0":
        # Set-up is timed in fresh processes so lazy, once-per-process
        # work (caches, thread-local state) is paid every time.
        for _ in range(SETUP_PROCESSES - 1):
            proc = run(base + ["--setup-only"], RUN_DEADLINE_S)
            if proc.returncode != 0:
                fail("set-up run failed", proc.returncode or 1)
            setup_samples.append(last_json(proc.stdout, "set-up run")[0]["setup_s"])

    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    proc = run(base + ["--seconds", str(args.seconds), "--trace", args.trace],
               max(remaining, 1.0))
    result, before = last_json(proc.stdout, "perfbench")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")

    metrics = result["metrics"]
    declared = declared_metrics(args.trace == "1")
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(set(emitted.items()) ^ set(declared.items()))), 3)
    if setup_samples:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)

    stamp = json.loads(before[-1]) if before else {"stamp": {}}
    stamp["stamp"]["setup_samples_s"] = setup_samples
    print(json.dumps(stamp))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
