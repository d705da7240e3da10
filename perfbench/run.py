#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the load generator (perfbench/CMakeLists.txt, Release, from the
sources of this checkout), runs one workload, checks the result, and prints
two JSON lines on stdout: run information, then the result object, which is
always the last line.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Build output, WAL scratch space and
span files go under $CARGO_TARGET_DIR (default .bench_build). With
--out FILE the run's information and result are also appended to FILE as
one JSON line, the input perfbench/compare.py reads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
WORKLOADS = ("query_mix", "ingest_live", "sharded_fanout")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Leaves margin under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds vz_loadgen; returns the binary path."""
    if not os.path.isfile(os.path.join("src", "core", "videozilla.h")):
        die("no source tree here: run from the root of a repository checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out_dir)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run([cmake, "--build", out_dir, "--target", "vz_loadgen",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(out_dir, "vz_loadgen")


def source_digest():
    """SHA-256 over the sources the benchmark builds and runs: the stand-in
    for a commit id when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None without it)."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        die(f"malformed result: {result!r}")
    if not isinstance(result["correct"], bool):
        die("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            die(f"'{key}' is not a count")
    if result["attempted"] < 1:
        die("nothing was attempted")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die(f"metric {name} has no finite value")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        die(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json "
            f"{sorted(want)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to FILE")
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"vz_loadgen exited with {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        die("vz_loadgen printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    check_result(result, bool(args.trace))

    info["source_digest"] = source_digest()
    info["commit"] = git_commit()
    info["host_cpus"] = os.cpu_count()
    print(json.dumps({"info": info}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "info": info,
                                "result": result}) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
