#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source, runs one workload.

    python3 perfbench/run.py --workload ec2-seq|serve-ec2 --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The script
  1. configures and builds the measuring binary (perfbench/CMakeLists.txt)
     into .bench_build/perfbench, a no-op when it is current;
  2. computes the reference result with an independent storage
     (`perfbench oracle`: google-style btree, 1 thread) in its own process,
     so it costs neither timed time nor the timed process's peak memory;
  3. runs the timed binary, which checks its outputs against that reference
     and prints, as its last line, one JSON object with the keys correct,
     attempted, failed and metrics (end-to-end metrics with --trace 0,
     per-layer metrics with --trace 1; spans go to
     .bench_build/perfbench/trace/).
The exit code is the binary's: 0 when every check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("ec2-seq", "serve-ec2")
DEADLINE_S = 175  # one run must end within 180 s (first build excepted)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to perfbench/: run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_id():
    """Git commit when there is one, and a digest of the sources either way."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_sha": commit, "source_sha256": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, help="override the workload scale (self-test)")
    ap.add_argument("--batches", type=int, help="override the commit count (self-test)")
    ap.add_argument("--holdback", type=int, help="override the held-back fact stride (self-test)")
    ap.add_argument("--oracle", help="use this oracle file instead of computing one")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    start = time.monotonic()
    common = [f"--workload={args.workload}", f"--seed={args.seed}"]
    for name in ("scale", "batches", "holdback"):
        if getattr(args, name) is not None:
            common.append(f"--{name}={getattr(args, name)}")

    oracle = args.oracle
    if oracle is None:
        os.makedirs(os.path.join(BUILD, "oracle"), exist_ok=True)
        oracle = os.path.join(BUILD, "oracle", f"{args.workload}-{args.seed}.txt")
        try:
            rc = subprocess.run([BINARY, "oracle", *common, f"--out={oracle}"],
                                stdout=sys.stderr, timeout=DEADLINE_S).returncode
        except subprocess.TimeoutExpired:
            log("oracle run timed out")
            return 2
        if rc != 0:
            log(f"oracle run failed ({rc})")
            return 2

    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    trace_out = os.path.join(BUILD, "trace", f"{args.workload}-{args.seed}.json")
    cmd = [BINARY, "run", *common, f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--oracle={oracle}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_out}")
    print(json.dumps({"record": "source", **source_id()}), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("timed run exceeded its deadline")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        log(f"timed run printed no result (exit {proc.returncode})")
        return proc.returncode or 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
