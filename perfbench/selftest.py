#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny scale (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * a --trace 0 run emits every end-to-end metric, and a --trace 1 run every
    per-layer metric, each with the unit BENCHMARK.json gives it, with
    0 failed operations;
  * a run against a corrupted oracle digest reports the failed check
    (correct false, failed >= 1, exit code 1).
Exit code 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {"ec2-seq": ["--scale", "200", "--holdback", "20", "--batches", "5"],
        "serve-ec2": ["--scale", "200", "--batches", "10"]}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *TINY[workload], *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, proc = run(w, trace)
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                expect(False, f"{w} --trace {trace}: printed a result")
                continue
            expect(rc == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w} --trace {trace}: exit 0, correct, 0 of {result['attempted']} failed")
            got = result["metrics"]
            for m in bench[key]:
                expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                       f"{w} --trace {trace}: {m['name']} [{m['unit']}]")
            expect(set(got) == {m["name"] for m in bench[key]},
                   f"{w} --trace {trace}: no metric outside BENCHMARK.json {key}")

        # Corrupt one digest of the final state in a freshly computed oracle:
        # the run must count it as a failed check.
        oracle = os.path.join(ROOT, ".bench_build", "perfbench", "oracle", f"{w}-7.txt")
        with open(oracle) as f:
            lines = f.read().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("final"))
        key, rel, count, digest = lines[at].split()
        lines[at] = f"{key} {rel} {count} {(int(digest) + 1) % 2**64}"
        corrupt = oracle + ".corrupt"
        with open(corrupt, "w") as f:
            f.write("\n".join(lines))
        rc, result, _ = run(w, 0, ["--oracle", corrupt])
        expect(rc == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: a corrupted oracle digest is reported as a failed check")

    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
