#!/usr/bin/env python3
"""Determinism check of the benchmark's input generator.

    python3 perfbench/check_schedule.py

For every workload it generates the schedule (arrival times, connections,
operation kinds, inputs, query features and, on ingest_live, the frame
order) twice from one seed and once from another, then checks that the
first two are byte-identical and the third differs. Exits non-zero on a
failed check. Builds the load generator first, like run.py, and runs from
the root of a checkout.
"""

import filecmp
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def schedule(binary, workload, seed, path):
    out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", "20", "--schedule-out", path],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def main():
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    ok = True
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in run.WORKLOADS:
            paths = [os.path.join(tmp, f"{workload}-{i}.bin") for i in range(3)]
            digests = [schedule(binary, workload, seed, path)
                       for seed, path in zip((1, 1, 2), paths)]
            same = filecmp.cmp(paths[0], paths[1], shallow=False)
            differs = not filecmp.cmp(paths[0], paths[2], shallow=False)
            print(f"{workload}: seed 1 twice "
                  f"{'byte-identical' if same else 'DIFFERENT'} ({digests[0]}, "
                  f"{os.path.getsize(paths[0])} bytes); seed 2 "
                  f"{'differs' if differs else 'IDENTICAL'} ({digests[2]})")
            ok = ok and same and differs
    print("schedule determinism: " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
