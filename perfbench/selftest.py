#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Runs each single-mutator workload twice with the same seed on a fixed
amount of work (sheap_perfbench --fixed-work) and requires identical count
metrics. Exits 1 on a mismatch or a failed correctness check.

    python3 perfbench/selftest.py [--seed N]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (shares the build step)

WORKLOADS = ("bank-oltp", "cad-churn", "crash-reopen")
COUNTS = ("dev_bytes_per_txn", "gc.collections", "gc.traps_per_txn",
          "storage.disk.page_reads_per_txn",
          "recovery.redo_applied_per_open")


def fixed_run(exe, bdir, workload, seed):
    heap_root = os.path.join(bdir, "heap")
    shutil.rmtree(heap_root, ignore_errors=True)
    os.makedirs(heap_root, exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, "--workload", workload, "--seed", str(seed), "--seconds",
             "1", "--fixed-work", "--dir", heap_root],
            stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(heap_root, ignore_errors=True)
    if proc.returncode != 0:
        run.fail("%s: sheap_perfbench exited with code %d" % (workload,
                                                      proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    bdir = run.build_dir()
    exe = run.build(bdir)
    ok = True
    for workload in WORKLOADS:
        a = fixed_run(exe, bdir, workload, args.seed)
        b = fixed_run(exe, bdir, workload, args.seed)
        for report in (a, b):
            if not report["correct"]:
                print("%s: correctness check failed: %s"
                      % (workload, report["failures"]))
                ok = False
        for name in COUNTS:
            va, vb = a["metrics"][name][0], b["metrics"][name][0]
            same = va == vb
            ok = ok and same
            print("%-14s %-34s %16.6f %16.6f %s"
                  % (workload, name, va, vb, "same" if same else "DIFFERENT"))
    print("determinism self-check " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
