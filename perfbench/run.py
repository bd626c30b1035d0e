#!/usr/bin/env python3
"""Wall-clock benchmark of the sheap stable heap on RealEnv.

Run from the root of a source tree:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the sheap library plus the sheap_perfbench binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process with its heap in a fresh directory under the
build directory, and prints each metric by name with its unit. The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, measured
untraced. With --trace 1 they are its per_layer set: the run is split into
an untraced half and a traced half, and trace.overhead_ratio is traced
over untraced throughput.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bank-oltp", "cad-churn", "crash-reopen", "bank-2t-group")
RUN_TIMEOUT_S = 150
# End-to-end figures printed by an untraced run but kept out of
# BENCHMARK.json (see README.md): the unscaled CPU and reopen times, the
# reference time they are scaled by, transaction wall-clock times, which
# wait on the log's fdatasync and swing with the host's disk beyond any
# allowed bound, the reopen tail, and the failure ratio, which is 0 by
# construction.
PRINTED_ONLY = ["txn_user_us", "txn_cpu_us", "reopen_p50_ms", "reference_ms",
                "txn_per_s", "txn_p50_ms", "txn_p95_ms", "txn_p99_ms",
                "reopen_p90_ms", "txn_failed_ratio"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(bdir):
    """Configure (once) and build sheap_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("sheap sources (src/) not found next to perfbench/", 2)
    out = os.path.join(bdir, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    exe = os.path.join(out, "sheap_perfbench")
    built_at = os.path.getmtime(exe) if os.path.exists(exe) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "sheap_perfbench",
                   "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=800).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % log_path)
    exe = os.path.join(out, "sheap_perfbench")
    if not os.access(exe, os.X_OK):
        fail("sheap_perfbench missing after build: " + exe)
    if os.path.getmtime(exe) != built_at:
        flush_tree(out)
    return exe


def flush_tree(path):
    """Push a fresh build's files to the device now, so their writeback
    does not compete with the log's fdatasync calls in the measured runs."""
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(fd)
            except OSError:
                pass
            finally:
                os.close(fd)


def drive(exe, bdir, args, seconds, trace):
    """Run sheap_perfbench once in its own process; returns its JSON report."""
    heap_root = os.path.join(bdir, "heap")
    shutil.rmtree(heap_root, ignore_errors=True)
    os.makedirs(heap_root, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--dir", heap_root]
    if trace:
        trace_dir = os.path.join(bdir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sheap_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(heap_root, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("sheap_perfbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e), 2)
    bdir = build_dir()
    exe = build(bdir)

    if args.trace:
        plain = drive(exe, bdir, args, args.seconds / 2, False)
        report = drive(exe, bdir, args, args.seconds / 2, True)
        ratio = (report["metrics"]["txn_per_s"][0] /
                 plain["metrics"]["txn_per_s"][0])
        report["metrics"]["trace.overhead_ratio"] = [ratio, "ratio"]
        report["correct"] = report["correct"] and plain["correct"]
        report["failures"] = plain["failures"] + report["failures"]
        wanted = spec["per_layer"]
    else:
        report = drive(exe, bdir, args, args.seconds, False)
        wanted = spec["end_to_end"]

    info = report["info"]
    print("workload %s  seed %d  heap fs %s  build %s  fault injection %s  "
          "mutators %d of %d hardware threads  committed %d  reopens %d"
          % (args.workload, args.seed, info["fs_type"], info["build_type"],
             "on" if info["fault_injection"] else "off",
             info["mutator_threads"], info["hardware_threads"],
             info["committed"], info["reopens"]))
    measured = report["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("sheap_perfbench did not report " + m["name"])
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail("%s: sheap_perfbench unit %s, BENCHMARK.json unit %s"
                 % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    shown = [m["name"] for m in wanted]
    if not args.trace:
        shown += PRINTED_ONLY
    for name in shown:
        value, unit = measured[name]
        print("  %-36s %16.6f %s" % (name, value, unit))
    for msg in report["failures"]:
        print("  CHECK FAILED: " + msg)
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
