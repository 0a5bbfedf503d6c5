#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, as do the per-run socket and
journal directories and the traced run's span file. The last line of
stdout is the run's JSON result (see perfbench/NOTES.md); build output goes
to stderr. Exits nonzero, printing no result, when the build fails or a
gate of the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("matrix", "chain-long", "committee")


def build(build_dir, targets):
    """Configures (once) and builds `targets`; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--parallel",
           str(os.cpu_count() or 1), "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(cmd):
    """Runs `cmd` to completion, stdout passed through; returns its code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "perfbench")
    if args.selftest:
        if not build(build_dir, ["perfbench_selftest", "xcp_node"]):
            return 1
        return run([os.path.join(build_dir, "perfbench_selftest"),
                    os.path.join(build_dir, "xcp", "xcp_node"),
                    os.path.join(out_root, "perfbench-selftest")])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build(build_dir, ["xcp_perfbench", "xcp_node"]):
        return 1
    # A path relative to the checkout keeps the unix socket names short
    # (108 bytes at most) wherever the checkout lives.
    work_dir = os.path.relpath(os.path.join(
        out_root, "perfbench-run", "%s-%d" % (args.workload, os.getpid())))
    cmd = [os.path.join(build_dir, "xcp_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--node-bin", os.path.join(build_dir, "xcp", "xcp_node"),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_root, "perfbench-spans-%s-%d.json" % (args.workload, args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
