#!/usr/bin/env python3
"""Build and run the perfbench driver from the root of a source checkout.

    python3 perfbench/run.py --workload share-64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest [--seed N ...]

The driver is configured and built into $CARGO_TARGET_DIR (default
.bench_build) under perfbench/, incrementally on every call. Build output
goes to stderr; the last stdout line is the driver's result object. With
--trace 1 the driver's spans are written to
$CARGO_TARGET_DIR/spans-<workload>-seed<N>.json. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of a source checkout (no src/CMakeLists.txt)")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or len(args.seed) != 1):
        fail("need --workload and one --seed (or --selftest)")

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(out_dir, "perfbench"))
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        cmd = [binary, "--scratch", scratch]
        for seed in args.seed or []:
            cmd += ["--seed", str(seed)]
        if args.selftest:
            return subprocess.run(cmd + ["--selftest"]).returncode
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed[0]}.json")]
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            # A crash or watchdog abort inside an experiment ends the
            # driver before it can print a result; the run has failed.
            fail(f"driver exited with status {proc.returncode}")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
