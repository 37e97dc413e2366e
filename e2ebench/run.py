#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of an FT-BESST checkout:

    python3 e2ebench/run.py --workload calibrate --seed 1 --seconds 10 --trace 0

Builds the library, the `ftbesst` CLI and the benchmark binary from source
(Release) into the build directory ($CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. The binary's last stdout line is
the JSON result; this script prints nothing after it. See README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("calibrate", "codesign", "serve")
# The in-process workloads and the tier's workers share util::TaskPool;
# pin it so runs on hosts of different sizes do the same work.
POOL_THREADS = "2"


def build(bench_dir, build_dir):
    """Configure and build; returns the build directory or exits non-zero."""
    log = sys.stderr
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            sys.exit("e2ebench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=log, stderr=log)
    if done.returncode != 0:
        sys.exit("e2ebench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="flip one output before it is checked "
                             "(smoke test of the output checks)")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(bench_dir, build_dir)

    # Relative paths keep the tier's unix socket names short.
    work = os.path.join(build_dir, "w%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, FTBESST_THREADS=POOL_THREADS)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt),
           "--ftbesst", os.path.join(os.path.abspath(build_dir), "ftbesst"),
           "--root", root, "--work", work]
    # e2e_bench, its op/phase children and the serving tier share one
    # process group; whatever is left of it when e2e_bench exits is killed
    # and waited for.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait()
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
