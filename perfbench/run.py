#!/usr/bin/env python3
"""Builds and runs the HALO benchmark (perfbench).

    python3 perfbench/run.py --workload suite-exec|serve-mix|prepare-cold \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a HALO checkout. The first call configures and builds
perfbench (and the repository's halo_core and halo_planc) into
$CARGO_TARGET_DIR, default .bench_build, then compiles the suite's .hplan
plan set there with halo_planc; later calls rebuild only what changed.
Build output goes to stderr; the benchmark's last line on stdout is its
JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def sh(cmd, timeout=None):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build(build_dir):
    """Configures (once) and builds perfbench and halo_planc; returns
    whether that succeeded."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if sh(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return sh(["cmake", "--build", build_dir, "--target", "perfbench",
               "halo_planc", "-j", jobs]) == 0


def plans(build_dir):
    """Compiles the suite's plan set with the repository's halo_planc, once
    per halo_planc binary."""
    out = os.path.join(build_dir, "plans")
    planc = os.path.join(build_dir, "halo", "halo_planc")
    st = os.stat(planc)
    stamp_text = "%d %d\n" % (st.st_mtime_ns, st.st_size)
    stamp = os.path.join(out, "stamp")
    try:
        with open(stamp) as f:
            if f.read() == stamp_text:
                return out
    except OSError:
        pass
    shutil.rmtree(out, ignore_errors=True)
    log("compiling the suite's plan set into " + out)
    if sh([planc, "compile", "--suite", "--out", out]) != 0:
        return None
    with open(stamp, "w") as f:
        f.write(stamp_text)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["suite-exec", "serve-mix", "prepare-cold"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true",
                    help="check span attribution instead of running a "
                         "workload")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no HALO sources next to perfbench/ (expected CMakeLists.txt "
            "and src/ in %s)" % ROOT)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "perfbench")
    plan_dir = plans(build_dir)
    if plan_dir is None:
        log("compiling the plan set failed")
        return 2

    if a.selftest:
        cmd = [binary, "selftest", "--plans", plan_dir]
    else:
        cmd = [binary, "run", "--workload", a.workload, "--seed",
               str(a.seed), "--seconds", str(a.seconds), "--trace",
               str(a.trace), "--plans", plan_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
