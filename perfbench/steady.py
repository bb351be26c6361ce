#!/usr/bin/env python3
"""Repeats benchmark runs over several seeds and reports their spread.

    python3 perfbench/steady.py --workload suite-exec --seeds 1-10 \\
        [--seconds 10] [--trace 0] [--json OUT.json]

For each metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, next
to the metric's bound in BENCHMARK.json, plus the environment the figures
were taken on: nproc, compiler, build type and git SHA. Runs go through
run.py one at a time; a run that fails or reports correct=false stops the
sweep.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    cxx = out(["c++", "--version"]).splitlines()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": cxx[0] if cxx else "unknown",
        "build_type": "RelWithDebInfo",
        "git_sha": out(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 11-15")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--json", help="also write the summary here")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               a.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(a.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stdout + p.stderr)
            sys.exit("run failed: seed %d (exit %d)" % (seed, p.returncode))
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.stderr.write(p.stdout)
            sys.exit("seed %d: correct=%s failed=%d" %
                     (seed, res["correct"], res["failed"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %3d: %s" % (seed, "  ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
            flush=True)

    summary = {"workload": a.workload, "seeds": a.seeds, "seconds": seconds,
               "trace": a.trace, "env": environment(), "metrics": {}}
    print("\n%-24s %6s %12s %12s %12s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
            vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(name)
        summary["metrics"][name] = {"unit": units[name], "median": med,
                                    "q1": q1, "q3": q3, "spread": spread,
                                    "bound": b, "values": vs}
        print("%-24s %6s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, units[name], med, q1, q3, spread,
               "-" if b is None else "%.2f" % b))
    print("env: " + json.dumps(summary["env"]))
    if a.json:
        with open(a.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
