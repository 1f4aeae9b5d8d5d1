#!/usr/bin/env python3
"""The benchmark's self-test at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:
  * the span arithmetic is right (perfbench --selftest-spans: self time of
    nested and overlapping spans against hand-computed values);
  * every workload, untraced and traced, passes its correctness gates on
    the quick corpus with a few hundred requests per phase, and prints
    exactly the end-to-end (untraced) or per-layer (traced) metrics named
    in BENCHMARK.json, each with its unit;
  * run.py fails without printing a result where only BENCHMARK.json and
    perfbench/ exist (no sources to build).
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(ok, message):
    if not ok:
        print("selftest: FAILED: " + message, file=sys.stderr)
        sys.exit(1)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    check(lines, "no output")
    return json.loads(lines[-1])


def main():
    os.chdir(ROOT)
    spec = json.load(open("BENCHMARK.json"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run = [sys.executable, os.path.join("perfbench", "run.py")]

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                run + ["--workload", workload, "--seed", "3", "--seconds",
                       "2", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, universal_newlines=True)
            what = "%s trace=%d" % (workload, trace)
            check(proc.returncode == 0, what + ": exit %d" % proc.returncode)
            result = last_json(proc.stdout)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, what + ": result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  what + ": not correct")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, what + ": attempted")
            metrics = result["metrics"]
            check(set(metrics) == set(wanted[trace]),
                  what + ": metric names differ from BENCHMARK.json: %s" %
                  sorted(set(metrics) ^ set(wanted[trace])))
            for name, value in metrics.items():
                check(value["unit"] == wanted[trace][name],
                      what + ": unit of " + name)
                check(isinstance(value["value"], (int, float)) and
                      math.isfinite(value["value"]), what + ": " + name)
                if trace == 0:
                    check(value["value"] > 0, what + ": %s is 0" % name)
            print("selftest: %s ok (%d metrics)" % (what, len(metrics)))

    harness = os.path.join(".bench_build", "perfbench", "perfbench")
    check(subprocess.call([harness, "--selftest-spans"]) == 0,
          "span self-time arithmetic")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        universal_newlines=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "run.py without sources must fail without a result")
    shutil.rmtree(bare)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
