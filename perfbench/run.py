#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload pipeline|fleet --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The first run configures and builds the
benchmark (the metaopt libraries, metaopt-serve, metaopt-gateway and the
perfbench harness) from the checkout's sources into .bench_build/perfbench;
later runs reuse the build. The harness's last stdout line is the result
JSON; the exit status is non-zero when the build fails or a correctness
gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness and both daemons."""
    for needed in ("src/CMakeLists.txt", "tools/metaopt-serve.cpp",
                   "tools/metaopt-gateway.cpp", "corpus/imported"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources missing: %s (run from a full checkout)"
                 % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = open(os.path.join(".bench_build", "perfbench-build.log"), "a")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "metaopt-serve", "metaopt-gateway"])
    for step in steps:
        if subprocess.call(step, stdout=log, stderr=log) != 0:
            fail("build step failed: %s (see .bench_build/perfbench-build.log)"
                 % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="quick corpus and small replays (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.makedirs(".bench_build", exist_ok=True)
    build()
    work = os.path.join(".bench_build", "runs",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bin-dir", BUILD, "--work-dir", work]
    if args.tiny:
        command.append("--tiny")
    status = subprocess.call(command)
    # The span file of a traced run is kept; bundles, sockets and daemon
    # logs are not.
    if status == 0:
        for name in os.listdir(work):
            if not name.startswith("spans-"):
                os.remove(os.path.join(work, name))
    sys.exit(status)


if __name__ == "__main__":
    main()
