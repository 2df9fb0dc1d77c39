#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload maps --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt into .bench_build at the checkout root
(once), builds the perfbench binary and the adiv_serve daemon from the
checkout's sources, then runs perfbench. Build output goes to stderr; the
last line perfbench prints on stdout is the run's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("maps", "serve_small", "serve_fused")


def run_build_step(command):
    subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, name)) for name in generated):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD, "--parallel", jobs,
                    "--target", "perfbench", "adiv_serve_daemon"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    os.execv(binary, [binary,
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", repr(args.seconds),
                      "--trace", str(args.trace),
                      "--daemon", os.path.join(BUILD, "adiv", "tools", "adiv_serve"),
                      "--workdir", os.path.join(BUILD, "run")])


if __name__ == "__main__":
    sys.exit(main())
