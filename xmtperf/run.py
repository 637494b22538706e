#!/usr/bin/env python3
"""Builds xmtperf from the checkout's sources, then runs one benchmark pass.

    python3 xmtperf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/xmtperf at the root of the checkout, in the
repository's default RelWithDebInfo configuration; an up-to-date build is
reused. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's (1 when an output
check fails, 2 on bad usage), or 1 when the build fails.
"""
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "xmtperf"


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--parallel", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(BUILD / "xmtperf")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
