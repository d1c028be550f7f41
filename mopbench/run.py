#!/usr/bin/env python3
"""Build and run the mopsim benchmark.

Run from the root of a checkout:

    python3 mopbench/run.py --workload mop-dense --seed 1 --seconds 15 --trace 0

The first call configures and builds `mopbench` (Release) from the
checkout's sources into `.bench_build/mopbench`; later calls rebuild
incrementally. All arguments are passed to the benchmark binary, whose
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without
a result, when the build or the run fails. See mopbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mopbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "mopbench-run")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configure once, then build incrementally; returns the binary."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "mopbench"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "mopbench")


def last_json_line(text):
    """The result object on the last line of @p text, or None."""
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main(argv):
    try:
        exe = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"error: cannot build the benchmark: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([exe, *argv, "--out", OUT_DIR],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"error: benchmark run failed: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    if "--selftest" not in argv and last_json_line(proc.stdout) is None:
        sys.stderr.write(proc.stdout)
        print("error: the benchmark printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
