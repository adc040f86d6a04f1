#!/usr/bin/env python3
"""Build bench_slackdvs from source and run it.

Run from the repository root:

    python3 bench_slackdvs/run.py --workload uni_slack --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the runner into
.bench_build/ (a few minutes); later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the runner's
JSON result.  Every argument is passed to the runner unchanged; --spec
defaults to the repository's BENCHMARK.json.  Exits non-zero without a
result when the library sources are absent or the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("bench_slackdvs: library sources (src/) not found in " + str(ROOT),
              file=sys.stderr)
        return 2
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs,
                "--target", "bench_slackdvs"]
    return 0 if subprocess.run(compile_, stdout=sys.stderr).returncode == 0 else 1


def main():
    status = build()
    if status != 0:
        return status
    args = sys.argv[1:]
    if "--spec" not in args:
        args += ["--spec", str(ROOT / "BENCHMARK.json")]
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "bench_slackdvs"), *args],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
