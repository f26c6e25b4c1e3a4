#!/usr/bin/env python3
"""Build the perfbench driver from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--dump-inputs] [--self-test]

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the driver, a
Release build) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The calibration constant cal_ref_ms comes from
perfbench/calibration.json.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_BUILD, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/ (src/ is missing)")
    os.makedirs(BENCH_BUILD, exist_ok=True)
    with open(os.path.join(BENCH_BUILD, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                           + generator, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def main():
    with open(os.path.join(HERE, "calibration.json")) as f:
        cal = json.load(f)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [DRIVER] + sys.argv[1:] + [
        "--cal-ref-ms", str(cal["cal_ref_ms"]),
        "--work-dir", os.path.join(BENCH_BUILD, "work"),
        "--rev", revision(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
