#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout's sources and run one workload.

    python3 e2ebench/run.py --workload serve-fleet --seed 1 --seconds 20 --trace 0

The first run configures and builds e2ebench/ (which compiles ../src) into
.bench_build/e2ebench/build; later runs only rebuild what changed. Build output
goes to stderr, so the benchmark's last stdout line is always its result. Any
further arguments (e.g. --perturb-reference) are passed to the binary.
Exit status is the binary's: 0 scored, 2 an output check failed, 3 the run is
invalid and not scored; 1 for a failed build or any other error.
"""
import argparse
import fcntl
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD = os.path.join(OUT, "build")
BINARY = os.path.join(BUILD, "e2ebench")
# A run must end within 180 s; the binary's own phases take far less.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache, encoding="utf-8", errors="replace") as f:
                home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$", f.read(), re.M)
            if not home or os.path.realpath(home.group(1)) != os.path.realpath(SOURCE):
                shutil.rmtree(BUILD)
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def git_sha():
    # Only this checkout's own repository, if it is one: never a parent's.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--git-sha", git_sha()] + extra
    child = subprocess.Popen(cmd)
    # Stopped from outside (SIGTERM/SIGINT) or timed out: stop the benchmark
    # too, and wait for it, before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        # The binary removes its scratch directory itself unless it was stopped.
        shutil.rmtree(os.path.join(OUT, f"run-{child.pid}"), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
