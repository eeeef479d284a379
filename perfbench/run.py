#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Configures perfbench/CMakeLists.txt (the library from src/ plus the
benchmark program) into the build directory named by CARGO_TARGET_DIR, or
.bench_build, relative to the repository root; builds it; runs the program
with the given arguments. Build output goes to stderr, so the program's last
stdout line -- the JSON result -- stays the last line. A traced run writes
its spans to <build dir>/spans/<workload>-seed<N>.json. --test builds and
runs the checks of the benchmark's own helpers instead.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", bdir, "--target", target, "-j", jobs],
        stdout=sys.stderr)
    return os.path.join(bdir, target) if rc == 0 else None


def main(argv):
    if argv == ["--test"]:
        exe = build("perfbench_tests")
        return 1 if exe is None else subprocess.call([exe])
    args = dict(zip(argv[::2], argv[1::2]))
    required = ("--workload", "--seed", "--seconds", "--trace")
    if len(argv) % 2 or any(k not in args for k in required):
        print(__doc__, file=sys.stderr)
        return 2
    exe = build("perfbench")
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe] + argv
    if args["--trace"] != "0":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%s.json" % (args["--workload"], args["--seed"]))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
