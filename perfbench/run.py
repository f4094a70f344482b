#!/usr/bin/env python3
"""Builds and runs the mempart repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-hot|batch-cold|sim-1080p \
        --seed N --seconds S --trace 0|1 [--tiny]

The first call builds the repository's own CMake project in Release
(tests, benches and examples off) and then the harness package in this
directory against it; later calls rebuild incrementally. Build output goes
to stderr. The harness prints its report and, as the last stdout line, the
JSON result (see README.md). The build tree is $CARGO_TARGET_DIR when set,
else .bench_build, relative to the working directory.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "batch-cold", "sim-1080p")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    repo_build = os.path.join(build_dir, "repo")
    bench_build = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no mempart sources next to perfbench/ (" + ROOT + ")")
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", ROOT, "-B", repo_build,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DMEMPART_BUILD_TESTS=OFF",
                        "-DMEMPART_BUILD_BENCHMARKS=OFF",
                        "-DMEMPART_BUILD_EXAMPLES=OFF"])
    run_build_step(["cmake", "--build", repo_build, "--target", "mempart",
                    "-j", jobs])
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", bench_build,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DMEMPART_SOURCE_DIR=" + ROOT,
                        "-DMEMPART_BUILD_DIR=" + os.path.abspath(repo_build)])
    run_build_step(["cmake", "--build", bench_build, "-j", jobs])
    return os.path.join(bench_build, "perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizing (seconds are ignored)")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    harness = build(build_dir)
    workdir = os.path.relpath(os.path.join(build_dir, "run"))
    os.makedirs(workdir, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_identity(), "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
