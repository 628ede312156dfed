#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (the system's libraries from src/ plus perfbench/*.cpp, Release)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only re-check the build. Build output goes to stderr, so lmbench's
result stays the last line of stdout. Exits non-zero without a result when
the sources are missing, the build fails, or the run fails or overruns.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("toolchain", "stream-cpu", "offload", "remote")
RUN_LIMIT_S = 170  # keeps a whole run.py call under 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_revision(root):
    """The git commit when run inside a work tree, else a digest of the
    sources the benchmark builds from (src/ and perfbench/)."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "lmbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"run from the repository root: {need} not found")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, target)
    build_dir = os.path.join(build_root, "perfbench")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "lmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_revision(root),
           "--tmp", os.path.join(build_root, "perfbench-tmp")]
    sys.stdout.flush()
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s", 4)
    if res.returncode != 0:
        fail(f"lmbench exited with {res.returncode} after "
             f"{time.monotonic() - started:.1f} s", 5)


if __name__ == "__main__":
    main()
