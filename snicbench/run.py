#!/usr/bin/env python3
"""Build and run the snicsim benchmark.

Run from the repository root:

    python3 snicbench/run.py --workload paths --seed 1 --seconds 10 --trace 0

Configures snicbench/CMakeLists.txt (which compiles the simulator library
from src/) into the build directory, builds the benchmark binary, runs one workload
and passes the binary's output through. The last line of standard output
is the binary's JSON result. The build directory is $CARGO_TARGET_DIR when
set, else .bench_build; every file the benchmark writes stays under it.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paths", "rack_read", "rack_repair", "serve_tenants")
# The binary stops itself after --seconds plus set-up; this is the backstop.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"snicbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay in the build directory
    env.pop("CMAKE_CXX_COMPILER_LAUNCHER", None)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "snicbench"), "-B", build_dir,
             "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "snicbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {root}/src")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "snicbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"snicbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"snicbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])  # the contract: last line is the result
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
