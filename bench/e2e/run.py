#!/usr/bin/env python3
"""Build bench_e2e from this checkout, then run it.

This is the command BENCHMARK.json names. Usage, from the repository
root:

    python3 bench/e2e/run.py --workload fig9-cold --seed 42 \
        --seconds 15 --trace 0 [--out result.json]

Every argument is passed to bench_e2e (see bench_e2e.cc). The build
goes to $CARGO_TARGET_DIR/bench_e2e, or .bench_build/bench_e2e when the
variable is unset; build output goes to stderr, so the last line of
stdout stays bench_e2e's JSON result. Run directories and spans land
under the same build directory. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configure, then bring bench_e2e and anchortlb up to date."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "bench_e2e"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as err:
            print(f"run.py: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} failed", file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "bench_e2e")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "bench_e2e")
    argv = [binary, *sys.argv[1:],
            "--dir", os.path.join(build_dir, "runs"),
            "--expected", os.path.join(HERE, "expected_digests.json")]
    sys.stdout.flush()
    os.execv(binary, argv)
    return 1


if __name__ == "__main__":
    sys.exit(main())
