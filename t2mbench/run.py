#!/usr/bin/env python3
"""Runs one workload of the t2m time-to-model benchmark.

    python3 t2mbench/run.py --workload kernel_full --seed 0 --seconds 33 --trace 0

Run from the repository root. The first call configures and builds
t2mbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed. The workload then runs in its own process (t2m_bench), whose last
stdout line is the JSON result. Build output goes to stderr. See README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_child = None  # the build step or workload process running now
_stopped_by = None  # the signal that stopped this run


def run(cmd, **kwargs):
    """Runs `cmd` in its own process group and returns its exit code."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    code = _child.wait()
    _child = None
    if _stopped_by is not None:
        sys.exit(128 + _stopped_by)
    return code


def stop(signum, _frame):
    """Stops the running child's whole process group; run() exits once the
    child has ended, so no process outlives this one."""
    global _stopped_by
    _stopped_by = signum
    if _child is None:
        sys.exit(128 + signum)
    os.killpg(_child.pid, signal.SIGTERM)


def build(build_dir):
    """Configures (once) and builds t2m_bench; returns its path or None."""
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "t2m_bench",
                  "-j", jobs])
    for cmd in steps:
        if run(cmd, stdout=sys.stderr, env=env) != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "t2m_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "t2mbench")
    exe = build(build_dir)
    if exe is None:
        return 1
    inputs = os.path.join(build_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    sys.stdout.flush()
    return run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--dir", inputs])


if __name__ == "__main__":
    sys.exit(main())
