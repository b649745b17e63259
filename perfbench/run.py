#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|serve|route> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench (and the library modules it links,
straight from src/) in a Release build under .bench_build, or under
$CARGO_TARGET_DIR when that is set, then runs one workload. The
benchmark's last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to
standard error. Exits non-zero without a result when the build or
the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            # Configure again next time instead of building a
            # half-configured tree.
            if os.path.exists(cache):
                os.remove(cache)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "route"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
