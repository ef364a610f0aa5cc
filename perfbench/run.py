#!/usr/bin/env python3
"""Build and run the FFIS campaign benchmark.

    python3 perfbench/run.py --workload nyx-stage --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds perfbench/ (which compiles
the checkout's src/ffis) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the benchmark's self-tests, then the benchmark
itself.  The last line of stdout is the benchmark's JSON result; build
output goes to stderr.  Everything the run writes stays under the checkout:
the build tree, .bench_out/ (results, traces, the fleet's checkpoint store)
and the compiler's temporary files.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent
WORKLOADS = ("nyx-stage", "montage-qmc-stage", "whole-run", "fleet-warm")
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need not be a git tree)."""
    h = hashlib.sha256()
    files = sorted(p for d in (SOURCE_ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(SOURCE_ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(SOURCE_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir, env):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SOURCE_ROOT / "src" / "ffis" / "exp" / "engine.hpp").is_file():
        print(f"perfbench: no FFIS sources under {SOURCE_ROOT / 'src'}", file=sys.stderr)
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    try:
        build(build_dir, env)
        subprocess.run([str(build_dir / "perfbench_selftest")], check=True, stdout=sys.stderr,
                       env=env, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(build_dir / "ffis_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", f"{git_sha()} src:{source_digest()}"]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
