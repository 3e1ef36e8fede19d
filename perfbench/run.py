#!/usr/bin/env python3
"""Build and run the NavP benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The navbench binary and the proc
backend's worker are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr.  The last line on stdout is the result object printed by
navbench.  Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mm-dense", "jacobi-threaded", "jacobi-proc")
# navbench stops measuring at 1.1x --seconds at the latest; the margin covers
# its crash drill, set-up and (traced) layer probes.
RUN_TIMEOUT_FACTOR = 2
RUN_TIMEOUT_MARGIN_S = 60
# Environment knobs that would switch the proc backend off its default
# data plane or transport, or point it at another worker binary.
CLEARED_ENV = ("NAVCPP_PROC_MESH", "NAVCPP_PROC_TCP", "NAVCPP_PROC_TRACE",
               "NAVCPP_WORKER")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--corrupt-every", type=int, default=0,
                   help="damage every K-th result before verifying it "
                        "(used by the benchmark's own test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(root, build_dir):
    """Configure (once) and build navbench; returns the bin directory."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "navbench", "navcpp_worker"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "bin"


def main(argv):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    try:
        bin_dir = build(root, target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    workdir = target / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = str(workdir)
    cmd = [str(bin_dir / "navbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.corrupt_every:
        cmd += ["--corrupt-every", str(args.corrupt_every)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True,
                              timeout=RUN_TIMEOUT_FACTOR * args.seconds +
                              RUN_TIMEOUT_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("run.py: navbench timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: navbench exited with {proc.returncode}",
              file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
