#!/usr/bin/env python3
"""Build and run the QSPR end-to-end benchmark.

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library, qspr_serve and the perfbench program (Release) under
.bench_build/perfbench; later runs only re-configure and re-check the build. The program's
stdout is passed through: its last line is the result JSON. Build output goes
to stderr. Traces and run records land in .bench_build/perfbench-out.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_serial", "paper_parallel", "serve_sessions")


def source_digest(root):
    """SHA-256 over the library sources, the benchmark's sources and both
    build files, so a result can be tied to the code that produced it when
    there is no git metadata. It also keys the determinism record, so a
    build of other code never checks against it."""
    digest = hashlib.sha256()
    files = ([root / "CMakeLists.txt", root / "perfbench" / "CMakeLists.txt"] +
             sorted((root / "src").rglob("*")) +
             sorted((root / "perfbench" / "src").rglob("*")))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    # Configuring every time keeps a reused build tree in step with the
    # build file; it takes about a second once the tree exists.
    subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                    str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "perfbench", "qspr_serve"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (tiny m, two connections)")
    parser.add_argument("--corrupt-trace", action="store_true",
                        help="self-test: corrupt one trace before the "
                             "correctness gate, which must then fail")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"perfbench: no qspr sources next to {root / 'perfbench'}",
              file=sys.stderr)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    out_dir = root / ".bench_build" / "perfbench-out"
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--serve-bin", str(build_dir / "qspr" / "qspr_serve"),
               "--out-dir", str(out_dir),
               "--commit", git_commit(root),
               "--source-digest", source_digest(root)]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_trace:
        command.append("--corrupt-trace")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
