#!/usr/bin/env python3
"""End-to-end benchmark for gasched.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <paper_fig06|fed_spill|serve_rt>
                             --seed N --seconds S --trace <0|1>

Builds the library and the benchmark binary from source into
.bench_build/ (CMake, Release), then runs one workload. Build output goes
to stderr; stdout carries the provenance stanza, the metrics by name and
unit, and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails or any correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gasched_perfbench"
WORKLOADS = ("paper_fig06", "fed_spill", "serve_rt")


def build() -> None:
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured from another checkout
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "gasched_perfbench", "-j", jobs],
    ):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id() -> str:
    """Digest of the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_build" / "out" / args.workload
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--config-dir", str(HERE / "configs"), "--out-dir", str(out_dir),
           "--git-sha", git_sha(),
           "--source-id", source_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
