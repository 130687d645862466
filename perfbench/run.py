#!/usr/bin/env python3
"""Builds and runs the MND-MST host wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) in Release mode under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark binary. Build output goes
to stderr; the binary's stdout is passed through, and its last line is the
JSON result. The exit code is the binary's, or 2 when the build fails.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "mnd_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return bdir / "mnd_perfbench"


def main() -> int:
    binary = build(build_dir())
    # The library reads MND_* variables (threads, filter, wire, schedule,
    # partition, faults, logging); drop them so every run measures the
    # defaults plus what the workload sets explicitly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MND_")}
    return subprocess.run([str(binary)] + sys.argv[1:], env=env,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
