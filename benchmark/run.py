#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of `dpg trace solve` and `dpg serve`.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trace-json, trace-long, catalog-wide, serve (see NOTES.md).

Builds the benchmark binary (benchmark/Cargo.toml) and the `dpg` binary
in release mode into $CARGO_TARGET_DIR (default: .bench_build under the
repository root), then runs the benchmark with MCS_THREADS=2 and
MCS_PHASE1 unset. Build output goes to standard error. The report goes to
standard output and ends with one JSON line. If either build fails, this
exits non-zero without a result.
"""

import os
import subprocess
import sys

# Worker threads for every parallel section: the host's vCPU count.
THREADS = "2"


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, MCS_THREADS=THREADS)
    env.pop("MCS_PHASE1", None)
    release = ["cargo", "build", "--offline", "--release", "--quiet"]
    builds = [
        release + ["--manifest-path", os.path.join(root, "benchmark", "Cargo.toml")],
        release + ["--bin", "dpg"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("benchmark build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "e2e-bench")
    dpg = os.path.join(target, "release", "dpg")
    return subprocess.run([bench, *sys.argv[1:], "--dpg", dpg], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
