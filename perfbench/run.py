#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); traced runs write their spans to
`<target dir>/perfbench-traces`. The last line of standard output is the
JSON result. Exits non-zero, printing no result, if the build fails.

The measured process is pinned to one CPU. On a small VM, wake-ups that
cross CPUs (each serve request hops client -> reader -> eval worker ->
client) wait for the host to schedule an idle virtual CPU, and that wait
swings by 2x from run to run; on one CPU the hops are local switches.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    traces = os.path.join(target, "perfbench-traces")
    cpu = min(os.sched_getaffinity(0))
    return subprocess.run(
        [exe, *sys.argv[1:], "--out-dir", traces],
        cwd=ROOT,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
