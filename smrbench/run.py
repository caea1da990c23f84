#!/usr/bin/env python3
"""Build and run the smrseek benchmark.

Usage, from the root of the repository:

    python3 smrbench/run.py --workload scramble|table1|daemon \
        --seed N --seconds S --trace 0|1

Builds the `smrseek` binary (the daemon under test) and the `smrbench`
package into $CARGO_TARGET_DIR (default `.bench_build`), then runs
`smrbench`, whose last stdout line is the JSON result. Build output goes
to stderr. Exits non-zero without a result when the build or the run
fails. The benchmark runs in its own process group, which is killed on
exit so no daemon outlives it.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "smrseek-server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("smrbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["scramble", "table1", "daemon"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("smrbench: --seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "smrbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--smrseek", os.path.join(release, "smrseek"),
        "--work-dir", os.path.join(target, "smrbench"),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    received = []

    def kill_group():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        # Kill only: the main thread's wait() reaps the child (waiting here
        # too would deadlock on the Popen's wait lock).
        received.append(signum)
        kill_group()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    code = child.wait()
    kill_group()
    sys.exit(128 + received[0] if received else code)


if __name__ == "__main__":
    main()
