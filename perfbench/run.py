#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload compute-w|memory-a|service-s \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The `npb` and `npbd` binaries and the
`perfbench` driver are built in release mode into $CARGO_TARGET_DIR
(default `.bench_build`); the driver's scratch files go under that
directory too. The driver's standard output is passed through; its last
line is the JSON result. The exit code is the driver's: 0 when every
output checked out, 1 when one did not, 2 for a usage or build error.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Leave room for set-up and builds inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "npb", "--bin", "npbd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail(f"build failed: {' '.join(cmd)}")


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no Cargo.toml at {ROOT}: the benchmark builds the repository from source")
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target) and target.startswith(ROOT + os.sep):
        # Relative paths keep the daemon's socket path short.
        target = os.path.relpath(target, ROOT)
    build(target)
    driver = os.path.join(target, "release", "npb-perfbench")
    scratch = os.path.join(target, "perfbench")
    cmd = [driver, *args, "--bin-dir", os.path.join(target, "release"), "--scratch", scratch]
    # Its own process group, so a timeout also stops the daemons and
    # npb children it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
