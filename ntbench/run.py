#!/usr/bin/env python3
"""Build `nt-serve` and the benchmark runner from this checkout, then run.

    python3 ntbench/run.py --workload hot|durable --seed N \
        --seconds S --trace 0|1
    python3 ntbench/run.py --self-test

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root); build output goes to stderr, so the
runner's JSON result stays the last line of stdout. The runner is given a
build stamp: core count, source revision, rustc version and profile.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The runner's own watchdog: a run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def cargo_build(env, args):
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def source_files():
    """The build's source files under the checkout, in a fixed order."""
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "ntbench"]:
        base = os.path.join(ROOT, top)
        if os.path.isfile(base):
            yield base
            continue
        found = []
        for d, dirs, files in os.walk(base):
            dirs[:] = [x for x in dirs if x != "target"]
            found += [os.path.join(d, f) for f in files
                      if f.endswith((".rs", ".toml", ".lock", ".json", ".py"))]
        yield from sorted(found)


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def source_rev():
    """What was measured: a hash of the sources as they are, committed or
    not, plus the git HEAD where the checkout is itself a git repository."""
    h = hashlib.sha256()
    for p in source_files():
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    rev = {"src_sha256": h.hexdigest()[:16]}
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        rev["git_head"] = git("rev-parse", "HEAD")
    return rev


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "net", "Cargo.toml")):
        print("ntbench: no nt-net sources next to the benchmark", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not cargo_build(env, ["-p", "nt-net", "--bin", "nt-serve"]):
        print("ntbench: building nt-serve failed", file=sys.stderr)
        return 2
    if not cargo_build(env, ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        print("ntbench: building the runner failed", file=sys.stderr)
        return 2
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    stamp = {
        "nproc": os.cpu_count(),
        "rev": source_rev(),
        "rustc": rustc,
        "profile": "release",
    }
    cmd = [os.path.join(target, "release", "ntbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(target, "release", "nt-serve"),
           "--root", ROOT, "--stamp", json.dumps(stamp)]
    # Its own process group, so that a run cut by the time limit takes the
    # `nt-serve` processes it started down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("ntbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
